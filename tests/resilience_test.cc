/**
 * @file
 * Resilience layer: hot-swap cache reintegration (the P896 live
 * insertion story) and supervised, checkpointable campaigns.
 *
 * The contracts under test:
 *
 *  - reintegrate() is the exact inverse of quarantine(): the board
 *    rejoins with every line in state I, so the rejoin itself cannot
 *    perturb the shared memory image, and its first accesses are cold
 *    misses that refill through the normal protocol.
 *  - The watchdog escalation ladder (retry -> quarantine on the Nth
 *    trip -> scheduled reintegration) fires deterministically and
 *    every transition is counted and replay-tagged.
 *  - Supervision isolates failures: a throwing or deadline-blown job
 *    becomes a structured report row, retries draw derived sub-seeds,
 *    and the default options reproduce the unsupervised bytes.
 *  - The journal is crash-consistent: any prefix of records resumes
 *    to a byte-identical merged report, torn tails are dropped, and a
 *    foreign journal is rejected.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign_journal.h"
#include "campaign/campaign_runner.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/perfetto_sink.h"
#include "sim/engine.h"
#include "test_util.h"
#include "text/report.h"

namespace fbsim {
namespace {

/** Mixed random workload, as in the fault-injection tests. */
void
drive(System &sys, std::uint64_t seed, int accesses, std::size_t lines)
{
    Rng rng(seed);
    std::size_t clients = sys.numClients();
    std::size_t words = sys.config().lineBytes / kWordBytes;
    for (int i = 0; i < accesses; ++i) {
        MasterId who = static_cast<MasterId>(rng.below(clients));
        Addr addr = rng.below(lines * words) * kWordBytes;
        if (rng.chance(0.35))
            sys.write(who, addr, rng.next());
        else
            sys.read(who, addr);
    }
}

void
expectAllAnnotated(const std::vector<std::string> &msgs)
{
    for (const std::string &m : msgs)
        EXPECT_NE(m.find("[fault seed=0x"), std::string::npos) << m;
}

// ---------------------------------------------------------------- //
// Hot-swap reintegration: quarantine() and back.

TEST(ReintegrateTest, ManualReintegrateRestoresCachingService)
{
    System sys(test::testConfig());
    MasterId a = sys.addCache(test::smallCache());
    MasterId b = sys.addCache(test::smallCache());

    sys.write(a, 0x40, 0xbeef);
    ASSERT_TRUE(sys.quarantine(a));
    ASSERT_TRUE(sys.cacheOf(a)->quarantined());
    EXPECT_FALSE(sys.reintegrate(b));     // b was never quarantined

    ASSERT_TRUE(sys.reintegrate(a));
    EXPECT_FALSE(sys.reintegrate(a));     // idempotent
    EXPECT_EQ(sys.reintegrationCount(), 1u);
    EXPECT_FALSE(sys.cacheOf(a)->quarantined());

    // The rejoined cache starts cold: state I everywhere, first read
    // a miss that refills through the normal protocol...
    EXPECT_EQ(sys.cacheOf(a)->lineState(0x40), State::I);
    std::uint64_t misses = sys.cacheOf(a)->stats().readMisses;
    EXPECT_EQ(sys.read(a, 0x40).value, 0xbeefu);
    EXPECT_EQ(sys.cacheOf(a)->stats().readMisses, misses + 1);
    // ...and caches again (quarantine bypass would miss every time).
    std::uint64_t hits = sys.cacheOf(a)->stats().readHits;
    EXPECT_EQ(sys.read(a, 0x40).value, 0xbeefu);
    EXPECT_EQ(sys.cacheOf(a)->stats().readHits, hits + 1);

    sys.write(a, 0x40, 0xcafe);
    EXPECT_EQ(sys.read(b, 0x40).value, 0xcafeu);
    EXPECT_TRUE(sys.violations().empty());
    EXPECT_TRUE(sys.checkNow().empty());
}

// The issue's acceptance campaign: quarantine -> reintegrate in the
// middle of a >= 10k access mixed Berkeley/Illinois/Firefly fault
// campaign.  Illinois and Firefly are not class members, so the mix
// may diverge on its own; the rejoin contract is therefore a delta
// one: the hot swap itself must not move the needle - the full
// invariant audit reads the same immediately before and after the
// rejoin, and nothing new is recorded by it.
TEST(ReintegrateTest, RejoinLeavesTheSharedImageUntouched)
{
    SystemConfig cfg = test::testConfig();
    FaultConfig fc;
    fc.seed = 0x5eed;
    // Timing-only sites: aborts, delays and drops are recovered by
    // the retry machinery with no state divergence.
    fc.spuriousAbort.probability = 0.02;
    fc.abortStormProb = 0.2;
    fc.abortStormLength = 4;
    fc.memoryDelay.probability = 0.01;
    fc.memoryDelayCycles = 16;
    fc.memoryDrop.probability = 0.01;
    cfg.faults = fc;
    System sys(cfg);
    MasterId berkeley = sys.addCache(
        test::smallCache(ProtocolKind::Berkeley));
    sys.addCache(test::smallCache(ProtocolKind::Illinois));
    sys.addCache(test::smallCache(ProtocolKind::Firefly));

    drive(sys, 0x1234, 5000, 12);

    // Hot swap mid-campaign.  Violation messages embed the current
    // cache roster (the describeLine state vector), which legitimately
    // differs while a board is out; compare the invariant cores.
    auto cores = [](std::vector<std::string> violations) {
        for (std::string &v : violations)
            v = v.substr(0, v.find(" | line"));
        return violations;
    };
    ASSERT_TRUE(sys.quarantine(berkeley));
    std::vector<std::string> audit_before = cores(sys.checkNow());
    std::size_t recorded_before = sys.violations().size();
    ASSERT_TRUE(sys.reintegrate(berkeley));
    EXPECT_EQ(cores(sys.checkNow()), audit_before);
    EXPECT_EQ(sys.violations().size(), recorded_before);
    EXPECT_EQ(sys.reintegrationCount(), 1u);

    // First post-rejoin accesses are cold I-state misses.
    const CacheStats &stats = sys.cacheOf(berkeley)->stats();
    EXPECT_EQ(sys.cacheOf(berkeley)->lineState(0x40), State::I);
    std::uint64_t misses = stats.readMisses;
    std::size_t recorded = sys.violations().size();
    sys.read(berkeley, 0x40);
    EXPECT_EQ(stats.readMisses, misses + 1);
    EXPECT_EQ(sys.violations().size(), recorded);

    // Second campaign half: the rejoined board participates fully and
    // nothing - violation or event - is ever silent.
    drive(sys, 0x4321, 5000, 12);
    EXPECT_GT(sys.faultInjector()->stats().injected(), 0u);
    expectAllAnnotated(sys.violations());
    expectAllAnnotated(sys.faultEvents());
    bool saw_reintegrate = false;
    for (const std::string &ev : sys.faultEvents())
        saw_reintegrate |= ev.find("reintegrate:") != std::string::npos;
    EXPECT_TRUE(saw_reintegrate);
}

// ---------------------------------------------------------------- //
// The escalation ladder: retry -> watchdog trip -> quarantine on the
// Nth trip -> scheduled reintegration.

TEST(ReintegrateTest, LadderQuarantinesOnlyOnTheConfiguredTrip)
{
    SystemConfig cfg = test::testConfig();
    cfg.maxBusRetries = 2;
    cfg.watchdogRounds = 4;
    cfg.quarantineAfterTrips = 2;   // second trip pulls the board
    FaultConfig fc;
    fc.seed = 23;
    fc.spuriousAbort.probability = 1.0;
    fc.spuriousAbort.windowStart = 1;
    fc.spuriousAbort.windowEnd = 1000;
    cfg.faults = fc;
    System sys(cfg);
    MasterId a = sys.addCache(test::smallCache());
    sys.addCache(test::smallCache());

    // First watchdog trip (4 faulted accesses): retried, not pulled.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(sys.write(a, 0x40, 1).faulted);
    EXPECT_EQ(sys.watchdogTrips(), 1u);
    EXPECT_EQ(sys.quarantineCount(), 0u);
    EXPECT_FALSE(sys.cacheOf(a)->quarantined());

    // Second trip: the ladder escalates to quarantine.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(sys.write(a, 0x40, 1).faulted);
    EXPECT_EQ(sys.watchdogTrips(), 2u);
    EXPECT_EQ(sys.quarantineCount(), 1u);
    EXPECT_TRUE(sys.cacheOf(a)->quarantined());
    expectAllAnnotated(sys.faultEvents());
}

TEST(ReintegrateTest, ScheduledReintegrationRejoinsAfterTheFaultWindow)
{
    SystemConfig cfg;
    cfg.lineBytes = 32;
    cfg.checkEveryAccess = false;
    cfg.maxBusRetries = 2;
    cfg.watchdogRounds = 4;
    cfg.reintegrateAfterCycles = 64;
    FaultConfig fc;
    fc.seed = 41;
    fc.spuriousAbort.probability = 1.0;
    fc.spuriousAbort.windowStart = 1;
    fc.spuriousAbort.windowEnd = 40;
    cfg.faults = fc;
    System sys(cfg);
    sys.addCache(test::smallCache());
    sys.addCache(test::smallCache());

    const std::vector<ProcRef> refs0 = {
        {true, 0x000}, {true, 0x100}, {true, 0x200}};
    const std::vector<ProcRef> refs1 = {
        {true, 0x300}, {true, 0x400}, {true, 0x500}};
    SpanStream s0(refs0), s1(refs1);
    Engine engine(sys, {});
    EngineResult r = engine.run({&s0, &s1}, 80);

    // The ladder ran end to end: trips, quarantines, and - once the
    // bus had carried reintegrateAfterCycles of healthy traffic -
    // every pulled board rejoined.
    EXPECT_GT(r.watchdogTrips, 0u);
    EXPECT_GT(r.quarantines, 0u);
    EXPECT_GT(r.reintegrations, 0u);
    EXPECT_EQ(r.reintegrations, sys.reintegrationCount());
    for (MasterId id = 0; id < sys.numClients(); ++id)
        EXPECT_FALSE(sys.cacheOf(id)->quarantined()) << "cache " << id;
    // Rejoined caches cache again: past the fault window the run
    // completed coherently.
    EXPECT_TRUE(sys.checkNow().empty());
    EXPECT_TRUE(sys.violations().empty());
    expectAllAnnotated(sys.faultEvents());
}

// ---------------------------------------------------------------- //
// ThreadPool exception capture.

TEST(ThreadPoolTest, PoisonedTaskLeavesThePoolUsable)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&] { ++ran; });
    pool.submit([] { throw std::runtime_error("poisoned"); });
    pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 2);

    std::vector<std::exception_ptr> errors = pool.drainExceptions();
    ASSERT_EQ(errors.size(), 1u);
    try {
        std::rethrow_exception(errors[0]);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "poisoned");
    }
    EXPECT_TRUE(pool.drainExceptions().empty());   // drained

    // The pool survives its poisoned task: new work still runs.
    pool.submit([&] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 3);
}

// ---------------------------------------------------------------- //
// Supervised campaign execution.

/** Uniform random stream (as in the fault campaign tests). */
class UniformStream : public RefStream
{
  public:
    UniformStream(std::size_t lines, std::size_t words_per_line,
                  std::uint64_t seed)
        : lines_(lines), words_(words_per_line), rng_(seed)
    {
    }

    ProcRef
    next() override
    {
        ProcRef ref;
        ref.addr = rng_.below(lines_ * words_) * kWordBytes;
        ref.write = rng_.chance(0.35);
        return ref;
    }

  private:
    std::size_t lines_;
    std::size_t words_;
    Rng rng_;
};

/** A small two-workload campaign over a class-member mix. */
CampaignSpec
smallSpec(std::uint64_t campaign_seed, std::uint64_t refs,
          std::size_t replicas)
{
    CampaignSpec spec;
    spec.campaignSeed = campaign_seed;
    spec.refsPerProc = refs;
    spec.base = test::testConfig();

    ProtocolMix mix;
    mix.name = "Moesi+Berkeley";
    const ProtocolKind kinds[] = {ProtocolKind::Moesi,
                                  ProtocolKind::Berkeley};
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
        MixSlot slot;
        slot.cache = test::smallCache(kinds[i]);
        slot.cache.seed = i + 1;
        mix.slots.push_back(slot);
    }
    spec.mixes.push_back(std::move(mix));

    std::size_t words = spec.base.lineBytes / kWordBytes;
    for (std::size_t rep = 0; rep < replicas; ++rep) {
        WorkloadSpec w;
        w.name = "uniform/rep" + std::to_string(rep);
        w.make = [words](std::size_t proc, std::size_t,
                         std::uint64_t job_seed) {
            return std::unique_ptr<RefStream>(new UniformStream(
                12, words, Rng::deriveSeed(job_seed, proc)));
        };
        spec.workloads.push_back(std::move(w));
    }
    return spec;
}

// Exact pin of the flat ladder: a memory-drop outage and spurious
// aborts walk retry -> watchdog (every 2 faulted accesses) -> pull ->
// scheduled rejoin, while armed data flips corrupt cached lines and
// the integrity check pulls their readers.  Every message, its order,
// its trace instant and every counter is fingerprinted.
TEST(LadderPinTest, FlatJobLadderIsExact)
{
    CampaignSpec spec = smallSpec(0x1add, 3000, 1);
    spec.base.maxBusRetries = 4;
    spec.base.watchdogRounds = 2;
    spec.base.quarantineOnIntegrity = true;
    spec.base.reintegrateAfterCycles = 2000;
    FaultConfig fc;
    fc.seed = 0x1add;
    fc.spuriousAbort.probability = 0.05;
    fc.abortStormProb = 0.2;
    fc.abortStormLength = 8;
    fc.memoryDrop.probability = 1.0;
    fc.memoryDrop.windowStart = 200;
    fc.memoryDrop.windowEnd = 260;
    fc.dataFlip.probability = 0.02;
    spec.faults.push_back({"ladder", fc});

    CampaignScratch scratch;
    PerfettoTraceSink sink;
    CampaignResult r = runCampaignJob(spec, expandCampaign(spec).front(),
                                      scratch, nullptr, &sink);
    EXPECT_GT(r.watchdogTrips, 0u);
    EXPECT_GT(r.quarantines, 0u);
    EXPECT_GT(r.reintegrations, 0u);
    EXPECT_GT(r.faults.dataFlips, 0u);
    EXPECT_EQ(test::ladderPin(r, sink.render()),
              "events 125 41349faf3e138634 | violations 504 "
              "ec7c60b08b122c65 | engine 46409 46139 99 17 26 25 0 "
              "b7c48d9e5c05c0e9 | ladder 17 26 25 0 | report "
              "480c5a8dee1777ad | metrics 82b285bfda57e444 | trace "
              "014339c9523f12b0");
}

TEST(SupervisedRunnerTest, DefaultSupervisionReproducesBaselineBytes)
{
    CampaignSpec spec = smallSpec(0x11, 300, 3);
    std::string baseline =
        renderCampaignTable(CampaignRunner(1).run(spec));
    // Default options through the supervised path, serial and
    // threaded: same bytes (and no supervision columns appear).
    EXPECT_EQ(baseline, renderCampaignTable(
                            CampaignRunner(1, SupervisorOptions{})
                                .run(spec)));
    EXPECT_EQ(baseline, renderCampaignTable(
                            CampaignRunner(4, SupervisorOptions{})
                                .run(spec)));
    EXPECT_EQ(baseline.find("status"), std::string::npos);
}

TEST(SupervisedRunnerTest, ThrowingJobBecomesAStructuredFailureRow)
{
    CampaignSpec spec = smallSpec(0x22, 200, 3);
    // Workload 1 throws on every attempt; the others are healthy.
    spec.workloads[1].make = [](std::size_t, std::size_t,
                                std::uint64_t)
        -> std::unique_ptr<RefStream> {
        throw std::runtime_error("synthetic workload fault");
    };

    for (unsigned workers : {1u, 3u}) {
        CampaignReport report =
            CampaignRunner(workers, SupervisorOptions{}).run(spec);
        ASSERT_EQ(report.results.size(), 3u);
        const CampaignResult &bad = report.results[1];
        EXPECT_EQ(bad.status, JobStatus::Failed);
        EXPECT_FALSE(bad.consistent);
        EXPECT_EQ(bad.failureReason, "synthetic workload fault");
        EXPECT_EQ(bad.attempts, 1u);
        EXPECT_EQ(report.results[0].status, JobStatus::Ok);
        EXPECT_EQ(report.results[2].status, JobStatus::Ok);
        EXPECT_FALSE(report.allConsistent());

        std::string table = renderCampaignTable(report);
        EXPECT_NE(table.find("failed"), std::string::npos);
        EXPECT_NE(table.find("synthetic workload fault"),
                  std::string::npos);
    }
}

TEST(SupervisedRunnerTest, RetryDrawsTheDerivedSubSeed)
{
    CampaignSpec spec = smallSpec(0x33, 200, 2);
    // Job 0 fails exactly on its canonical (attempt 0) seed, so one
    // retry - reseeded via deriveSeed(campaignSeed, job, attempt) -
    // succeeds deterministically.
    const std::uint64_t canonical = Rng::deriveSeed(0x33, 0);
    std::size_t words = spec.base.lineBytes / kWordBytes;
    spec.workloads[0].make =
        [words, canonical](std::size_t proc, std::size_t,
                           std::uint64_t job_seed)
        -> std::unique_ptr<RefStream> {
        if (job_seed == canonical)
            throw std::runtime_error("flaky on the canonical seed");
        return std::unique_ptr<RefStream>(new UniformStream(
            12, words, Rng::deriveSeed(job_seed, proc)));
    };

    SupervisorOptions sup;
    sup.retries = 1;
    CampaignReport report = CampaignRunner(1, sup).run(spec);
    const CampaignResult &retried = report.results[0];
    EXPECT_EQ(retried.status, JobStatus::Ok);
    EXPECT_EQ(retried.attempts, 2u);
    EXPECT_EQ(retried.job.seed, Rng::deriveSeed(0x33, 0, 1));
    EXPECT_EQ(report.results[1].status, JobStatus::Ok);
    EXPECT_EQ(report.results[1].attempts, 1u);

    // Without the retry budget the same campaign reports the failure.
    CampaignReport unretried =
        CampaignRunner(1, SupervisorOptions{}).run(spec);
    EXPECT_EQ(unretried.results[0].status, JobStatus::Failed);
}

/** A job far too large to finish inside a 20 ms deadline, on a flat
 *  bus or over `clusters` leaf buses: the engine must stop at a poll
 *  point, not hang. */
void
expectDeadlineTimesOut(std::size_t clusters)
{
    CampaignSpec spec = smallSpec(0x44, 500000000ull, 1);
    spec.clusters = clusters;
    SupervisorOptions sup;
    sup.timeoutMs = 20;
    CampaignReport report = CampaignRunner(1, sup).run(spec);
    const CampaignResult &r = report.results[0];
    EXPECT_EQ(r.status, JobStatus::TimedOut);
    EXPECT_TRUE(r.engine.cancelled);
    EXPECT_FALSE(r.consistent);
    EXPECT_NE(r.failureReason.find("deadline"), std::string::npos);
    // Partial statistics are real work, not zeros.
    EXPECT_GT(r.totalRefs(), 0u);
    EXPECT_LT(r.totalRefs(), 500000000ull);

    std::string table = renderCampaignTable(report);
    EXPECT_NE(table.find("timeout"), std::string::npos);
}

TEST(SupervisedRunnerTest, DeadlineCancelsCooperativelyAsTimedOut)
{
    expectDeadlineTimesOut(1);
}

TEST(SupervisedRunnerTest, DeadlineCancelsAHierJobAsTimedOut)
{
    expectDeadlineTimesOut(2);
}

// ---------------------------------------------------------------- //
// The journal: bit-exact round trips and crash-consistent resume.

TEST(JournalTest, RecordsRoundTripBitExact)
{
    CampaignSpec spec = smallSpec(0x55, 250, 2);
    CampaignReport report = CampaignRunner(1).run(spec);
    for (const CampaignResult &r : report.results) {
        std::string line = encodeJournalRecord(r);
        std::optional<CampaignResult> back = decodeJournalRecord(line);
        ASSERT_TRUE(back.has_value());
        // Re-encoding the decoded record proves every field survived.
        EXPECT_EQ(encodeJournalRecord(*back), line);
        EXPECT_EQ(back->job.index, r.job.index);
        EXPECT_EQ(back->job.seed, r.job.seed);
        EXPECT_TRUE(back->bus == r.bus);
        EXPECT_EQ(back->violations, r.violations);
        EXPECT_EQ(back->faultReport, r.faultReport);
    }

    // A rebuilt report renders the same bytes as the live one.
    CampaignReport rebuilt = report;
    for (CampaignResult &r : rebuilt.results)
        r = *decodeJournalRecord(encodeJournalRecord(r));
    EXPECT_EQ(renderCampaignTable(report),
              renderCampaignTable(rebuilt));
}

/** FNV-1a of every job's encoded record, in job order. */
std::string
recordPins(const CampaignSpec &spec)
{
    std::string pins;
    for (const CampaignResult &r : CampaignRunner(1).run(spec).results) {
        const std::string line = encodeJournalRecord(r);
        std::optional<CampaignResult> back = decodeJournalRecord(line);
        EXPECT_TRUE(back.has_value()) << line;
        if (back) {
            EXPECT_EQ(encodeJournalRecord(*back), line);
        }
        pins += strprintf("%s%016llx", pins.empty() ? "" : " ",
                          static_cast<unsigned long long>(
                              test::fnv1a(line)));
    }
    return pins;
}

// The v5 record bytes themselves, pinned for every job of a faulted
// flat campaign and a faulted 2-cluster campaign.  The flat one mixes
// a Random chooser and a non-caching master into its second lineup,
// and its fault-free jobs speculate, so records carry speculation
// histograms, violation and fault-event strings and metric snapshots.
TEST(JournalTest, RecordBytesArePinned)
{
    CampaignSpec flat = smallSpec(0x9e1, 400, 1);
    flat.base.checkEveryAccess = false;
    flat.base.maxBusRetries = 4;
    flat.base.watchdogRounds = 2;
    flat.base.quarantineOnIntegrity = true;
    flat.base.reintegrateAfterCycles = 1500;
    ProtocolMix mixed;
    mixed.name = "Moesi+Random+io";
    MixSlot moesi;
    moesi.cache = test::smallCache(ProtocolKind::Moesi);
    MixSlot random;
    random.cache = test::smallCache(ProtocolKind::Dragon);
    random.cache.chooser = ChooserKind::Random;
    random.cache.seed = 7;
    MixSlot io;
    io.nonCaching = true;
    io.broadcastWrites = true;
    mixed.slots = {moesi, random, io};
    flat.mixes.push_back(std::move(mixed));
    FaultConfig fc;
    fc.seed = 0x9e1;
    fc.spuriousAbort.probability = 0.05;
    fc.abortStormProb = 0.2;
    fc.abortStormLength = 6;
    fc.memoryDrop.probability = 1.0;
    fc.memoryDrop.windowStart = 100;
    fc.memoryDrop.windowEnd = 140;
    fc.dataFlip.probability = 0.02;
    fc.responseFlip.probability = 0.01;
    fc.snooperMute.probability = 0.01;
    flat.faults = {FaultPoint{}, FaultPoint{"faulted", fc}};

    CampaignSpec hier = smallSpec(0x9e2, 400, 1);
    hier.clusters = 2;
    hier.mixes[0].slots.push_back(hier.mixes[0].slots[0]);
    hier.mixes[0].slots.push_back(hier.mixes[0].slots[1]);
    hier.hier.maxBusRetries = 64;
    hier.hier.watchdogRounds = 4;
    hier.hier.reintegrateAfterCycles = 3000;
    hier.hier.scrubEveryAccesses = 256;
    FaultConfig hc;
    hc.seed = 0x9e2;
    hc.spuriousAbort.probability = 0.03;
    hc.memoryDelay.probability = 0.02;
    hc.bridgeDrop.probability = 0.02;
    hc.bridgeDelay.probability = 0.02;
    hc.bridgeDup.probability = 0.01;
    hc.filterStale.probability = 0.05;
    hc.leafStall.probability = 1.0;
    hc.leafStall.windowStart = 200;
    hc.leafStall.windowEnd = 260;
    FaultConfig flips = hc;
    flips.dataFlip.probability = 0.03;
    hier.faults = {FaultPoint{"timing", hc}, FaultPoint{"flips", flips}};

    // The shapes the pin relies on actually occur.
    CampaignReport flatRun = CampaignRunner(1).run(flat);
    std::uint64_t batches = 0, events = 0;
    for (const CampaignResult &r : flatRun.results) {
        batches += r.speculation.batchLen.data().count;
        events += r.faultEvents.size();
        EXPECT_FALSE(r.metrics.empty());
    }
    EXPECT_GT(batches, 0u);
    EXPECT_GT(events, 0u);

    EXPECT_EQ(recordPins(flat), "c28e7ed9c4737b6c 62de9565e793b2bd "
                                "ff4a912ecb90f881 f9b83ce8954527a3");
    EXPECT_EQ(recordPins(hier), "34da72fa82e3d946 5c4dfde1b061ce08");
}

TEST(JournalTest, KillAndResumeMergesByteIdentically)
{
    const std::string path =
        testing::TempDir() + "fbsim_resume_test.journal";
    std::remove(path.c_str());

    CampaignSpec spec = smallSpec(0x66, 250, 4);
    std::string baseline =
        renderCampaignTable(CampaignRunner(1).run(spec));

    // Journaled, uninterrupted run: journaling changes nothing.
    SupervisorOptions sup;
    sup.journalPath = path;
    EXPECT_EQ(baseline,
              renderCampaignTable(CampaignRunner(2, sup).run(spec)));

    // Simulate kill -9 after two checkpoints: keep the header and two
    // records, then a torn half-record with no newline.
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 3u);
    {
        std::ofstream out(path, std::ios::trunc);
        out << lines[0] << '\n' << lines[1] << '\n' << lines[2] << '\n';
        out << lines[3].substr(0, lines[3].size() / 2);   // torn
    }

    // A torn tail is what a kill leaves: not counted as dropped, so no
    // warning.
    EXPECT_EQ(loadCampaignJournal(path, campaignFingerprint(spec)).dropped,
              0u);

    // Resume: the two surviving jobs merge verbatim, the rest re-run,
    // and the merged table is byte-identical at any worker count.
    sup.resume = true;
    testing::internal::CaptureStderr();
    EXPECT_EQ(baseline,
              renderCampaignTable(CampaignRunner(3, sup).run(spec)));
    EXPECT_EQ(testing::internal::GetCapturedStderr().find("dropped"),
              std::string::npos);
    // A second resume finds everything done and still agrees.
    EXPECT_EQ(baseline,
              renderCampaignTable(CampaignRunner(1, sup).run(spec)));
    std::remove(path.c_str());
}

// A resume after a kill appends behind the torn tail, not onto it: a
// second resume finds every record intact and warns of nothing.
TEST(JournalTest, ResumeCutsTheTornTailBeforeAppending)
{
    const std::string path =
        testing::TempDir() + "fbsim_torn_append_test.journal";
    std::remove(path.c_str());
    CampaignSpec spec = smallSpec(0x69, 200, 4);
    SupervisorOptions sup;
    sup.journalPath = path;
    const std::string baseline =
        renderCampaignTable(CampaignRunner(1, sup).run(spec));
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 1 + spec.numJobs());
    {
        std::ofstream out(path, std::ios::trunc);
        out << lines[0] << '\n' << lines[1] << '\n';
        out << lines[2].substr(0, lines[2].size() / 2);   // torn
    }
    sup.resume = true;
    EXPECT_EQ(baseline,
              renderCampaignTable(CampaignRunner(1, sup).run(spec)));
    JournalContents journal =
        loadCampaignJournal(path, campaignFingerprint(spec));
    EXPECT_EQ(journal.dropped, 0u);
    EXPECT_EQ(journal.results.size(), spec.numJobs());
    std::remove(path.c_str());
}

// A kill during the very first write leaves only an unterminated
// prefix of the header: whatever byte the kill hit, a resume starts
// afresh and prints the uninterrupted table.
TEST(JournalTest, TornHeaderResumesAfresh)
{
    const std::string path =
        testing::TempDir() + "fbsim_torn_header_test.journal";
    std::remove(path.c_str());
    CampaignSpec spec = smallSpec(0x6b, 150, 2);
    const std::uint64_t fp = campaignFingerprint(spec);
    const std::string baseline =
        renderCampaignTable(CampaignRunner(1).run(spec));
    std::string header;
    {
        CampaignJournal journal(path, fp, spec.numJobs());
        std::ifstream in(path);
        std::getline(in, header);
    }
    ASSERT_FALSE(header.empty());
    SupervisorOptions sup;
    sup.journalPath = path;
    sup.resume = true;
    for (std::size_t cut = 0; cut <= header.size(); ++cut) {
        {
            std::ofstream out(path, std::ios::trunc);
            out << header.substr(0, cut);
        }
        EXPECT_TRUE(loadCampaignJournal(path, fp).results.empty())
            << "cut at " << cut;
        EXPECT_EQ(baseline,
                  renderCampaignTable(CampaignRunner(1, sup).run(spec)))
            << "cut at " << cut;
        // The resumed run journaled every job behind a whole header.
        JournalContents journal = loadCampaignJournal(path, fp);
        EXPECT_EQ(journal.results.size(), spec.numJobs())
            << "cut at " << cut;
        EXPECT_EQ(journal.dropped, 0u) << "cut at " << cut;
    }
    // Another campaign's header stays foreign, torn or not.
    {
        std::ofstream out(path, std::ios::trunc);
        out << header;
    }
    const std::uint64_t other = campaignFingerprint(smallSpec(0x6c, 150, 2));
    EXPECT_EXIT(loadCampaignJournal(path, other),
                ::testing::ExitedWithCode(1), "fingerprint");
    std::remove(path.c_str());
}

TEST(JournalTest, LoaderDropsGarbageAndTornRecords)
{
    const std::string path =
        testing::TempDir() + "fbsim_torn_test.journal";
    std::remove(path.c_str());

    CampaignSpec spec = smallSpec(0x77, 200, 2);
    const std::uint64_t fp = campaignFingerprint(spec);
    CampaignReport report = CampaignRunner(1).run(spec);
    {
        CampaignJournal journal(path, fp, spec.numJobs());
        journal.append(report.results[0]);
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "job 1 this is not a record end\n";
        out << encodeJournalRecord(report.results[1]).substr(0, 40);
    }
    JournalContents journal = loadCampaignJournal(path, fp);
    const std::vector<CampaignResult> &loaded = journal.results;
    ASSERT_EQ(loaded.size(), 1u);
    // The garbage line was complete, so it counts; the torn tail does
    // not.
    EXPECT_EQ(journal.dropped, 1u);
    EXPECT_EQ(loaded[0].job.index, 0u);
    EXPECT_EQ(encodeJournalRecord(loaded[0]),
              encodeJournalRecord(report.results[0]));
    std::remove(path.c_str());
}

// A record corrupted at rest must never decode: not as itself, and not
// as a different valid result (a changed job index would even overwrite
// another job on resume).  Every one-digit mutant of every record fails
// its checksum.
TEST(JournalTest, EveryOneDigitMutantFailsToDecode)
{
    CampaignSpec spec = smallSpec(0x5a, 200, 2);
    CampaignReport report = CampaignRunner(1).run(spec);
    for (const CampaignResult &r : report.results) {
        const std::string line = encodeJournalRecord(r);
        ASSERT_TRUE(decodeJournalRecord(line).has_value());
        std::size_t mutants = 0;
        for (std::size_t i = 0; i < line.size(); ++i) {
            if (line[i] < '0' || line[i] > '9')
                continue;
            for (char d = '0'; d <= '9'; ++d) {
                if (d == line[i])
                    continue;
                std::string bad = line;
                bad[i] = d;
                EXPECT_FALSE(decodeJournalRecord(bad).has_value())
                    << "digit " << i << " -> " << d;
                ++mutants;
            }
        }
        EXPECT_GT(mutants, 900u);
    }
}

// A complete journal with one corrupted record: the record is dropped,
// its job re-runs, and the resumed table is the uninterrupted one.
TEST(JournalTest, CorruptedRecordReRunsOnResume)
{
    const std::string path =
        testing::TempDir() + "fbsim_corrupt_test.journal";
    std::remove(path.c_str());

    CampaignSpec spec = smallSpec(0x67, 250, 4);
    SupervisorOptions sup;
    sup.journalPath = path;
    const std::string baseline =
        renderCampaignTable(CampaignRunner(2, sup).run(spec));

    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 1 + spec.numJobs());
    // Change the first digit of the first record's ninth token (the
    // job's elapsed cycles): unchecked, it would merge as a different
    // table row.
    std::size_t at = 0;
    for (int token = 0; token < 8; ++token)
        at = lines[1].find(' ', at) + 1;
    char &digit = lines[1][at];
    ASSERT_TRUE(digit >= '0' && digit <= '9');
    digit = static_cast<char>('0' + (digit - '0' + 1) % 10);
    {
        std::ofstream out(path, std::ios::trunc);
        for (const std::string &line : lines)
            out << line << '\n';
    }
    JournalContents journal =
        loadCampaignJournal(path, campaignFingerprint(spec));
    EXPECT_EQ(journal.results.size(), spec.numJobs() - 1);
    EXPECT_EQ(journal.dropped, 1u);

    // The resume says what it dropped, once.
    sup.resume = true;
    testing::internal::CaptureStderr();
    EXPECT_EQ(baseline,
              renderCampaignTable(CampaignRunner(4, sup).run(spec)));
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: journal " + path +
                  ": dropped 1 corrupted record(s); their jobs re-run\n");
    std::remove(path.c_str());
}

// A journal written by another format version is named as such, not
// mistaken for another campaign's file.
TEST(JournalTest, OtherVersionIsRejectedByVersion)
{
    const std::string path =
        testing::TempDir() + "fbsim_version_test.journal";
    CampaignSpec spec = smallSpec(0x8a, 200, 2);
    const std::uint64_t fp = campaignFingerprint(spec);
    {
        std::ofstream out(path, std::ios::trunc);
        out << strprintf("fbsim-campaign-journal v4 fp=%016llx jobs=2\n",
                         static_cast<unsigned long long>(fp));
    }
    EXPECT_EXIT(loadCampaignJournal(path, fp),
                ::testing::ExitedWithCode(1), "is a v4 journal");
    auto reopen = [&] { CampaignJournal journal(path, fp, 2); };
    EXPECT_EXIT(reopen(), ::testing::ExitedWithCode(1), "is a v4 journal");
    std::remove(path.c_str());
}

TEST(JournalTest, ForeignJournalIsRejected)
{
    const std::string path =
        testing::TempDir() + "fbsim_foreign_test.journal";
    std::remove(path.c_str());
    CampaignSpec spec = smallSpec(0x88, 200, 2);
    const std::uint64_t fp = campaignFingerprint(spec);
    { CampaignJournal journal(path, fp, spec.numJobs()); }

    // A different spec (different seed) fingerprints differently...
    CampaignSpec other = smallSpec(0x89, 200, 2);
    EXPECT_NE(campaignFingerprint(other), fp);
    // ...and both the loader and the appender refuse the file.
    EXPECT_EXIT(loadCampaignJournal(path, campaignFingerprint(other)),
                ::testing::ExitedWithCode(1), "fingerprint");
    auto reopen = [&] {
        CampaignJournal journal(path, campaignFingerprint(other),
                                other.numJobs());
    };
    EXPECT_EXIT(reopen(), ::testing::ExitedWithCode(1), "fingerprint");
    std::remove(path.c_str());
}

} // namespace
} // namespace fbsim
