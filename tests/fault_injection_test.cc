/**
 * @file
 * Fault injection and recovery: the robustness contract is that every
 * injected fault is either *recovered* (the shared memory image stays
 * consistent and execution makes progress) or *detected* (a checker
 * violation, watchdog trip or quarantine carrying the injector's
 * reproduction tag) - never silent.  Campaigns are seed-deterministic:
 * the same FaultConfig replays the identical run.
 *
 * The mixed campaign honours FBSIM_FAULT_SEED (CI runs a seed matrix).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>

#include "campaign/campaign_runner.h"
#include "common/random.h"
#include "sim/engine.h"
#include "test_util.h"
#include "text/report.h"

namespace fbsim {
namespace {

/** A FaultConfig that builds the injector but never fires (its only
 *  enabled site's window is empty). */
FaultConfig
armedButIdle(std::uint64_t seed)
{
    FaultConfig fc;
    fc.seed = seed;
    fc.spuriousAbort.probability = 0.5;
    fc.spuriousAbort.windowEnd = 0;   // [0,0): never
    return fc;
}

/** Drive a mixed random workload (same shape as the property sweeps). */
void
drive(System &sys, std::uint64_t seed, int accesses, std::size_t lines,
      bool with_sync = true)
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
        if (rng.chance(0.01))
            sys.flush(who, addr, rng.chance(0.5));
        if (with_sync && rng.chance(0.005))
            sys.syncLine(who, addr, rng.chance(0.5));
    }
}

/** Every string must carry the injector's reproduction tag. */
void
expectAllAnnotated(const std::vector<std::string> &msgs)
{
    for (const std::string &m : msgs)
        EXPECT_NE(m.find("[fault seed=0x"), std::string::npos) << m;
}

// ---------------------------------------------------------------- //
// Bounded retry + backoff (the abort-push-retry exhaustion path).

TEST(RetryExhaustionTest, StopsAtMaxRetriesAndChargesEveryRound)
{
    SystemConfig cfg = test::testConfig();
    cfg.maxBusRetries = 3;
    cfg.cost.retryBackoffBase = 2;
    cfg.cost.retryBackoffCap = 8;
    FaultConfig fc;
    fc.seed = 7;
    fc.spuriousAbort.probability = 1.0;   // every attempt aborts
    cfg.faults = fc;
    System sys(cfg);
    MasterId id = sys.addCache(test::smallCache());

    AccessOutcome o = sys.read(id, 0x40);
    EXPECT_TRUE(o.faulted);
    EXPECT_TRUE(o.usedBus);

    const BusStats &bs = sys.bus().stats();
    // maxRetries+1 attempts, all aborted, then the transaction gave up.
    EXPECT_EQ(bs.aborts, 4u);
    EXPECT_EQ(bs.spuriousAborts, 4u);
    EXPECT_EQ(bs.retryExhausted, 1u);
    EXPECT_EQ(bs.transactions, 0u);
    // Each round pays address + abort penalty; backoff after round k
    // idles min(2 << (k-1), 8): 2 + 4 + 8 + 8.
    Cycles per_round = cfg.cost.addrCycles + cfg.cost.abortPenalty;
    EXPECT_EQ(bs.backoffCycles, 22u);
    EXPECT_EQ(o.busCycles, 4 * per_round + 22u);

    // Coherent failure: no state anywhere changed, nothing recorded.
    EXPECT_EQ(sys.cacheOf(id)->lineState(0x40), State::I);
    EXPECT_EQ(sys.cacheOf(id)->stats().faultedAccesses, 1u);
    EXPECT_TRUE(sys.violations().empty());
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(RetryExhaustionTest, FaultedWriteLeavesOracleAndImageIntact)
{
    SystemConfig cfg = test::testConfig();
    cfg.maxBusRetries = 2;
    FaultConfig fc;
    fc.seed = 3;
    fc.spuriousAbort.probability = 1.0;
    fc.spuriousAbort.windowEnd = 2;       // txn 1 aborts, then clean
    cfg.faults = fc;
    cfg.watchdogRounds = 100;             // keep the watchdog out of it
    System sys(cfg);
    MasterId id = sys.addCache(test::smallCache());

    AccessOutcome w = sys.write(id, 0x80, 0xabcd);
    EXPECT_TRUE(w.faulted);
    // The write never reached the image, so the oracle must not have
    // advanced: a later (successful) read of fresh memory sees 0.
    AccessOutcome r = sys.read(id, 0x80);
    EXPECT_FALSE(r.faulted);
    EXPECT_EQ(r.value, 0u);
    EXPECT_TRUE(sys.violations().empty());
    EXPECT_TRUE(sys.checkNow().empty());
}

// ---------------------------------------------------------------- //
// Scripted faults: exact, replayable single-fault experiments.

TEST(ScriptedFaultTest, ScriptedAbortRetriesOnceAndRecovers)
{
    SystemConfig cfg = test::testConfig();
    FaultConfig fc;
    fc.seed = 11;
    fc.spuriousAbort.scriptAt = {1};      // first transaction only
    cfg.faults = fc;
    System sys(cfg);
    MasterId id = sys.addCache(test::smallCache());

    AccessOutcome o = sys.read(id, 0x100);
    EXPECT_FALSE(o.faulted);
    EXPECT_EQ(o.value, 0u);
    EXPECT_EQ(sys.bus().stats().aborts, 1u);
    EXPECT_EQ(sys.bus().stats().spuriousAborts, 1u);
    EXPECT_EQ(sys.bus().stats().retryExhausted, 0u);
    EXPECT_EQ(sys.faultInjector()->stats().spuriousAborts, 1u);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(ScriptedFaultTest, AbortStormRecoversWithinRetryBudget)
{
    SystemConfig cfg = test::testConfig();
    FaultConfig fc;
    fc.seed = 5;
    fc.spuriousAbort.scriptAt = {1};
    fc.abortStormProb = 1.0;              // the abort always escalates
    fc.abortStormLength = 4;
    cfg.faults = fc;
    System sys(cfg);
    MasterId id = sys.addCache(test::smallCache());

    AccessOutcome o = sys.read(id, 0x40);
    EXPECT_FALSE(o.faulted);
    // 1 scripted abort + 4 storm follow-ups, then the 6th attempt wins.
    EXPECT_EQ(sys.bus().stats().aborts, 5u);
    EXPECT_EQ(sys.faultInjector()->stats().spuriousAborts, 1u);
    EXPECT_EQ(sys.faultInjector()->stats().stormAborts, 4u);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(ScriptedFaultTest, MemoryDelayChargesExtraCycles)
{
    SystemConfig base = test::testConfig();
    System clean(base);
    MasterId cid = clean.addCache(test::smallCache());
    Cycles normal = clean.read(cid, 0x40).busCycles;

    SystemConfig cfg = test::testConfig();
    FaultConfig fc;
    fc.seed = 13;
    fc.memoryDelay.scriptAt = {1};
    fc.memoryDelayCycles = 32;
    cfg.faults = fc;
    System sys(cfg);
    MasterId id = sys.addCache(test::smallCache());
    AccessOutcome o = sys.read(id, 0x40);
    EXPECT_FALSE(o.faulted);
    EXPECT_EQ(o.busCycles, normal + 32);
    EXPECT_EQ(sys.faultInjector()->stats().memoryDelays, 1u);
}

TEST(ScriptedFaultTest, DroppedResponseRetriesAndRecovers)
{
    SystemConfig cfg = test::testConfig();
    FaultConfig fc;
    fc.seed = 17;
    fc.memoryDrop.scriptAt = {1};
    cfg.faults = fc;
    System sys(cfg);
    MasterId id = sys.addCache(test::smallCache());
    AccessOutcome o = sys.read(id, 0x40);
    EXPECT_FALSE(o.faulted);
    EXPECT_EQ(o.value, 0u);
    EXPECT_EQ(sys.bus().stats().droppedResponses, 1u);
    EXPECT_EQ(sys.bus().stats().aborts, 1u);
    EXPECT_TRUE(sys.checkNow().empty());
}

// ---------------------------------------------------------------- //
// Recoverable-only campaigns: timing faults (aborts, storms, delays,
// drops) must never perturb the shared image, for every protocol
// table in the class and for mixed systems.

class RecoverableCampaignTest
    : public ::testing::TestWithParam<ProtocolKind>
{
};

TEST_P(RecoverableCampaignTest, TimingFaultsNeverBreakCoherence)
{
    SystemConfig cfg = test::testConfig();
    FaultConfig fc;
    fc.seed = 0x5eed;
    fc.spuriousAbort.probability = 0.02;
    fc.abortStormProb = 0.2;
    fc.abortStormLength = 4;
    fc.memoryDelay.probability = 0.01;
    fc.memoryDelayCycles = 16;
    fc.memoryDrop.probability = 0.01;
    cfg.faults = fc;
    System sys(cfg);
    for (int i = 0; i < 3; ++i) {
        CacheSpec spec = test::smallCache(GetParam());
        spec.seed = i + 1;
        sys.addCache(spec);
    }
    drive(sys, 42, 4000, 12);
    EXPECT_GT(sys.faultInjector()->stats().injected(), 0u);
    EXPECT_EQ(sys.faultInjector()->stats().corrupting(), 0u);
    ASSERT_TRUE(sys.violations().empty()) << sys.violations().front();
    std::vector<std::string> v = sys.checkNow();
    ASSERT_TRUE(v.empty()) << v.front();
}

INSTANTIATE_TEST_SUITE_P(AllTables, RecoverableCampaignTest,
                         ::testing::Values(ProtocolKind::Moesi,
                                           ProtocolKind::Berkeley,
                                           ProtocolKind::Dragon,
                                           ProtocolKind::WriteOnce,
                                           ProtocolKind::Illinois,
                                           ProtocolKind::Firefly),
                         [](const auto &info) {
                             std::string name(
                                 protocolKindName(info.param));
                             for (char &c : name) {
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return name;
                         });

// The mix here is deliberately class members only (section 3.4):
// MOESI, Berkeley and Dragon coexist coherently, so any violation is
// attributable to the injected timing faults.  Firefly and Illinois
// are NOT class members - a Firefly broadcast write over a foreign
// owner orphans the line's dirty words even fault-free - so they only
// appear in the detection campaign below, where the checker is the
// oracle rather than a zero-violation assertion.
TEST(RecoverableCampaignTest, MixedSystemStaysCoherent)
{
    SystemConfig cfg = test::testConfig();
    FaultConfig fc;
    fc.seed = 0xf00d;
    fc.spuriousAbort.probability = 0.02;
    fc.memoryDrop.probability = 0.01;
    cfg.faults = fc;
    System sys(cfg);
    sys.addCache(test::smallCache(ProtocolKind::Moesi));
    sys.addCache(test::smallCache(ProtocolKind::Berkeley));
    sys.addCache(test::smallCache(ProtocolKind::Dragon));
    sys.addNonCachingMaster(false);
    drive(sys, 99, 4000, 12);
    EXPECT_GT(sys.faultInjector()->stats().injected(), 0u);
    ASSERT_TRUE(sys.violations().empty()) << sys.violations().front();
    std::vector<std::string> v = sys.checkNow();
    ASSERT_TRUE(v.empty()) << v.front();
}

// ---------------------------------------------------------------- //
// Watchdog + quarantine: livelock is detected, the victim is
// isolated, and the system returns to full coherence afterwards.

TEST(WatchdogTest, TripsOnNoProgressAndQuarantineRestoresService)
{
    SystemConfig cfg = test::testConfig();
    cfg.maxBusRetries = 2;
    cfg.watchdogRounds = 4;
    FaultConfig fc;
    fc.seed = 23;
    fc.spuriousAbort.probability = 1.0;
    fc.spuriousAbort.windowStart = 1;
    fc.spuriousAbort.windowEnd = 30;      // txns 1-29 always abort
    cfg.faults = fc;
    System sys(cfg);
    MasterId a = sys.addCache(test::smallCache());
    MasterId b = sys.addCache(test::smallCache());

    // 29 accesses inside the abort window: all faulted.
    for (int i = 0; i < 29; ++i) {
        AccessOutcome o = sys.write(a, 0x40, 0x1111);
        EXPECT_TRUE(o.faulted);
    }
    EXPECT_EQ(sys.watchdogTrips(), 29u / 4u);
    EXPECT_EQ(sys.quarantineCount(), 1u);
    ASSERT_TRUE(sys.cacheOf(a)->quarantined());
    expectAllAnnotated(sys.faultEvents());

    // Past the window the bus is healthy again; the quarantined master
    // keeps running through its bypass path, coherently.
    AccessOutcome w = sys.write(a, 0x40, 0x2222);
    EXPECT_FALSE(w.faulted);
    EXPECT_EQ(sys.read(b, 0x40).value, 0x2222u);
    EXPECT_EQ(sys.read(a, 0x40).value, 0x2222u);
    EXPECT_TRUE(sys.violations().empty());
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(QuarantineTest, ManualQuarantineWritesBackOwnedLines)
{
    System sys(test::testConfig());
    MasterId a = sys.addCache(test::smallCache());
    MasterId b = sys.addCache(test::smallCache());

    sys.write(a, 0x40, 0xbeef);           // cache a owns the line dirty
    ASSERT_TRUE(isOwned(sys.cacheOf(a)->lineState(0x40)));
    ASSERT_TRUE(sys.quarantine(a));
    EXPECT_FALSE(sys.quarantine(a));      // idempotent
    EXPECT_EQ(sys.quarantineCount(), 1u);
    EXPECT_TRUE(sys.cacheOf(a)->quarantined());
    EXPECT_EQ(sys.cacheOf(a)->lineState(0x40), State::I);

    // The owned line was pushed: memory is the owner and consistent.
    EXPECT_TRUE(sys.checkNow().empty());
    EXPECT_EQ(sys.read(b, 0x40).value, 0xbeefu);
    // The quarantined master still reads/writes coherently (bypass).
    EXPECT_EQ(sys.read(a, 0x40).value, 0xbeefu);
    sys.write(a, 0x40, 0xcafe);
    EXPECT_EQ(sys.read(b, 0x40).value, 0xcafeu);
    EXPECT_TRUE(sys.violations().empty());
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(QuarantineTest, IntegrityCheckQuarantinesCorruptCache)
{
    SystemConfig cfg = test::testConfig();
    cfg.faults = armedButIdle(31);
    cfg.quarantineOnIntegrity = true;
    System sys(cfg);
    MasterId a = sys.addCache(test::smallCache());
    MasterId b = sys.addCache(test::smallCache());
    std::size_t words = cfg.lineBytes / kWordBytes;

    // Both caches share one clean line, then a's copy takes a bit flip.
    for (std::size_t w = 0; w < words; ++w) {
        sys.read(a, 0x40 + w * kWordBytes);
        sys.read(b, 0x40 + w * kWordBytes);
    }
    Rng rng(123);
    ASSERT_TRUE(sys.cacheOf(a)->corruptRandomBit(rng).has_value());

    // Reading the whole line from a must detect the corruption (the
    // value oracle is always on), quarantine a, and keep b intact.
    for (std::size_t w = 0; w < words; ++w)
        sys.read(a, 0x40 + w * kWordBytes);
    EXPECT_EQ(sys.violations().size(), 1u);
    expectAllAnnotated(sys.violations());
    EXPECT_TRUE(sys.cacheOf(a)->quarantined());
    EXPECT_EQ(sys.quarantineCount(), 1u);

    // The corrupt copy was clean (shared), so dropping it recovers
    // fully: every later read is correct and the image is consistent.
    for (std::size_t w = 0; w < words; ++w)
        EXPECT_EQ(sys.read(a, 0x40 + w * kWordBytes).value, 0u);
    EXPECT_EQ(sys.read(b, 0x40).value, 0u);
    EXPECT_TRUE(sys.checkNow().empty());
}

// ---------------------------------------------------------------- //
// The acceptance campaign: every fault site live at once over a mixed
// Berkeley/Illinois/Firefly system, >= 10k accesses.  Every injected
// fault must be recovered or detected - and the whole run must replay
// bit-identically from the seed.  Illinois and Firefly are not class
// members, so this mix can also diverge through protocol
// incompatibility alone; that is fine here - the bar is zero *silent*
// failures, i.e. every divergence surfaces as an annotated checker
// violation or recovery event, never as quiet corruption.

struct MixedRunResult
{
    std::vector<std::string> violations;
    std::vector<std::string> events;
    FaultStats faults;
    BusStats bus;
    std::string report;
    std::uint64_t quarantines = 0;
};

MixedRunResult
runMixedCampaign(std::uint64_t seed, int accesses)
{
    SystemConfig cfg = test::testConfig();
    // Detection-mode campaign: integrity failures are reported (and
    // annotated), not auto-quarantined.  With two non-class-member
    // protocols in the mix, incompatibility alone fails integrity
    // checks, and quarantining every suspect would empty all three
    // caches within the first few hundred accesses - leaving the
    // corrupting fault sites nothing to corrupt for the rest of the
    // run.  Quarantine behavior has its own tests above.
    FaultConfig fc;
    fc.seed = seed;
    fc.spuriousAbort.probability = 0.01;
    fc.abortStormProb = 0.2;
    fc.abortStormLength = 4;
    fc.memoryDelay.probability = 0.005;
    fc.memoryDelayCycles = 16;
    fc.memoryDrop.probability = 0.005;
    fc.dataFlip.probability = 0.002;
    fc.responseFlip.probability = 0.002;
    // Mute draws happen only for snoopers the presence filter lets
    // through (a module that cannot hold the line responds identically
    // muted or not), so the per-access draw count is far below one;
    // a higher probability keeps the expected fire count comfortably
    // positive over the campaign.
    fc.snooperMute.probability = 0.02;
    cfg.faults = fc;
    System sys(cfg);
    sys.addCache(test::smallCache(ProtocolKind::Berkeley));
    sys.addCache(test::smallCache(ProtocolKind::Illinois));
    sys.addCache(test::smallCache(ProtocolKind::Firefly));
    drive(sys, seed ^ 0x9e3779b9, accesses, 12, /*with_sync=*/false);

    MixedRunResult r;
    r.violations = sys.violations();
    // Terminal audit: anything still inconsistent must be *reported*
    // (detected), which the annotation assertions below verify.
    for (std::string &v : sys.checkNow())
        r.violations.push_back(std::move(v));
    r.events = sys.faultEvents();
    r.faults = sys.faultInjector()->stats();
    r.bus = sys.bus().stats();
    r.report = renderFaultReport(sys);
    r.quarantines = sys.quarantineCount();
    return r;
}

TEST(MixedCampaignTest, EveryFaultRecoveredOrDetected)
{
    std::uint64_t seed = 1;
    if (const char *env = std::getenv("FBSIM_FAULT_SEED"))
        seed = std::strtoull(env, nullptr, 0);
    MixedRunResult r = runMixedCampaign(seed, 10000);

    // All six sites actually fired.
    EXPECT_GT(r.faults.spuriousAborts, 0u);
    EXPECT_GT(r.faults.memoryDelays, 0u);
    EXPECT_GT(r.faults.memoryDrops, 0u);
    EXPECT_GT(r.faults.dataFlips, 0u);
    EXPECT_GT(r.faults.responseFlips, 0u);
    EXPECT_GT(r.faults.snooperMutes, 0u);

    // Zero silent failures: every violation and every recovery event
    // names the seed and schedule that reproduce it.
    expectAllAnnotated(r.violations);
    expectAllAnnotated(r.events);
    // Corrupting faults were injected, so detections must exist; a
    // campaign that corrupts state and reports nothing is broken.
    EXPECT_GT(r.violations.size() + r.events.size(), 0u);
    EXPECT_NE(r.report.find("fault campaign"), std::string::npos);
}

TEST(MixedCampaignTest, ReplaysBitIdenticallyFromSeed)
{
    MixedRunResult a = runMixedCampaign(0xdead, 3000);
    MixedRunResult b = runMixedCampaign(0xdead, 3000);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.events, b.events);
    EXPECT_TRUE(a.faults == b.faults);
    EXPECT_TRUE(a.bus == b.bus);
    EXPECT_EQ(a.report, b.report);
    EXPECT_EQ(a.quarantines, b.quarantines);

    // A different seed is a genuinely different campaign.
    MixedRunResult c = runMixedCampaign(0xbeef, 3000);
    EXPECT_NE(c.report, a.report);
}

// ---------------------------------------------------------------- //
// The same acceptance bar through the CampaignRunner: the mixed
// Berkeley/Illinois/Firefly system with every fault site live,
// expressed as a CampaignSpec (EXPERIMENTS.md's fault-campaign
// recipe) and executed engine-driven on the runner's worker pool.
// Each replica job derives its own FaultConfig from the job seed via
// the spec's faultFactory.

/** Uniform random stream over `lines` line-sized blocks, 35% writes
 *  (the engine-driven equivalent of drive() above). */
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

CampaignSpec
mixedFaultSpec(std::uint64_t campaign_seed, std::uint64_t refs_per_proc,
               std::size_t replicas)
{
    CampaignSpec spec;
    spec.campaignSeed = campaign_seed;
    spec.refsPerProc = refs_per_proc;
    spec.base = test::testConfig();

    ProtocolMix mix;
    mix.name = "Berkeley+Illinois+Firefly";
    const ProtocolKind kinds[] = {ProtocolKind::Berkeley,
                                  ProtocolKind::Illinois,
                                  ProtocolKind::Firefly};
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

    // Every site live, per-job seed: the factory is the only way a
    // campaign hands fault state to workers (FaultInjector itself is
    // non-copyable).
    spec.faultFactory = [](std::uint64_t job_seed, std::size_t) {
        FaultConfig fc;
        fc.seed = job_seed;
        fc.spuriousAbort.probability = 0.01;
        fc.abortStormProb = 0.2;
        fc.abortStormLength = 4;
        fc.memoryDelay.probability = 0.005;
        fc.memoryDelayCycles = 16;
        fc.memoryDrop.probability = 0.005;
        fc.dataFlip.probability = 0.002;
        fc.responseFlip.probability = 0.002;
        fc.snooperMute.probability = 0.02;
        return std::optional<FaultConfig>(fc);
    };
    return spec;
}

TEST(CampaignRunnerFaultTest, MixedCampaignEveryFaultRecoveredOrDetected)
{
    std::uint64_t seed = 1;
    if (const char *env = std::getenv("FBSIM_FAULT_SEED"))
        seed = std::strtoull(env, nullptr, 0);
    CampaignSpec spec = mixedFaultSpec(seed, 1200, 4);
    CampaignReport report = CampaignRunner(2).run(spec);
    ASSERT_EQ(report.results.size(), 4u);

    FaultStats total;
    std::size_t annotated_sources = 0;
    for (const CampaignResult &r : report.results) {
        total.spuriousAborts += r.faults.spuriousAborts;
        total.memoryDelays += r.faults.memoryDelays;
        total.memoryDrops += r.faults.memoryDrops;
        total.dataFlips += r.faults.dataFlips;
        total.responseFlips += r.faults.responseFlips;
        total.snooperMutes += r.faults.snooperMutes;
        expectAllAnnotated(r.violations);
        expectAllAnnotated(r.faultEvents);
        annotated_sources += r.violations.size() + r.faultEvents.size();
        EXPECT_NE(r.faultReport.find("fault campaign"),
                  std::string::npos);
    }
    // Across the replicas every site fired, and nothing was silent.
    EXPECT_GT(total.spuriousAborts, 0u);
    EXPECT_GT(total.memoryDelays, 0u);
    EXPECT_GT(total.memoryDrops, 0u);
    EXPECT_GT(total.dataFlips, 0u);
    EXPECT_GT(total.responseFlips, 0u);
    EXPECT_GT(total.snooperMutes, 0u);
    EXPECT_GT(annotated_sources, 0u);
}

TEST(CampaignRunnerFaultTest, WorkerCountDoesNotChangeTheVerdict)
{
    CampaignSpec spec = mixedFaultSpec(0x2a, 800, 3);
    CampaignReport serial = CampaignRunner(1).run(spec);
    CampaignReport threaded = CampaignRunner(4).run(spec);

    ASSERT_EQ(serial.results.size(), threaded.results.size());
    EXPECT_EQ(renderCampaignTable(serial),
              renderCampaignTable(threaded));
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        const CampaignResult &a = serial.results[i];
        const CampaignResult &b = threaded.results[i];
        EXPECT_EQ(a.violations, b.violations) << "job " << i;
        EXPECT_EQ(a.faultEvents, b.faultEvents) << "job " << i;
        EXPECT_TRUE(a.faults == b.faults) << "job " << i;
        EXPECT_TRUE(a.bus == b.bus) << "job " << i;
        EXPECT_EQ(a.faultReport, b.faultReport) << "job " << i;
        EXPECT_EQ(a.consistent, b.consistent) << "job " << i;
    }
}

// ---------------------------------------------------------------- //
// The timed engine surfaces the campaign counters.

TEST(EngineFaultTest, TimedRunReportsFaultOutcomes)
{
    SystemConfig cfg;
    cfg.lineBytes = 32;
    cfg.checkEveryAccess = false;
    cfg.maxBusRetries = 2;
    cfg.watchdogRounds = 4;
    FaultConfig fc;
    fc.seed = 41;
    fc.spuriousAbort.probability = 1.0;
    fc.spuriousAbort.windowStart = 1;
    fc.spuriousAbort.windowEnd = 40;
    cfg.faults = fc;
    System sys(cfg);
    sys.addCache(test::smallCache());
    sys.addCache(test::smallCache());

    // Disjoint lines so every reference wants the bus in the window.
    const std::vector<ProcRef> refs0 = {
        {true, 0x000}, {true, 0x100}, {true, 0x200}};
    const std::vector<ProcRef> refs1 = {
        {true, 0x300}, {true, 0x400}, {true, 0x500}};
    SpanStream s0(refs0), s1(refs1);
    Engine engine(sys, {});
    EngineResult r = engine.run({&s0, &s1}, 60);
    EXPECT_GT(r.faultedRefs, 0u);
    EXPECT_GT(r.watchdogTrips, 0u);
    EXPECT_GT(r.quarantines, 0u);
    EXPECT_EQ(r.watchdogTrips, sys.watchdogTrips());
    // After the fault window everything completed coherently.
    EXPECT_TRUE(sys.checkNow().empty());
    EXPECT_TRUE(sys.violations().empty());
}

} // namespace
} // namespace fbsim
