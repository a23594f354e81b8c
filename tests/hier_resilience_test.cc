/**
 * @file
 * Hierarchy-hardened resilience: fault injection, the bridge recovery
 * ladder, and crash-consistent hier campaigns.
 *
 * The contracts under test:
 *
 *  - A spurious root-bus abort after a bridge's invalidating
 *    down-forward cannot lose the intervention data: the bridge stays
 *    the line's owner of record (salvage buffer) until a root
 *    transaction actually delivers the line.
 *  - A fault-armed hierarchical campaign (bridge drops, a stalled
 *    leaf, filter corruption) completes with zero checker violations;
 *    every degradation is replay-tagged, the quarantined segment
 *    reintegrates, and filter scrub counts the divergence it repairs.
 *  - Hier campaign reports are byte-identical at any worker count, and
 *    a journaled hier campaign resumes byte-identically after a kill
 *    (the v4 record carries scrubDivergence through the round trip).
 *  - Fault-site streams are name-derived: arming or resolving other
 *    sites never perturbs an existing site's schedule - the property
 *    that makes greedy schedule shrinking sound.
 *  - The shrinker isolates the culprit site, trims windows and thins
 *    scripts while the failure predicate keeps holding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/campaign_journal.h"
#include "campaign/campaign_runner.h"
#include "common/random.h"
#include "fault/shrinker.h"
#include "hier/hier_system.h"
#include "obs/perfetto_sink.h"
#include "test_util.h"
#include "text/report.h"

namespace fbsim {
namespace {

/** Mixed random workload over a HierSystem (mirrors resilience_test's
 *  flat drive()). */
void
drive(HierSystem &sys, std::uint64_t seed, int accesses,
      std::size_t lines, std::size_t words_per_line)
{
    Rng rng(seed);
    std::size_t clients = sys.numClients();
    for (int i = 0; i < accesses; ++i) {
        MasterId who = static_cast<MasterId>(rng.below(clients));
        Addr addr = rng.below(lines * words_per_line) * kWordBytes;
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

/** Two-cluster fabric, two MOESI caches per cluster. */
std::unique_ptr<HierSystem>
twoClusterSystem(const HierConfig &cfg)
{
    auto sys = std::make_unique<HierSystem>(cfg, 2);
    for (std::size_t cluster = 0; cluster < 2; ++cluster) {
        for (std::size_t i = 0; i < 2; ++i) {
            CacheSpec spec = test::smallCache(ProtocolKind::Moesi);
            spec.numSets = 128;
            spec.seed = cluster * 2 + i + 1;
            sys->addCache(cluster, spec);
        }
    }
    return sys;
}

/** Uniform random stream (as in the flat campaign tests). */
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

/**
 * A two-cluster campaign: one four-slot MOESI-class mix (slots
 * round-robin across the clusters), a uniform workload, and - when
 * `armed` - the full timing-fault schedule from the hier-fault recipe:
 * spurious aborts with storms, a memory outage window, bridge
 * drop/delay/dup, stale filter bits and a guaranteed leaf stall, with
 * the quarantine/reintegration/scrub ladder configured to fire.
 */
CampaignSpec
hierSpec(std::uint64_t campaign_seed, std::uint64_t refs, bool armed)
{
    CampaignSpec spec;
    spec.campaignSeed = campaign_seed;
    spec.refsPerProc = refs;
    spec.clusters = 2;

    ProtocolMix mix;
    mix.name = "hier-moesi";
    const ProtocolKind kinds[] = {
        ProtocolKind::Moesi, ProtocolKind::Berkeley,
        ProtocolKind::Moesi, ProtocolKind::Dragon};
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
        MixSlot slot;
        slot.cache = test::smallCache(kinds[i]);
        slot.cache.seed = i + 1;
        mix.slots.push_back(slot);
    }
    spec.mixes.push_back(std::move(mix));

    std::size_t words = spec.base.lineBytes / kWordBytes;
    WorkloadSpec w;
    w.name = "uniform";
    w.make = [words](std::size_t proc, std::size_t,
                     std::uint64_t job_seed) {
        return std::unique_ptr<RefStream>(new UniformStream(
            12, words, Rng::deriveSeed(job_seed, proc)));
    };
    spec.workloads.push_back(std::move(w));

    if (armed) {
        FaultConfig faults;
        faults.seed = 0xfb51;
        faults.spuriousAbort.probability = 0.05;
        faults.abortStormProb = 0.25;
        faults.abortStormLength = 24;
        faults.memoryDelay.probability = 0.02;
        faults.memoryDrop.probability = 1.0;
        faults.memoryDrop.windowStart = 300;
        faults.memoryDrop.windowEnd = 400;
        faults.bridgeDrop.probability = 0.02;
        faults.bridgeDelay.probability = 0.02;
        faults.bridgeDup.probability = 0.01;
        faults.filterStale.probability = 0.05;
        faults.leafStall.probability = 1.0;
        faults.leafStall.windowStart = 600;
        faults.leafStall.windowEnd = 680;
        spec.faults.push_back({"timing", faults});

        spec.hier.maxBusRetries = 64;
        spec.hier.watchdogRounds = 4;
        spec.hier.quarantineAfterTrips = 2;
        spec.hier.reintegrateAfterCycles = 4000;
        spec.hier.scrubEveryAccesses = 512;
    }
    return spec;
}

// ---------------------------------------------------------------- //
// The salvage buffer: aborted root transactions cannot lose a
// cross-cluster intervention.

TEST(HierSalvageTest, AbortAfterRemoteInterventionLosesNothing)
{
    // Regression pin: an invalidating down-forward commits the remote
    // cluster during the root SNOOP phase; before the salvage buffer,
    // a spurious abort drawn after the snoops discarded the captured
    // dirty line (the only copy) and the retry refilled from stale
    // memory - a lost write the checker flagged within ~300
    // transactions of this exact schedule.
    HierConfig cfg;
    cfg.checkEveryAccess = true;
    cfg.maxBusRetries = 64;
    FaultConfig faults;
    faults.seed = 0xfb51;
    faults.spuriousAbort.probability = 0.05;
    faults.abortStormProb = 0.25;
    faults.abortStormLength = 24;
    cfg.faults = faults;

    auto sys = twoClusterSystem(cfg);
    drive(*sys, 0x5a17, 6000, 24, cfg.lineBytes / kWordBytes);

    EXPECT_TRUE(sys->violations().empty());
    EXPECT_TRUE(sys->checkNow().empty());

    BridgeStats bridges;
    for (std::size_t k = 0; k < sys->numClusters(); ++k) {
        bridges.salvagedLines += sys->bridge(k).stats().salvagedLines;
        bridges.salvageServes += sys->bridge(k).stats().salvageServes;
    }
    // The schedule must actually have exercised the recovery path:
    // dirty lines latched on invalidating forwards, and at least one
    // aborted attempt served from the buffer.
    EXPECT_GT(bridges.salvagedLines, 0u);
    EXPECT_GT(bridges.salvageServes, 0u);
}

TEST(HierSalvageTest, FaultFreeRunsNeverServeFromTheBuffer)
{
    // Without injection the root bus never aborts after a bridge's
    // snoop, so lines are latched and released but never served: the
    // salvage path must be invisible to fault-free behavior.
    HierConfig cfg;
    cfg.checkEveryAccess = true;
    auto sys = twoClusterSystem(cfg);
    drive(*sys, 0x5a17, 3000, 24, cfg.lineBytes / kWordBytes);

    EXPECT_TRUE(sys->violations().empty());
    EXPECT_TRUE(sys->checkNow().empty());
    for (std::size_t k = 0; k < sys->numClusters(); ++k)
        EXPECT_EQ(sys->bridge(k).stats().salvageServes, 0u);
}

// ---------------------------------------------------------------- //
// The fault-armed hier campaign: zero violations, full ladder.

TEST(HierCampaignTest, FaultArmedCampaignRecoversEverything)
{
    CampaignSpec spec = hierSpec(0xa1, 2500, true);
    CampaignReport report = CampaignRunner(1).run(spec);
    ASSERT_EQ(report.results.size(), 1u);
    const CampaignResult &r = report.results[0];

    // Every injected fault recovered: the campaign ends consistent.
    EXPECT_TRUE(r.consistent) << (r.violations.empty()
                                      ? "inconsistent"
                                      : r.violations.front());
    EXPECT_GT(r.faults.injected(), 0u);

    // The ladder actually ran: the stalled leaf walked retry ->
    // bridge watchdog -> segment quarantine -> scheduled rejoin, and
    // the scrub counted the stale filter bits it repaired.
    EXPECT_GT(r.watchdogTrips, 0u);
    EXPECT_GT(r.quarantines, 0u);
    EXPECT_GT(r.reintegrations, 0u);
    EXPECT_GT(r.scrubDivergence, 0u);

    // Every degradation carries the replay tag, and the report names
    // the hier ladder counters.
    expectAllAnnotated(r.faultEvents);
    EXPECT_NE(r.faultReport.find("clusters"), std::string::npos);
    EXPECT_NE(r.faultReport.find("salvage serves"), std::string::npos);
    EXPECT_NE(r.faultReport.find("scrub divergence"),
              std::string::npos);
}

/** Run job 0 of `spec` with a trace attached; its ladder pin. */
std::string
pinFirstJob(const CampaignSpec &spec, CampaignResult &r)
{
    CampaignScratch scratch;
    PerfettoTraceSink sink;
    r = runCampaignJob(spec, expandCampaign(spec).front(), scratch,
                       nullptr, &sink);
    return test::ladderPin(r, sink.render());
}

// Exact pins of the hierarchical ladder.  The first job has the
// campaign-faulted shape: master and bridge watchdog trips charged to
// a segment, a pull on the second trip, a timed rejoin with its filter
// scrub, and the periodic scrub cadence.  The second arms data flips,
// pinning which caches the flip stream picks, also while a segment is
// out.
TEST(HierCampaignTest, LadderIsExact)
{
    CampaignResult r;
    EXPECT_EQ(pinFirstJob(hierSpec(0xa1, 2500, true), r),
              "events 77 f9994f4f4ff980e5 | violations 0 "
              "cbf29ce484222325 | engine 98009 59392 60 73 2 2 0 "
              "f31a5a7b65bc4fcb | ladder 73 2 2 78 | report "
              "db0464c4b811d649 | metrics 0a1681f57cceed2f | trace "
              "73f5e3830c7f89a4");
    EXPECT_GT(r.quarantines, 0u);
    EXPECT_GT(r.reintegrations, 0u);
    EXPECT_GT(r.scrubDivergence, 0u);
}

TEST(HierCampaignTest, DataFlipVictimsAreExact)
{
    CampaignSpec spec = hierSpec(0x53, 2500, true);
    spec.faults[0].faults->dataFlip.probability = 0.05;
    CampaignResult r;
    EXPECT_EQ(pinFirstJob(spec, r),
              "events 576 614c406c2188d5be | violations 399 "
              "df8b3f67a7eed9b4 | engine 97645 60526 63 77 2 2 0 "
              "0a113aa426b95d08 | ladder 77 2 2 120 | report "
              "e0d82636fedda306 | metrics 57fdd99b01259e13 | trace "
              "66c1226360559805");
    // Some flips land while exactly one segment is out, so the pulled
    // segment's caches must not be candidates.
    bool out[2] = {false, false};
    std::size_t flips_with_one_out = 0;
    for (const std::string &e : r.faultEvents) {
        for (std::size_t k = 0; k < 2; ++k) {
            const std::string seg = "leaf segment " + std::to_string(k);
            if (e.rfind("quarantine: " + seg, 0) == 0)
                out[k] = true;
            if (e.rfind("reintegrate: " + seg, 0) == 0)
                out[k] = false;
        }
        if (e.rfind("data flip", 0) == 0 && out[0] != out[1])
            ++flips_with_one_out;
    }
    EXPECT_GT(flips_with_one_out, 0u);
}

TEST(HierCampaignTest, ReportByteIdenticalAcrossWorkerCounts)
{
    CampaignSpec spec = hierSpec(0x7e, 1200, true);
    CampaignReport baseline = CampaignRunner(1).run(spec);
    std::string bytes = renderCampaignTable(baseline);
    for (unsigned workers : {2u, 4u}) {
        CampaignReport report = CampaignRunner(workers).run(spec);
        EXPECT_EQ(bytes, renderCampaignTable(report));
        ASSERT_EQ(report.results.size(), baseline.results.size());
        for (std::size_t i = 0; i < report.results.size(); ++i) {
            const CampaignResult &a = baseline.results[i];
            const CampaignResult &b = report.results[i];
            EXPECT_TRUE(a.bus == b.bus);
            EXPECT_TRUE(a.faults == b.faults);
            EXPECT_EQ(a.violations, b.violations);
            EXPECT_EQ(a.faultEvents, b.faultEvents);
            EXPECT_EQ(a.faultReport, b.faultReport);
            EXPECT_EQ(a.watchdogTrips, b.watchdogTrips);
            EXPECT_EQ(a.quarantines, b.quarantines);
            EXPECT_EQ(a.reintegrations, b.reintegrations);
            EXPECT_EQ(a.scrubDivergence, b.scrubDivergence);
        }
    }
}

TEST(HierCampaignTest, KillAndResumeMergesByteIdentically)
{
    const std::string path =
        testing::TempDir() + "fbsim_hier_resume_test.journal";
    std::remove(path.c_str());

    // Four jobs (workload replicas) so a truncated journal leaves
    // real work to redo; fault-armed so the v4 scrubDivergence field
    // is non-zero and must survive the record round trip for the
    // resumed bytes to match.
    CampaignSpec spec = hierSpec(0x9c, 900, true);
    for (std::size_t rep = 1; rep < 4; ++rep) {
        WorkloadSpec w = spec.workloads[0];
        w.name = "uniform/rep" + std::to_string(rep);
        spec.workloads.push_back(std::move(w));
    }
    CampaignReport full = CampaignRunner(1).run(spec);
    std::string baseline = renderCampaignTable(full);
    bool sawScrub = false;
    for (const CampaignResult &r : full.results)
        sawScrub |= r.scrubDivergence > 0;
    EXPECT_TRUE(sawScrub);

    SupervisorOptions sup;
    sup.journalPath = path;
    EXPECT_EQ(baseline,
              renderCampaignTable(CampaignRunner(2, sup).run(spec)));

    // Simulate kill -9 after two checkpoints: header, two records,
    // then a torn half-record with no newline.
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 4u);
    {
        std::ofstream out(path, std::ios::trunc);
        out << lines[0] << '\n' << lines[1] << '\n' << lines[2] << '\n';
        out << lines[3].substr(0, lines[3].size() / 2);   // torn
    }

    sup.resume = true;
    CampaignReport resumed = CampaignRunner(3, sup).run(spec);
    EXPECT_EQ(baseline, renderCampaignTable(resumed));
    ASSERT_EQ(resumed.results.size(), full.results.size());
    for (std::size_t i = 0; i < resumed.results.size(); ++i) {
        EXPECT_EQ(resumed.results[i].scrubDivergence,
                  full.results[i].scrubDivergence);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// Name-derived site streams: the determinism the shrinker rests on.

TEST(FaultSiteStreamTest, SiteSeedIsAPureFunctionOfSeedAndName)
{
    EXPECT_EQ(FaultInjector::siteSeed(0x2a, "bridge0.drop"),
              FaultInjector::siteSeed(0x2a, "bridge0.drop"));
    EXPECT_NE(FaultInjector::siteSeed(0x2a, "bridge0.drop"),
              FaultInjector::siteSeed(0x2a, "bridge1.drop"));
    EXPECT_NE(FaultInjector::siteSeed(0x2a, "bridge0.drop"),
              FaultInjector::siteSeed(0x2b, "bridge0.drop"));
}

TEST(FaultSiteStreamTest, ArmingAnotherSiteNeverPerturbsASchedule)
{
    // Same seed, same drop schedule; injector `a` also draws from a
    // delay site between every drop draw.  Name-derived streams mean
    // the drop decisions must be identical draw for draw - this
    // independence is what makes greedy per-site shrinking sound.
    FaultConfig both;
    both.seed = 0x2a;
    both.bridgeDrop.probability = 0.3;
    both.bridgeDelay.probability = 0.5;
    FaultConfig only = both;
    only.bridgeDelay.probability = 0.0;

    FaultInjector a(both);
    FaultInjector b(only);
    FaultSite &aDrop = a.site("bridge0.drop");
    FaultSite &aDelay = a.site("bridge0.delay");
    FaultSite &bDrop = b.site("bridge0.drop");
    for (int i = 0; i < 200; ++i) {
        a.beginTransaction();
        b.beginTransaction();
        (void)a.fireBridgeDelay(aDelay);   // interleaved noise
        EXPECT_EQ(a.fireBridgeDrop(aDrop), b.fireBridgeDrop(bDrop));
    }
}

TEST(FaultSiteStreamTest, ResolutionOrderDoesNotShiftSchedules)
{
    FaultConfig cfg;
    cfg.seed = 0x77;
    cfg.bridgeDrop.probability = 0.4;

    FaultInjector a(cfg);
    FaultInjector b(cfg);
    // Resolve in opposite orders; draw from both sites each txn.
    FaultSite &a0 = a.site("bridge0.drop");
    FaultSite &a1 = a.site("bridge1.drop");
    FaultSite &b1 = b.site("bridge1.drop");
    FaultSite &b0 = b.site("bridge0.drop");
    for (int i = 0; i < 200; ++i) {
        a.beginTransaction();
        b.beginTransaction();
        EXPECT_EQ(a.fireBridgeDrop(a0), b.fireBridgeDrop(b0));
        EXPECT_EQ(a.fireBridgeDrop(a1), b.fireBridgeDrop(b1));
    }
}

// ---------------------------------------------------------------- //
// The greedy shrinker.

TEST(ShrinkerTest, IsolatesTheCulpritScriptEntry)
{
    // Noisy schedule, synthetic predicate: the failure needs exactly
    // the dataFlip script entry at transaction 20.
    FaultConfig noisy;
    noisy.seed = 0x2a;
    noisy.spuriousAbort.probability = 0.01;
    noisy.memoryDelay.probability = 0.02;
    noisy.memoryDrop.probability = 1.0;
    noisy.memoryDrop.windowStart = 300;
    noisy.memoryDrop.windowEnd = 500;
    noisy.bridgeDrop.probability = 0.02;
    noisy.filterStale.probability = 0.05;
    noisy.dataFlip.scriptAt = {10, 20, 30};

    auto needsFlipAt20 = [](const FaultConfig &c) {
        return std::find(c.dataFlip.scriptAt.begin(),
                         c.dataFlip.scriptAt.end(),
                         20u) != c.dataFlip.scriptAt.end();
    };
    ShrinkResult result =
        shrinkFaultConfig(noisy, needsFlipAt20, 1000);

    EXPECT_EQ(result.minimal.dataFlip.scriptAt,
              (std::vector<std::uint64_t>{20}));
    EXPECT_FALSE(result.minimal.spuriousAbort.enabled());
    EXPECT_FALSE(result.minimal.memoryDelay.enabled());
    EXPECT_FALSE(result.minimal.memoryDrop.enabled());
    EXPECT_FALSE(result.minimal.bridgeDrop.enabled());
    EXPECT_FALSE(result.minimal.filterStale.enabled());
    EXPECT_EQ(result.sitesDisabled, 5u);
    EXPECT_EQ(result.scriptEntriesDropped, 2u);
    EXPECT_NE(result.tag().find("fault-min"), std::string::npos);
    EXPECT_NE(result.tag().find("flip"), std::string::npos);
}

TEST(ShrinkerTest, BisectsTheWindowAroundTheCulpritTransaction)
{
    FaultConfig noisy;
    noisy.seed = 0x2a;
    noisy.memoryDrop.probability = 1.0;
    noisy.memoryDrop.windowStart = 100;
    noisy.memoryDrop.windowEnd = 900;
    noisy.spuriousAbort.probability = 0.01;

    // Fails iff the drop window still covers transaction 350.
    auto coversTxn350 = [](const FaultConfig &c) {
        return c.memoryDrop.probability > 0.0 &&
               c.memoryDrop.windowStart <= 350 &&
               c.memoryDrop.windowEnd > 350;
    };
    ShrinkResult result = shrinkFaultConfig(noisy, coversTxn350, 1000);

    EXPECT_TRUE(coversTxn350(result.minimal));
    EXPECT_FALSE(result.minimal.spuriousAbort.enabled());
    EXPECT_GT(result.windowTrimmed, 0u);
    // The bisection converges to the single culprit transaction.
    EXPECT_EQ(result.minimal.memoryDrop.windowStart, 350u);
    EXPECT_EQ(result.minimal.memoryDrop.windowEnd, 351u);
}

TEST(ShrinkerTest, SimulationBackedShrinkKeepsOnlyTheCorruptingSite)
{
    // End to end: a hier campaign that fails because of data flips,
    // buried under timing noise.  Re-running the campaign is the
    // predicate; the shrinker must keep dataFlip and discard the
    // recoverable timing sites.
    CampaignSpec probe = hierSpec(0x31, 400, false);
    FaultConfig noisy;
    noisy.seed = 0x31;
    noisy.spuriousAbort.probability = 0.02;
    noisy.memoryDelay.probability = 0.02;
    noisy.bridgeDrop.probability = 0.02;
    noisy.dataFlip.probability = 0.05;

    auto stillFails = [&probe](const FaultConfig &candidate) {
        CampaignSpec attempt = probe;
        attempt.faults = {{"probe", candidate}};
        return !CampaignRunner(1).run(attempt).allConsistent();
    };
    ASSERT_TRUE(stillFails(noisy));

    ShrinkResult result =
        shrinkFaultConfig(noisy, stillFails, 2000, 64);
    EXPECT_TRUE(result.minimal.dataFlip.enabled());
    EXPECT_FALSE(result.minimal.spuriousAbort.enabled());
    EXPECT_FALSE(result.minimal.memoryDelay.enabled());
    EXPECT_FALSE(result.minimal.bridgeDrop.enabled());
    EXPECT_TRUE(stillFails(result.minimal));
}

// ---------------------------------------------------------------- //
// Quarantine / rejoin audit deltas and scrub convergence.

TEST(HierQuarantineTest, RejoinRestoresExactFilterState)
{
    HierConfig cfg;
    cfg.checkEveryAccess = true;
    // Arm a harmless site so the quarantine machinery is live, and
    // disable the automatic ladder: this test drives it by hand.
    FaultConfig faults;
    faults.seed = 0x42;
    faults.memoryDelay.probability = 0.001;
    cfg.faults = faults;
    cfg.watchdogRounds = 1000000;

    auto sys = twoClusterSystem(cfg);
    std::size_t words = cfg.lineBytes / kWordBytes;
    drive(*sys, 0xaa, 1500, 24, words);

    ASSERT_TRUE(sys->quarantineCluster(0));
    EXPECT_TRUE(sys->clusterQuarantined(0));
    EXPECT_EQ(sys->quarantineCount(), 1u);
    // The quarantine flush drains owned data; the image stays clean
    // while the surviving cluster keeps working.
    EXPECT_TRUE(sys->checkNow().empty());
    drive(*sys, 0xbb, 1000, 24, words);
    EXPECT_TRUE(sys->violations().empty());

    ASSERT_TRUE(sys->reintegrateCluster(0));
    EXPECT_FALSE(sys->clusterQuarantined(0));
    EXPECT_EQ(sys->reintegrationCount(), 1u);
    // Rejoin scrubbed the rejoining bridge to the exact recomputed
    // presence sets; the peer bridge may still hold stale (safe
    // direction) entries for lines the flush drained.  One
    // fabric-wide scrub repairs those, after which the audit is
    // clean - the rejoined bridge contributes no divergence.
    (void)sys->scrubFilters();
    EXPECT_EQ(sys->scrubFilters(), 0u);

    drive(*sys, 0xcc, 1500, 24, words);
    EXPECT_TRUE(sys->violations().empty());
    EXPECT_TRUE(sys->checkNow().empty());
}

TEST(HierScrubTest, ScrubConvergesInjectedFilterDivergence)
{
    HierConfig cfg;
    cfg.checkEveryAccess = true;
    // Every scheduled filter erase is skipped: stale presence bits
    // accumulate in the safe (conservative) direction only.
    FaultConfig faults;
    faults.seed = 0x55;
    faults.filterStale.probability = 1.0;
    cfg.faults = faults;

    // Tiny caches over a larger working set: constant evictions are
    // silent, so localHeld decays even fault-free, and the armed
    // filterStale site suppresses every erase that was scheduled.
    auto sys = std::make_unique<HierSystem>(cfg, 2);
    for (std::size_t cluster = 0; cluster < 2; ++cluster) {
        for (std::size_t i = 0; i < 2; ++i) {
            CacheSpec spec = test::smallCache(ProtocolKind::Moesi);
            spec.seed = cluster * 2 + i + 1;
            sys->addCache(cluster, spec);
        }
    }
    drive(*sys, 0xdd, 3000, 24, cfg.lineBytes / kWordBytes);

    // Stale bits cost forwards, never correctness.
    EXPECT_TRUE(sys->violations().empty());
    EXPECT_TRUE(sys->checkNow().empty());

    std::uint64_t first = sys->scrubFilters();
    EXPECT_GT(first, 0u);
    // Convergence: a second scrub with no intervening traffic finds
    // nothing left to repair.
    EXPECT_EQ(sys->scrubFilters(), 0u);
    EXPECT_EQ(sys->scrubDivergence(), first);

    BridgeStats bridges;
    for (std::size_t k = 0; k < sys->numClusters(); ++k)
        bridges.scrubbedEntries += sys->bridge(k).stats().scrubbedEntries;
    EXPECT_EQ(bridges.scrubbedEntries, first);
}

} // namespace
} // namespace fbsim
