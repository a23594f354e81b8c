/**
 * @file
 * Tests of the timed engine on a HierSystem (its tree rule):
 * accounting sanity, determinism, the section 6 scaling property -
 * cluster-local workloads gain aggregate throughput from additional
 * leaf buses, while a single-cluster system is bounded by its one bus
 * - exact pins of the tree rule's timing, the functional access log,
 * and the speculative orderings' fallback to the interleaved loop.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "hier/hier_system.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/workloads.h"

namespace fbsim {
namespace {

CacheSpec
leafCache(std::uint64_t seed)
{
    CacheSpec spec;
    spec.numSets = 32;
    spec.assoc = 2;
    spec.seed = seed;
    return spec;
}

/** A ReadMostlyWorkload shifted into a per-cluster address region. */
class ClusterLocalWorkload : public RefStream
{
  public:
    ClusterLocalWorkload(std::size_t cluster, double p_write,
                         std::uint64_t seed)
        : inner_(32, 8, p_write, seed), base_(0x100000 * (cluster + 1))
    {
    }

    ProcRef
    next() override
    {
        ProcRef r = inner_.next();
        r.addr += base_;
        return r;
    }

  private:
    ReadMostlyWorkload inner_;
    Addr base_;
};

TEST(HierEngineTest, AccountingSanity)
{
    HierConfig cfg;
    HierSystem sys(cfg, 2);
    for (int c = 0; c < 2; ++c) {
        for (int i = 0; i < 2; ++i)
            sys.addCache(c, leafCache(c * 10 + i + 1));
    }
    Arch85Params params;
    auto streams = makeArch85Streams(params, 4, 3);
    std::vector<RefStream *> raw;
    for (auto &s : streams)
        raw.push_back(s.get());
    Engine engine(sys, {});
    EngineResult r = engine.run(raw, 2000);

    ASSERT_EQ(r.procs.size(), 4u);
    for (const ProcTiming &p : r.procs) {
        EXPECT_EQ(p.refs, 2000u);
        EXPECT_GT(p.utilization(), 0.0);
        EXPECT_LE(p.utilization(), 1.0);
    }
    EXPECT_EQ(r.busBusy, sys.rootBus().stats().busyCycles);
    EXPECT_LE(r.busBusy, r.elapsed);
    for (std::size_t c = 0; c < sys.numClusters(); ++c)
        EXPECT_LE(sys.leafBus(c).stats().busyCycles, r.elapsed);
    EXPECT_FALSE(r.cancelled);
    EXPECT_TRUE(sys.checkNow().empty());
    EXPECT_TRUE(sys.violations().empty());
}

TEST(HierEngineTest, ExpiredDeadlineCancelsBeforeTheFirstReference)
{
    HierConfig cfg;
    HierSystem sys(cfg, 2);
    for (int c = 0; c < 2; ++c)
        sys.addCache(c, leafCache(c + 1));
    Arch85Params params;
    auto streams = makeArch85Streams(params, 2, 5);
    std::vector<RefStream *> raw;
    for (auto &s : streams)
        raw.push_back(s.get());
    RunControl control;
    control.hasDeadline = true;
    control.deadline = std::chrono::steady_clock::now();
    control.checkEveryRefs = 1;
    EngineResult r = Engine(sys, {}).run(raw, 1000, &control);
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.procs.size(), 2u);
    for (const ProcTiming &p : r.procs)
        EXPECT_EQ(p.refs, 0u);
    EXPECT_EQ(r.elapsed, 0u);
}

TEST(HierEngineTest, Deterministic)
{
    auto run_once = [] {
        HierConfig cfg;
        HierSystem sys(cfg, 2);
        for (int c = 0; c < 2; ++c)
            for (int i = 0; i < 2; ++i)
                sys.addCache(c, leafCache(c * 10 + i + 1));
        Arch85Params params;
        auto streams = makeArch85Streams(params, 4, 7);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());
        Engine engine(sys, {});
        EngineResult r = engine.run(raw, 1000);
        return std::make_pair(r.elapsed, r.busBusy);
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(HierEngineTest, ClustersScaleLocalSharing)
{
    // 8 processors with write-heavy sharing confined to their own
    // cluster: splitting them over 4 leaf buses must beat piling all
    // of them onto one.
    auto system_power = [](std::size_t clusters) {
        HierConfig cfg;
        HierSystem sys(cfg, clusters);
        std::vector<std::unique_ptr<RefStream>> streams;
        std::vector<RefStream *> raw;
        const std::size_t kProcs = 8;
        for (std::size_t i = 0; i < kProcs; ++i) {
            std::size_t c = i % clusters;
            sys.addCache(c, leafCache(i + 1));
            // Each cluster shares its own 8-line region.
            streams.push_back(
                std::make_unique<ClusterLocalWorkload>(c, 0.4, 50 + i));
            raw.push_back(streams.back().get());
        }
        Engine engine(sys, {});
        EngineResult r = engine.run(raw, 4000);
        EXPECT_TRUE(sys.checkNow().empty());
        return r.systemPower();
    };

    double one = system_power(1);
    double four = system_power(4);
    EXPECT_GT(four, one * 1.5);
}

TEST(HierEngineTest, UniformSharingDoesNotScale)
{
    // All processors hammer the same global region: the root bus (and
    // cross-cluster forwarding) bounds throughput regardless of the
    // cluster count.
    auto system_power = [](std::size_t clusters) {
        HierConfig cfg;
        HierSystem sys(cfg, clusters);
        std::vector<std::unique_ptr<RefStream>> streams;
        std::vector<RefStream *> raw;
        for (std::size_t i = 0; i < 8; ++i) {
            sys.addCache(i % clusters, leafCache(i + 1));
            streams.push_back(std::make_unique<ReadMostlyWorkload>(
                32, 8, 0.4, 60 + i));
            raw.push_back(streams.back().get());
        }
        Engine engine(sys, {});
        EngineResult r = engine.run(raw, 3000);
        EXPECT_TRUE(sys.checkNow().empty());
        return r.systemPower();
    };
    double one = system_power(1);
    double four = system_power(4);
    // Hierarchy adds bridge latency; uniform sharing cannot gain much.
    EXPECT_LT(four, one * 1.3);
}

// ---------------------------------------------------------------- //
// Exact pins of the tree timing rule (recorded before the loop moved
// into the flat engine, which reproduces them byte for byte).

/** The hier fault mix and ladder settings of perfbench's
 *  campaign-faulted workload, with per-access checking. */
void
armCampaignFaults(HierConfig &cfg, std::uint64_t seed)
{
    FaultConfig fc;
    fc.seed = seed;
    fc.spuriousAbort.probability = 0.05;
    fc.abortStormProb = 0.25;
    fc.abortStormLength = 24;
    fc.memoryDelay.probability = 0.02;
    fc.bridgeDrop.probability = 0.02;
    fc.bridgeDelay.probability = 0.02;
    fc.bridgeDup.probability = 0.01;
    fc.filterStale.probability = 0.05;
    fc.leafStall.probability = 1.0;
    fc.leafStall.windowStart = 600;
    fc.leafStall.windowEnd = 680;
    cfg.faults = fc;
    cfg.checkEveryAccess = true;
    cfg.maxBusRetries = 64;
    cfg.watchdogRounds = 4;
    cfg.quarantineAfterTrips = 2;
    cfg.reintegrateAfterCycles = 4000;
    cfg.scrubEveryAccesses = 512;
}

/** Two MOESI-class caches per cluster, then a non-caching master and
 *  a write-through cache in cluster 0. */
std::unique_ptr<HierSystem>
mixedHier(const HierConfig &cfg, std::size_t clusters)
{
    auto sys = std::make_unique<HierSystem>(cfg, clusters);
    const ProtocolKind kinds[] = {ProtocolKind::Moesi,
                                  ProtocolKind::Berkeley,
                                  ProtocolKind::Dragon};
    for (std::size_t i = 0; i < 2 * clusters; ++i) {
        CacheSpec spec = leafCache(i + 1);
        spec.protocol = kinds[i % 3];
        sys->addCache(i % clusters, spec);
    }
    sys->addNonCachingMaster(0, false);
    CacheSpec wt = leafCache(2 * clusters + 1);
    wt.writeThrough = true;
    sys->addCache(0, wt);
    return sys;
}

/** Arch85 streams with campaign-faulted's sharing, one per client. */
struct SharedStreams
{
    SharedStreams(std::size_t procs, std::uint64_t seed)
    {
        Arch85Params params;
        params.pShared = 0.3;
        params.sharedLines = 12;
        owned = makeArch85Streams(params, procs, seed);
        for (auto &s : owned)
            raw.push_back(s.get());
    }

    std::vector<std::unique_ptr<RefStream>> owned;
    std::vector<RefStream *> raw;
};

/** One timed run's EngineResult, every bus's and bridge's stats and
 *  every cache's stats, digested. */
std::uint64_t
timedHierDigest(std::size_t clusters, bool armed, bool cancel,
                EngineResult &r)
{
    HierConfig cfg;
    if (armed)
        armCampaignFaults(cfg, 0xfb51 + clusters);
    auto sys = mixedHier(cfg, clusters);
    SharedStreams streams(sys->numClients(), 40 + clusters);
    std::atomic<bool> stop{true};
    RunControl control;
    control.cancel = &stop;
    control.checkEveryRefs = 100;
    r = Engine(*sys, {}).run(streams.raw, 1500,
                                 cancel ? &control : nullptr);
    test::Digest d;
    d.addResult(r);
    d.addCounters(sys->rootBus().stats());
    for (std::size_t c = 0; c < clusters; ++c) {
        d.addCounters(sys->leafBus(c).stats());
        d.addCounters(sys->bridge(c).stats());
    }
    for (MasterId id = 0; id < sys->numClients(); ++id) {
        if (const SnoopingCache *cache = sys->cacheOf(id))
            d.addCounters(cache->stats());
    }
    return d.value();
}

TEST(HierEngineTest, TimingIsPinned)
{
    struct Case
    {
        std::size_t clusters;
        bool armed;
        bool cancel;
        std::uint64_t digest;
    };
    const Case kCases[] = {
        {2, false, false, 0x6e330243dc772ef4ull},
        {3, false, false, 0x39d5539be77fe7f4ull},
        {4, false, false, 0xcbf1865795f359d9ull},
        {2, true, false, 0x0011f645434680ceull},
        {3, true, false, 0xdc194a5bce8d736eull},
        {4, true, false, 0xd6eca49e6de21a4dull},
        {3, true, true, 0x1ab2354c647e5d41ull},
    };
    std::uint64_t pulls = 0;
    for (const Case &c : kCases) {
        EngineResult r;
        const std::uint64_t got =
            timedHierDigest(c.clusters, c.armed, c.cancel, r);
        EXPECT_EQ(got, c.digest)
            << c.clusters << " clusters, armed " << c.armed
            << ", cancelled " << c.cancel << ": 0x" << std::hex << got;
        EXPECT_EQ(r.cancelled, c.cancel);
        if (c.cancel) {
            std::uint64_t refs = 0;
            for (const ProcTiming &p : r.procs)
                refs += p.refs;
            EXPECT_EQ(refs, 99u);
        }
        if (!c.armed) {
            EXPECT_EQ(r.faultedRefs, 0u);
        }
        pulls += r.quarantines;
    }
    // The armed runs reach the ladder's pull rung.
    EXPECT_GT(pulls, 0u);
}

TEST(HierEngineTest, AccessLogReplaysFunctionally)
{
    auto build = [] {
        HierConfig cfg;
        cfg.checkEveryAccess = true;
        auto sys = std::make_unique<HierSystem>(cfg, 3);
        for (std::size_t i = 0; i < 6; ++i)
            sys->addCache(i % 3, leafCache(i + 1));
        return sys;
    };
    auto timed = build();
    SharedStreams streams(6, 21);
    std::vector<EngineAccess> log;
    EngineConfig ec;
    ec.accessLog = &log;
    Engine(*timed, ec).run(streams.raw, 2000);
    ASSERT_EQ(log.size(), 6u * 2000u);

    // The log replayed in order through the functional layer lands in
    // exactly the timed run's state.
    auto replay = build();
    std::vector<std::uint64_t> seq(6, 0);
    for (const EngineAccess &a : log) {
        if (a.write) {
            replay->write(a.proc, a.addr,
                          Engine::writeValue(a.proc, ++seq[a.proc]));
        } else {
            replay->read(a.proc, a.addr);
        }
    }
    EXPECT_TRUE(replay->rootBus().stats() == timed->rootBus().stats());
    for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_TRUE(replay->leafBus(c).stats() ==
                    timed->leafBus(c).stats());
    }
    for (MasterId id = 0; id < 6; ++id) {
        EXPECT_TRUE(replay->cacheOf(id)->stats() ==
                    timed->cacheOf(id)->stats());
    }
    EXPECT_EQ(replay->violations(), timed->violations());
}

TEST(HierEngineTest, SpeculativeOrderingsRunTheInterleavedLoop)
{
    // Fault-free MOESI leaves: every cache is speculation-eligible and
    // the access path is plain, so only the leaf buses keep Strict and
    // PerLine off the speculative loop.
    auto run = [](EngineOrdering ordering, SpecStats &spec) {
        HierConfig cfg;
        HierSystem sys(cfg, 2);
        for (std::size_t i = 0; i < 4; ++i)
            sys.addCache(i % 2, leafCache(i + 1));
        EXPECT_TRUE(sys.plainAccessPath());
        for (MasterId id = 0; id < 4; ++id)
            EXPECT_TRUE(sys.cacheOf(id)->specEligible());
        SharedStreams streams(4, 9);
        EngineConfig ec;
        ec.ordering = ordering;
        ec.specStats = &spec;
        return Engine(sys, ec).run(streams.raw, 3000);
    };
    SpecStats unused;
    const EngineResult interleaved =
        run(EngineOrdering::Interleaved, unused);
    for (EngineOrdering ordering :
         {EngineOrdering::Strict, EngineOrdering::PerLine}) {
        SpecStats spec;
        EXPECT_TRUE(run(ordering, spec) == interleaved);
        EXPECT_EQ(spec.batches, 0u);
        EXPECT_EQ(spec.specRefs, 0u);
        EXPECT_EQ(spec.rollbacks, 0u);
        EXPECT_EQ(spec.rolledBackRefs, 0u);
        EXPECT_EQ(spec.batchLen.data().count, 0u);
        EXPECT_EQ(spec.rollbackDepth.data().count, 0u);
    }
}

} // namespace
} // namespace fbsim
