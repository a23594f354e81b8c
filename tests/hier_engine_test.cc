/**
 * @file
 * Tests of the hierarchical timed engine: accounting sanity,
 * determinism, and the section 6 scaling property - cluster-local
 * workloads gain aggregate throughput from additional leaf buses,
 * while a single-cluster system is bounded by its one bus.
 */

#include <gtest/gtest.h>

#include "hier/hier_engine.h"
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
    HierEngine engine(sys, {});
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
    EngineResult r = HierEngine(sys, {}).run(raw, 1000, &control);
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
        HierEngine engine(sys, {});
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
        HierEngine engine(sys, {});
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
        HierEngine engine(sys, {});
        EngineResult r = engine.run(raw, 3000);
        EXPECT_TRUE(sys.checkNow().empty());
        return r.systemPower();
    };
    double one = system_power(1);
    double four = system_power(4);
    // Hierarchy adds bridge latency; uniform sharing cannot gain much.
    EXPECT_LT(four, one * 1.3);
}

} // namespace
} // namespace fbsim
