/**
 * @file
 * Tests of the multi-bus hierarchy (section 6): global consistency
 * across clusters, cross-cluster intervention, and the bridge filters
 * that keep cluster-private traffic off the root bus.
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "hier/hier_system.h"

namespace fbsim {
namespace {

HierConfig
hierConfig(bool check_every = true)
{
    HierConfig cfg;
    cfg.checkEveryAccess = check_every;
    return cfg;
}

CacheSpec
leafCache(ProtocolKind kind = ProtocolKind::Moesi)
{
    CacheSpec spec;
    spec.protocol = kind;
    spec.numSets = 8;
    spec.assoc = 2;
    return spec;
}

TEST(HierTest, FillCrossesToRootMemory)
{
    HierSystem sys(hierConfig(), 2);
    MasterId c0 = sys.addCache(0, leafCache());
    sys.memory().writeWord(4, 0, 77);
    sys.checker().noteWrite(4 * 32, 77);
    EXPECT_EQ(sys.read(c0, 4 * 32).value, 77u);
    EXPECT_EQ(sys.cacheOf(c0)->lineState(4 * 32), State::E);
    EXPECT_EQ(sys.rootBus().stats().reads, 1u);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(HierTest, CrossClusterInterventionSuppliesDirtyData)
{
    HierSystem sys(hierConfig(), 2);
    MasterId c0 = sys.addCache(0, leafCache());
    MasterId c1 = sys.addCache(1, leafCache());

    sys.write(c0, 0x100, 42);
    ASSERT_EQ(sys.cacheOf(c0)->lineState(0x100), State::M);
    // Cluster 1 reads: the request crosses the root, cluster 0's
    // bridge forwards it down, and the owner intervenes across both
    // buses.  Root memory is never updated (Futurebus rule holds
    // hierarchically).
    EXPECT_EQ(sys.read(c1, 0x100).value, 42u);
    EXPECT_EQ(sys.cacheOf(c0)->lineState(0x100), State::O);
    EXPECT_EQ(sys.cacheOf(c1)->lineState(0x100), State::S);
    EXPECT_NE(sys.memory().peekWord(0x100 / 32, 0), 42u);
    EXPECT_GE(sys.bridge(0).stats().remoteInterventions, 1u);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(HierTest, CrossClusterExclusivityViaChRelay)
{
    HierSystem sys(hierConfig(), 2);
    MasterId c0 = sys.addCache(0, leafCache());
    MasterId c1 = sys.addCache(1, leafCache());

    sys.read(c0, 0x200);
    ASSERT_EQ(sys.cacheOf(c0)->lineState(0x200), State::E);
    // The remote holder's CH must cross the bridges: cluster 1 loads
    // S, and cluster 0 demotes to S - E is globally exclusive.
    sys.read(c1, 0x200);
    EXPECT_EQ(sys.cacheOf(c0)->lineState(0x200), State::S);
    EXPECT_EQ(sys.cacheOf(c1)->lineState(0x200), State::S);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(HierTest, CrossClusterInvalidation)
{
    HierSystem sys(hierConfig(), 2);
    MasterId c0 = sys.addCache(0, leafCache());
    MasterId c1 = sys.addCache(1, leafCache());

    sys.read(c0, 0x300);
    sys.read(c1, 0x300);
    sys.write(c1, 0x300, 9);
    // Cluster 1's write (broadcast, but cluster 0 holds S) must keep
    // or kill the remote copy coherently; either way the value reads
    // back correctly everywhere.
    EXPECT_EQ(sys.read(c0, 0x300).value, 9u);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(HierTest, RwitmInvalidatesRemoteCluster)
{
    HierSystem sys(hierConfig(), 2);
    MasterId c0 = sys.addCache(0, leafCache());
    MasterId c1 = sys.addCache(1, leafCache());
    sys.read(c0, 0x400);
    ASSERT_TRUE(isValid(sys.cacheOf(c0)->lineState(0x400)));
    sys.write(c1, 0x400, 5);
    EXPECT_EQ(sys.cacheOf(c0)->lineState(0x400), State::I);
    EXPECT_EQ(sys.cacheOf(c1)->lineState(0x400), State::M);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(HierTest, ClusterPrivateTrafficStaysLocal)
{
    HierSystem sys(hierConfig(false), 2);
    MasterId a = sys.addCache(0, leafCache());
    MasterId b = sys.addCache(0, leafCache());
    sys.addCache(1, leafCache());

    // Warm up: the line enters cluster 0 (one root fill).
    sys.write(a, 0x500, 1);
    std::uint64_t root_before = sys.rootBus().stats().transactions;

    // Intra-cluster dirty sharing: a and b ping-pong the line with
    // invalidating upgrades served entirely by the local owner.
    for (int i = 0; i < 50; ++i) {
        MasterId who = (i % 2 == 0) ? b : a;
        sys.read(who, 0x500);
        sys.write(who, 0x500, 10 + i);
    }
    // The bridge's remoteShared filter keeps all of it off the root.
    EXPECT_EQ(sys.rootBus().stats().transactions, root_before);
    EXPECT_GE(sys.bridge(0).stats().upFiltered, 50u);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(HierTest, RemoteClusterFilteredWhenNotHolding)
{
    HierSystem sys(hierConfig(false), 2);
    MasterId c0 = sys.addCache(0, leafCache());
    sys.addCache(1, leafCache());

    // Cluster 0 misses on many lines; cluster 1 never held them, so
    // its bridge filters every down-forward.
    for (Addr a = 0; a < 8 * 32; a += 32)
        sys.read(c0, a);
    EXPECT_EQ(sys.bridge(1).stats().downForwards, 0u);
    EXPECT_GE(sys.bridge(1).stats().downFiltered, 8u);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(HierTest, SequentialSemanticsAcrossClusters)
{
    HierSystem sys(hierConfig(), 2);
    MasterId ids[4] = {
        sys.addCache(0, leafCache()),
        sys.addCache(0, leafCache()),
        sys.addCache(1, leafCache()),
        sys.addCache(1, leafCache()),
    };
    Addr a = 0x800;
    for (int i = 0; i < 40; ++i) {
        MasterId writer = ids[i % 4];
        MasterId reader = ids[(i + 2) % 4];   // opposite cluster
        sys.write(writer, a, 200 + i);
        EXPECT_EQ(sys.read(reader, a).value,
                  static_cast<Word>(200 + i));
    }
    EXPECT_TRUE(sys.violations().empty());
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(HierTest, PushesReachRootMemory)
{
    HierSystem sys(hierConfig(), 2);
    MasterId c0 = sys.addCache(0, leafCache());
    sys.write(c0, 0x900, 3);
    sys.flush(c0, 0x900, false);
    EXPECT_EQ(sys.memory().peekWord(0x900 / 32, 0), 3u);
    EXPECT_EQ(sys.cacheOf(c0)->lineState(0x900), State::I);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(HierTest, WriteThroughAndNonCachingInClusters)
{
    HierSystem sys(hierConfig(), 2);
    MasterId cb = sys.addCache(0, leafCache());
    CacheSpec wt = leafCache();
    wt.writeThrough = true;
    MasterId wtid = sys.addCache(1, wt);
    MasterId io = sys.addNonCachingMaster(1, true);

    sys.write(cb, 0x100, 1);
    EXPECT_EQ(sys.read(wtid, 0x100).value, 1u);
    sys.write(io, 0x100, 2);
    EXPECT_EQ(sys.read(cb, 0x100).value, 2u);
    EXPECT_EQ(sys.read(wtid, 0x100).value, 2u);
    EXPECT_TRUE(sys.checkNow().empty());
}

class HierStressTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(HierStressTest, RandomizedCrossClusterStress)
{
    auto [clusters, seed] = GetParam();
    HierSystem sys(hierConfig(), clusters);
    std::vector<MasterId> ids;
    for (std::size_t c = 0; c < clusters; ++c) {
        ids.push_back(sys.addCache(c, leafCache()));
        ids.push_back(sys.addCache(c, leafCache(
            c % 2 == 0 ? ProtocolKind::Berkeley : ProtocolKind::Dragon)));
    }
    Rng rng(seed);
    for (int i = 0; i < 2500; ++i) {
        MasterId who = ids[rng.below(ids.size())];
        Addr addr = rng.below(24) * 8;   // 6 shared lines
        if (rng.chance(0.35))
            sys.write(who, addr, rng.next());
        else
            sys.read(who, addr);
        if (rng.chance(0.02))
            sys.flush(who, addr, rng.chance(0.5));
    }
    EXPECT_TRUE(sys.violations().empty()) << sys.violations().front();
    EXPECT_TRUE(sys.checkNow().empty()) << sys.checkNow().front();
}

INSTANTIATE_TEST_SUITE_P(
    ClustersAndSeeds, HierStressTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{4}),
                       ::testing::Values(1, 2, 3)),
    [](const auto &info) {
        std::string name = "c";
        name += std::to_string(std::get<0>(info.param));
        name += "_s";
        name += std::to_string(std::get<1>(info.param));
        return name;
    });

} // namespace
} // namespace fbsim
