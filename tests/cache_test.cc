/**
 * @file
 * Tests of the cache substrate: geometry arithmetic, replacement
 * policies, the set-associative tag store and its epoch-based bulk
 * invalidation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/geometry.h"
#include "cache/line_store.h"
#include "cache/replacement.h"
#include "cache/tag_store.h"
#include "sim/system.h"
#include "test_util.h"

namespace fbsim {
namespace {

TEST(GeometryTest, AddressArithmetic)
{
    CacheGeometry g{32, 8, 2};
    EXPECT_EQ(g.wordsPerLine(), 4u);
    EXPECT_EQ(g.capacityBytes(), 32u * 8 * 2);
    EXPECT_EQ(g.lineOf(0), 0u);
    EXPECT_EQ(g.lineOf(31), 0u);
    EXPECT_EQ(g.lineOf(32), 1u);
    EXPECT_EQ(g.lineBase(3), 96u);
    EXPECT_EQ(g.wordIndex(0), 0u);
    EXPECT_EQ(g.wordIndex(8), 1u);
    EXPECT_EQ(g.wordIndex(33), 0u);
    EXPECT_EQ(g.wordIndex(56), 3u);
    EXPECT_EQ(g.setOf(7), 7u);
    EXPECT_EQ(g.setOf(8), 0u);
}

class ReplacementTest
    : public ::testing::TestWithParam<ReplacementKind>
{
};

TEST_P(ReplacementTest, VictimIsAValidWay)
{
    auto policy = makeReplacementPolicy(GetParam(), 4, 4, 99);
    for (std::size_t set = 0; set < 4; ++set) {
        for (std::size_t w = 0; w < 4; ++w)
            policy->onFill(set, w);
        for (int i = 0; i < 50; ++i)
            EXPECT_LT(policy->victim(set), 4u);
    }
}

TEST_P(ReplacementTest, NameMatchesKind)
{
    auto policy = makeReplacementPolicy(GetParam(), 2, 2, 1);
    EXPECT_EQ(policy->name(), replacementKindName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ReplacementTest,
    ::testing::Values(ReplacementKind::LRU, ReplacementKind::FIFO,
                      ReplacementKind::Random, ReplacementKind::PLRU),
    [](const ::testing::TestParamInfo<ReplacementKind> &info) {
        return std::string(replacementKindName(info.param));
    });

TEST(ReplacementTest, LruEvictsLeastRecentlyUsed)
{
    auto lru = makeReplacementPolicy(ReplacementKind::LRU, 1, 4, 1);
    for (std::size_t w = 0; w < 4; ++w)
        lru->onFill(0, w);
    lru->onAccess(0, 0);   // order now: 1 (oldest), 2, 3, 0
    EXPECT_EQ(lru->victim(0), 1u);
    lru->onAccess(0, 1);
    EXPECT_EQ(lru->victim(0), 2u);
}

TEST(ReplacementTest, FifoIgnoresAccesses)
{
    auto fifo = makeReplacementPolicy(ReplacementKind::FIFO, 1, 3, 1);
    for (std::size_t w = 0; w < 3; ++w)
        fifo->onFill(0, w);
    fifo->onAccess(0, 0);
    fifo->onAccess(0, 0);
    // Way 0 was filled first; accesses don't save it.
    EXPECT_EQ(fifo->victim(0), 0u);
    fifo->onFill(0, 0);
    EXPECT_EQ(fifo->victim(0), 1u);
}

TEST(ReplacementTest, LruNearReplacementIsTheColdHalf)
{
    auto lru = makeReplacementPolicy(ReplacementKind::LRU, 1, 4, 1);
    for (std::size_t w = 0; w < 4; ++w)
        lru->onFill(0, w);
    // Recency order 0,1,2,3 (3 hottest): 0 and 1 are the cold half.
    EXPECT_TRUE(lru->isNearReplacement(0, 0));
    EXPECT_TRUE(lru->isNearReplacement(0, 1));
    EXPECT_FALSE(lru->isNearReplacement(0, 2));
    EXPECT_FALSE(lru->isNearReplacement(0, 3));
}

TEST(ReplacementTest, PlruVictimAvoidsRecentWay)
{
    auto plru = makeReplacementPolicy(ReplacementKind::PLRU, 1, 4, 1);
    for (std::size_t w = 0; w < 4; ++w)
        plru->onFill(0, w);
    plru->onAccess(0, 2);
    EXPECT_NE(plru->victim(0), 2u);
}

TEST(TagStoreTest, FindAfterInstall)
{
    TagStore tags({32, 4, 2}, ReplacementKind::LRU, 1);
    EXPECT_EQ(tags.find(5), nullptr);
    CacheLine &line = tags.victimFor(5);
    tags.install(line, 5, State::E);
    CacheLine *found = tags.find(5);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->addr, 5u);
    EXPECT_EQ(found->state, State::E);
    EXPECT_EQ(found->data.size(), 4u);
}

TEST(TagStoreTest, InvalidWaysArePreferredVictims)
{
    TagStore tags({32, 1, 4}, ReplacementKind::LRU, 1);
    // Fill two of four ways.
    for (LineAddr la = 0; la < 2; ++la) {
        CacheLine &line = tags.victimFor(la);
        tags.install(line, la, State::S);
    }
    // The victim for a new line must be an (unused) invalid way, not
    // one of the valid lines.
    CacheLine &v = tags.victimFor(7);
    EXPECT_FALSE(v.valid());
}

TEST(TagStoreTest, SetConflictEvictsWithinTheSet)
{
    TagStore tags({32, 4, 1}, ReplacementKind::LRU, 1);
    // Lines 0 and 4 collide in set 0 of a 4-set direct-mapped store.
    CacheLine &a = tags.victimFor(0);
    tags.install(a, 0, State::S);
    CacheLine &b = tags.victimFor(4);
    EXPECT_EQ(&a, &b);
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(b.addr, 0u);
}

TEST(TagStoreTest, ValidLineCountAndIteration)
{
    TagStore tags({32, 4, 2}, ReplacementKind::LRU, 1);
    for (LineAddr la = 0; la < 5; ++la) {
        CacheLine &line = tags.victimFor(la);
        tags.install(line, la, State::S);
    }
    EXPECT_EQ(tags.validLineCount(), 5u);
    std::size_t seen = 0;
    tags.forEachValidLine([&](const CacheLine &line) {
        ++seen;
        EXPECT_TRUE(line.valid());
    });
    EXPECT_EQ(seen, 5u);
}

TEST(TagStoreTest, InvalidatedLinesDropOutOfLookup)
{
    TagStore tags({32, 4, 2}, ReplacementKind::LRU, 1);
    CacheLine &line = tags.victimFor(9);
    tags.install(line, 9, State::M);
    tags.setState(*tags.find(9), State::I);
    EXPECT_EQ(tags.find(9), nullptr);
    EXPECT_EQ(tags.validLineCount(), 0u);
}

// ---------------------------------------------------------------- //
// Epoch-based bulk invalidation.

/** PlainLineStore forced onto the generic per-line walk, as the
 *  equivalence reference for the O(1) epoch path. */
class WalkInvalidateStore : public PlainLineStore
{
  public:
    using PlainLineStore::PlainLineStore;
    void bulkInvalidate() override { LineStore::bulkInvalidate(); }
};

TEST(LineStoreTest, EpochInvalidationMatchesPerLineWalk)
{
    CacheGeometry geom;
    geom.lineBytes = 32;
    geom.numSets = 8;
    geom.assoc = 2;

    PlainLineStore epoch_store(geom, ReplacementKind::LRU, 1);
    WalkInvalidateStore walk_store(geom, ReplacementKind::LRU, 1);

    std::vector<LineAddr> lines;
    for (LineAddr la = 0; la < 12; ++la)
        lines.push_back(la * 3 + 1);
    for (LineAddr la : lines) {
        epoch_store.install(la, State::S);
        walk_store.install(la, State::S);
        epoch_store.setState(*epoch_store.find(la), State::M);
        walk_store.setState(*walk_store.find(la), State::M);
    }
    ASSERT_EQ(epoch_store.validLineCount(), walk_store.validLineCount());
    std::uint32_t epoch_before = epoch_store.tags().epoch();

    epoch_store.bulkInvalidate();
    walk_store.bulkInvalidate();

    // The epoch path must be observably identical to the walk: every
    // line gone, none findable, count zero...
    EXPECT_EQ(epoch_store.validLineCount(), 0u);
    EXPECT_EQ(walk_store.validLineCount(), 0u);
    for (LineAddr la : lines) {
        EXPECT_EQ(epoch_store.stateOf(la), State::I);
        EXPECT_EQ(walk_store.stateOf(la), State::I);
        EXPECT_EQ(epoch_store.find(la), nullptr);
        EXPECT_EQ(walk_store.find(la), nullptr);
    }
    // ...while doing its work with one counter bump instead of a walk.
    EXPECT_EQ(epoch_store.tags().epoch(), epoch_before + 1);

    // Both stores keep working identically afterwards: refills land in
    // repaired frames and are found in the installed state.
    for (LineAddr la : {LineAddr{5}, LineAddr{40}, LineAddr{77}}) {
        epoch_store.install(la, State::E);
        walk_store.install(la, State::E);
        ASSERT_NE(epoch_store.find(la), nullptr);
        ASSERT_NE(walk_store.find(la), nullptr);
        EXPECT_EQ(epoch_store.find(la)->state, State::E);
        EXPECT_EQ(walk_store.find(la)->state, State::E);
    }
    EXPECT_EQ(epoch_store.validLineCount(), walk_store.validLineCount());
}

TEST(LineStoreTest, ReintegrationBumpsEpochOnce)
{
    // System-level proof that hot-swap reintegration rides the O(1)
    // epoch path: one bump, empty store, and the system stays
    // coherent through the cache's cold re-entry.
    System sys{SystemConfig{}};
    for (std::size_t i = 0; i < 2; ++i) {
        CacheSpec spec = test::smallCache();
        spec.numSets = 16;
        spec.seed = i + 1;
        sys.addCache(spec);
    }
    for (int i = 0; i < 200; ++i) {
        sys.write(0, static_cast<Addr>(i) * 8, i + 1);
        sys.read(1, static_cast<Addr>(i) * 8);
    }
    const SnoopingCache *cache = sys.cacheOf(0);
    const auto *plain =
        dynamic_cast<const PlainLineStore *>(&cache->store());
    ASSERT_NE(plain, nullptr);
    std::uint32_t before = plain->tags().epoch();

    ASSERT_TRUE(sys.quarantine(0));
    ASSERT_TRUE(sys.reintegrate(0));
    EXPECT_EQ(cache->store().validLineCount(), 0u);
    EXPECT_EQ(plain->tags().epoch(), before + 1);

    for (int i = 0; i < 200; ++i) {
        sys.write(0, static_cast<Addr>(i) * 8, 1000 + i);
        sys.read(1, static_cast<Addr>(i) * 8);
    }
    EXPECT_TRUE(sys.checkNow().empty());
    EXPECT_TRUE(sys.violations().empty());
}

} // namespace
} // namespace fbsim
