/**
 * @file
 * Tests of the cache substrate: geometry arithmetic, LRU stamps, the
 * set-associative tag store and its epoch-based bulk invalidation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/geometry.h"
#include "cache/lru_stamps.h"
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

TEST(LruStampsTest, VictimIsTheLeastRecentlyUsedWay)
{
    LruStamps lru(2, 4);
    for (std::size_t w = 0; w < 4; ++w)
        lru.touch(4 + w);   // fill set 1 in way order
    lru.touch(4 + 0);       // order now: 1 (oldest), 2, 3, 0
    EXPECT_EQ(lru.victim(1), 1u);
    lru.touch(4 + 1);
    EXPECT_EQ(lru.victim(1), 2u);
    // Set 0 was never touched: every stamp ties, the lowest way goes.
    EXPECT_EQ(lru.victim(0), 0u);
}

TEST(LruStampsTest, TouchFramesStampsInOrder)
{
    // A batch of deferred touches lands exactly as the same touches
    // one by one would, in frame order (a repeated frame ends hottest
    // at its last position).
    LruStamps batch(1, 4), single(1, 4);
    const std::uint32_t frames[] = {3, 1, 0, 3, 2};
    batch.touchFrames(frames, std::size(frames));
    for (std::uint32_t f : frames)
        single.touch(f);
    for (std::size_t w = 0; w < 4; ++w)
        EXPECT_EQ(batch.nearReplacement(0, w), single.nearReplacement(0, w));
    // Recency order 1, 0, 3, 2 (2 hottest): way 1 is the victim.
    EXPECT_EQ(batch.victim(0), 1u);
    batch.touch(1);
    EXPECT_EQ(batch.victim(0), 0u);
}

TEST(LruStampsTest, NearReplacementIsTheColdHalf)
{
    LruStamps lru(1, 4);
    for (std::size_t w = 0; w < 4; ++w)
        lru.touch(w);
    // Recency order 0,1,2,3 (3 hottest): 0 and 1 are the cold half.
    EXPECT_TRUE(lru.nearReplacement(0, 0));
    EXPECT_TRUE(lru.nearReplacement(0, 1));
    EXPECT_FALSE(lru.nearReplacement(0, 2));
    EXPECT_FALSE(lru.nearReplacement(0, 3));
    // Touching the coldest way moves it to the hot half.
    lru.touch(0);
    EXPECT_FALSE(lru.nearReplacement(0, 0));
    EXPECT_TRUE(lru.nearReplacement(0, 2));
}

TEST(TagStoreTest, FindAfterInstall)
{
    TagStore tags({32, 4, 2});
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
    TagStore tags({32, 1, 4});
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
    TagStore tags({32, 4, 1});
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
    TagStore tags({32, 4, 2});
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
    TagStore tags({32, 4, 2});
    CacheLine &line = tags.victimFor(9);
    tags.install(line, 9, State::M);
    tags.setState(*tags.find(9), State::I);
    EXPECT_EQ(tags.find(9), nullptr);
    EXPECT_EQ(tags.validLineCount(), 0u);
}

// ---------------------------------------------------------------- //
// Epoch-based bulk invalidation.

/** The epoch path against a per-line walk, at `k` lines per frame. */
void
epochMatchesWalk(std::size_t k)
{
    SCOPED_TRACE(testing::Message() << k << " lines per frame");
    CacheGeometry geom;
    geom.lineBytes = 32;
    geom.numSets = 8;
    geom.assoc = 2;
    geom.linesPerSector = k;

    // walk_store is invalidated by a per-line walk through setState,
    // the equivalence reference for the O(1) epoch path.
    TagStore epoch_store(geom);
    TagStore walk_store(geom);

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
    std::uint32_t epoch_before = epoch_store.epoch();

    epoch_store.bulkInvalidate();
    // Collect first: setState must not run under the store's own
    // iteration.
    std::vector<CacheLine *> held;
    walk_store.forEachValidLine([&](const CacheLine &line) {
        held.push_back(const_cast<CacheLine *>(&line));
    });
    for (CacheLine *line : held)
        walk_store.setState(*line, State::I);

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
    EXPECT_EQ(epoch_store.epoch(), epoch_before + 1);
    EXPECT_EQ(walk_store.epoch(), 0u);

    // Both stores keep working identically afterwards: refills land in
    // the same (repaired) frames and are found in the installed state.
    for (LineAddr la : {LineAddr{5}, LineAddr{40}, LineAddr{77}}) {
        epoch_store.install(la, State::E);
        walk_store.install(la, State::E);
        ASSERT_NE(epoch_store.find(la), nullptr);
        ASSERT_NE(walk_store.find(la), nullptr);
        EXPECT_EQ(epoch_store.find(la)->state, State::E);
        EXPECT_EQ(walk_store.find(la)->state, State::E);
        EXPECT_EQ(epoch_store.frameOf(*epoch_store.find(la)),
                  walk_store.frameOf(*walk_store.find(la)));
    }
    EXPECT_EQ(epoch_store.validLineCount(), walk_store.validLineCount());
}

TEST(LineStoreTest, EpochInvalidationMatchesPerLineWalk)
{
    // Conventional frames and sector frames of four lines alike.
    for (std::size_t k : {1u, 4u})
        epochMatchesWalk(k);
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
    const TagStore &store = cache->store();
    std::uint32_t before = store.epoch();

    ASSERT_TRUE(sys.quarantine(0));
    ASSERT_TRUE(sys.reintegrate(0));
    EXPECT_EQ(store.validLineCount(), 0u);
    EXPECT_EQ(store.epoch(), before + 1);

    for (int i = 0; i < 200; ++i) {
        sys.write(0, static_cast<Addr>(i) * 8, 1000 + i);
        sys.read(1, static_cast<Addr>(i) * 8);
    }
    EXPECT_TRUE(sys.checkNow().empty());
    EXPECT_TRUE(sys.violations().empty());
}

TEST(SpeculativeCacheTest, CommitTimeTouchesPickThePlainVictim)
{
    // Speculated hits defer their replacement touches to commit, and a
    // rollback drops them: after a partial rollback and a commit, the
    // next fill must evict the same line as the plain accesses of the
    // committed prefix.  Fill order a, b, c, d; committed b, a leaves c
    // least recently used (touching at speculation time would pick b,
    // never touching would pick a).
    SystemConfig cfg;
    cfg.lineBytes = 32;
    System spec_sys(cfg);
    System plain_sys(cfg);
    for (System *sys : {&spec_sys, &plain_sys}) {
        CacheSpec cache = test::smallCache();
        cache.numSets = 1;
        cache.assoc = 4;
        sys->addCache(cache);
    }
    const Addr a = 0, b = 32, c = 64, d = 96, e = 128;
    for (System *sys : {&spec_sys, &plain_sys}) {
        for (Addr addr : {a, b, c, d})
            sys->read(0, addr);
    }

    SnoopingCache &cache = *spec_sys.cacheOf(0);
    ASSERT_TRUE(cache.specEligible());
    std::uint32_t frames[4];
    Word got = 0;
    SnoopingCache::SpecUndo undo;
    ASSERT_TRUE(cache.specLocalRead(b, got, frames[0]));
    ASSERT_TRUE(cache.specLocalRead(a, got, frames[1]));
    ASSERT_TRUE(cache.specLocalRead(c, got, frames[2]));
    ASSERT_TRUE(cache.specLocalWrite(d, 99, frames[3], undo));
    cache.specCountHits(3, 1);
    EXPECT_EQ(cache.peekLine(d / 32)->state, State::M);
    // Roll back the read of c and the write of d.
    cache.specRestore(undo);
    cache.specCountHits(-1, -1);
    EXPECT_NE(cache.peekLine(d / 32)->state, State::M);
    cache.specCommit(frames, 2);
    plain_sys.read(0, b);
    plain_sys.read(0, a);

    for (System *sys : {&spec_sys, &plain_sys})
        sys->read(0, e);
    const SnoopingCache &plain = *plain_sys.cacheOf(0);
    EXPECT_EQ(plain.peekLine(c / 32), nullptr);
    for (Addr addr : {a, b, c, d, e}) {
        const CacheLine *s = cache.peekLine(addr / 32);
        const CacheLine *p = plain.peekLine(addr / 32);
        ASSERT_EQ(s == nullptr, p == nullptr) << "addr " << addr;
        if (s != nullptr) {
            EXPECT_EQ(s->state, p->state) << "addr " << addr;
            EXPECT_EQ(s->data, p->data) << "addr " << addr;
        }
    }
    EXPECT_EQ(cache.stats(), plain.stats());
}

} // namespace
} // namespace fbsim
