/**
 * @file
 * Tests of the sector-cache organization (section 5.1, [Hill84]):
 * one tag per sector, consistency status per transfer subsector, and
 * sector-granular replacement.
 */

#include <gtest/gtest.h>

#include "cache/sector_store.h"
#include "test_util.h"

namespace fbsim {
namespace {

TEST(SectorStoreTest, GeometryArithmetic)
{
    SectorGeometry g{32, 4, 8, 2};
    EXPECT_EQ(g.capacityBytes(), 32u * 4 * 8 * 2);
    EXPECT_EQ(g.sectorOf(0), 0u);
    EXPECT_EQ(g.sectorOf(3), 0u);
    EXPECT_EQ(g.sectorOf(4), 1u);
    EXPECT_EQ(g.subOf(5), 1u);
    EXPECT_EQ(g.setOf(8), 0u);
}

TEST(SectorStoreTest, SubsectorsShareOneTag)
{
    SectorStore store({32, 4, 4, 2});
    // Install three subsectors of sector 0 (lines 0..2).
    std::vector<CacheLine *> evict{nullptr};   // replaced, not appended
    for (LineAddr la = 0; la < 3; ++la) {
        store.evictionSet(la, evict);
        ASSERT_TRUE(evict.empty());
        store.install(la, State::S);
    }
    EXPECT_EQ(store.validLineCount(), 3u);
    EXPECT_EQ(store.validSectorCount(), 1u);
    EXPECT_NE(store.find(0), nullptr);
    EXPECT_NE(store.find(2), nullptr);
    EXPECT_EQ(store.find(3), nullptr);   // slot exists but invalid
}

TEST(SectorStoreTest, SubsectorsCarryIndependentStates)
{
    // The paper: "Consistency status also appears to be necessarily
    // associated with the transfer subsector, rather than the address
    // sector."
    SectorStore store({32, 4, 4, 2});
    store.install(0, State::M);
    store.install(1, State::S);
    store.install(2, State::E);
    EXPECT_EQ(store.find(0)->state, State::M);
    EXPECT_EQ(store.find(1)->state, State::S);
    EXPECT_EQ(store.find(2)->state, State::E);
}

TEST(SectorStoreTest, SectorEvictionCoversAllValidSubsectors)
{
    // Direct-mapped single set: installing a third sector must evict
    // an entire resident sector.
    SectorStore store({32, 4, 1, 2});
    store.install(0, State::M);    // sector 0
    store.install(1, State::S);
    store.install(4, State::S);    // sector 1
    // Sector 2 (lines 8..11) needs a frame: both are taken.
    std::vector<CacheLine *> evict;
    store.evictionSet(8, evict);
    ASSERT_EQ(evict.size(), 2u);   // both valid subsectors of sector 0
    for (CacheLine *line : evict) {
        EXPECT_TRUE(line->valid());
        line->state = State::I;    // as the controller would
    }
    store.install(8, State::E);
    EXPECT_EQ(store.find(0), nullptr);
    EXPECT_NE(store.find(8), nullptr);
}

TEST(SectorCacheTest, BasicCoherenceWithPlainCaches)
{
    System sys(test::testConfig());
    CacheSpec spec = test::smallCache();
    MasterId plain = sys.addCache(spec);
    CacheSpec sspec = test::smallCache();
    sspec.numSets = 4;
    sspec.assoc = 2;
    MasterId sector = sys.addSectorCache(sspec, 4);

    sys.write(plain, 0x100, 7);
    EXPECT_EQ(sys.read(sector, 0x100).value, 7u);
    EXPECT_EQ(sys.cacheOf(plain)->lineState(0x100), State::O);
    EXPECT_EQ(sys.cacheOf(sector)->lineState(0x100), State::S);
    sys.write(sector, 0x100, 8);
    EXPECT_EQ(sys.read(plain, 0x100).value, 8u);
    EXPECT_TRUE(sys.violations().empty());
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(SectorCacheTest, NeighbouringLinesShareTheSectorTag)
{
    System sys(test::testConfig());
    CacheSpec sspec = test::smallCache();
    MasterId id = sys.addSectorCache(sspec, 4);
    const SnoopingCache *cache = sys.cacheOf(id);
    const auto &store = dynamic_cast<const SectorStore &>(cache->store());

    // Four consecutive lines: one sector tag, four valid subsectors.
    for (Addr a = 0; a < 4 * 32; a += 32)
        sys.read(id, a);
    EXPECT_EQ(store.validSectorCount(), 1u);
    EXPECT_EQ(store.validLineCount(), 4u);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(SectorCacheTest, SectorEvictionWritesBackOwnedSubsectors)
{
    System sys(test::testConfig());
    CacheSpec sspec = test::smallCache();
    sspec.numSets = 1;
    sspec.assoc = 1;   // one sector frame in total
    MasterId id = sys.addSectorCache(sspec, 2);

    // Dirty both subsectors of sector 0, then touch sector 1: both
    // dirty lines must be pushed.
    sys.write(id, 0, 1);
    sys.write(id, 32, 2);
    ASSERT_EQ(sys.bus().stats().linePushes, 0u);
    sys.read(id, 64);
    EXPECT_EQ(sys.bus().stats().linePushes, 2u);
    EXPECT_EQ(sys.memory().peekWord(0, 0), 1u);
    EXPECT_EQ(sys.memory().peekWord(1, 0), 2u);
    EXPECT_TRUE(sys.checkNow().empty());
    // The flushed data rereads correctly.
    EXPECT_EQ(sys.read(id, 0).value, 1u);
}

TEST(SectorCacheTest, DifferentSubsectorStatesAcrossCaches)
{
    // Subsector independence under coherence: one subsector owned
    // here, its sibling owned by the other cache.
    System sys(test::testConfig());
    MasterId a = sys.addSectorCache(test::smallCache(), 4);
    MasterId b = sys.addSectorCache(test::smallCache(), 4);
    sys.write(a, 0, 1);     // line 0 of sector 0: M in a
    sys.write(b, 32, 2);    // line 1 of sector 0: M in b
    EXPECT_EQ(sys.cacheOf(a)->lineState(0), State::M);
    EXPECT_EQ(sys.cacheOf(a)->lineState(32), State::I);
    EXPECT_EQ(sys.cacheOf(b)->lineState(32), State::M);
    EXPECT_EQ(sys.read(a, 32).value, 2u);
    EXPECT_EQ(sys.read(b, 0).value, 1u);
    EXPECT_TRUE(sys.checkNow().empty());
}

TEST(SectorCacheTest, RandomizedStressStaysConsistent)
{
    System sys(test::testConfig());
    sys.addSectorCache(test::smallCache(), 4);
    sys.addSectorCache(test::smallCache(), 2);
    sys.addCache(test::smallCache());
    Rng rng(31);
    for (int i = 0; i < 3000; ++i) {
        MasterId who = static_cast<MasterId>(rng.below(3));
        Addr addr = rng.below(48) * 8;
        if (rng.chance(0.35))
            sys.write(who, addr, rng.next());
        else
            sys.read(who, addr);
    }
    EXPECT_TRUE(sys.violations().empty()) << sys.violations().front();
    EXPECT_TRUE(sys.checkNow().empty());
}

} // namespace
} // namespace fbsim
