/**
 * @file
 * Tests of the sector-cache organization (section 5.1, [Hill84]):
 * one tag per sector, consistency status per transfer subsector, and
 * sector-granular replacement.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/tag_store.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/workloads.h"

namespace fbsim {
namespace {

/** Frames holding at least one valid line: resident sector tags. */
std::size_t
validSectorCount(const TagStore &store)
{
    std::set<std::uint32_t> frames;
    store.forEachValidLine([&](const CacheLine &line) {
        frames.insert(store.frameOf(line));
    });
    return frames.size();
}

TEST(SectorStoreTest, GeometryArithmetic)
{
    CacheGeometry g{32, 8, 2, 4};
    EXPECT_EQ(g.capacityBytes(), 32u * 4 * 8 * 2);
    EXPECT_EQ(g.sectorOf(0), 0u);
    EXPECT_EQ(g.sectorOf(3), 0u);
    EXPECT_EQ(g.sectorOf(4), 1u);
    EXPECT_EQ(g.subOf(5), 1u);
    EXPECT_EQ(g.setOf(8), 0u);
}

TEST(SectorStoreTest, SubsectorsShareOneTag)
{
    TagStore store({32, 4, 2, 4});
    // Install three subsectors of sector 0 (lines 0..2).
    std::vector<CacheLine *> evict{nullptr};   // replaced, not appended
    for (LineAddr la = 0; la < 3; ++la) {
        store.evictionSet(la, evict);
        ASSERT_TRUE(evict.empty());
        store.install(la, State::S);
    }
    EXPECT_EQ(store.validLineCount(), 3u);
    EXPECT_EQ(validSectorCount(store), 1u);
    EXPECT_NE(store.find(0), nullptr);
    EXPECT_NE(store.find(2), nullptr);
    EXPECT_EQ(store.find(3), nullptr);   // slot exists but invalid
}

TEST(SectorStoreTest, SubsectorsCarryIndependentStates)
{
    // The paper: "Consistency status also appears to be necessarily
    // associated with the transfer subsector, rather than the address
    // sector."
    TagStore store({32, 4, 2, 4});
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
    TagStore store({32, 1, 2, 4});
    store.install(0, State::M);    // sector 0
    store.install(1, State::S);
    store.install(4, State::S);    // sector 1
    // Sector 2 (lines 8..11) needs a frame: both are taken.
    std::vector<CacheLine *> evict;
    store.evictionSet(8, evict);
    ASSERT_EQ(evict.size(), 2u);   // both valid subsectors of sector 0
    for (CacheLine *line : evict) {
        EXPECT_TRUE(line->valid());
        store.setState(*line, State::I);   // as the controller would
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
    const TagStore &store = cache->store();

    // Four consecutive lines: one sector tag, four valid subsectors.
    for (Addr a = 0; a < 4 * 32; a += 32)
        sys.read(id, a);
    EXPECT_EQ(validSectorCount(store), 1u);
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

// ---------------------------------------------------------------- //
// Digest pins of sector-cache behaviour, recorded when sector caches
// had a store of their own; the K-lines-per-frame TagStore reproduces
// them byte for byte.

/** Appends counters and strings, then hashes them with FNV-1a. */
class SectorDigest
{
  public:
    template <typename Counters>
    void
    addCounters(const Counters &c)
    {
        static_assert(std::is_trivially_copyable_v<Counters> &&
                      sizeof(Counters) % sizeof(std::uint64_t) == 0);
        bytes_.append(reinterpret_cast<const char *>(&c), sizeof c);
    }

    void
    add(std::uint64_t v)
    {
        addCounters(v);
    }

    void
    add(const std::string &s)
    {
        bytes_ += s;
        bytes_ += '\n';
    }

    /** Every cache's counters, the bus counters, describeLine of each
     *  line in `lines` and the violation strings. */
    void
    addSystem(System &sys, const std::set<LineAddr> &lines)
    {
        for (MasterId id = 0; id < sys.numClients(); ++id)
            addCounters(sys.cacheOf(id)->stats());
        addCounters(sys.bus().stats());
        for (LineAddr la : lines)
            add(sys.checker().describeLine(la));
        for (const std::string &v : sys.violations())
            add(v);
    }

    std::uint64_t value() const { return test::fnv1a(bytes_); }

  private:
    std::string bytes_;
};

/** The randomized-stress shape: K = 4 and K = 2 sector caches beside
 *  a plain cache, 3,000 mixed accesses over 48 words. */
std::uint64_t
stressDigest()
{
    System sys(test::testConfig());
    sys.addSectorCache(test::smallCache(), 4);
    sys.addSectorCache(test::smallCache(), 2);
    sys.addCache(test::smallCache());
    Rng rng(31);
    std::set<LineAddr> touched;
    for (int i = 0; i < 3000; ++i) {
        MasterId who = static_cast<MasterId>(rng.below(3));
        Addr addr = rng.below(48) * 8;
        touched.insert(addr / 32);
        if (rng.chance(0.35))
            sys.write(who, addr, rng.next());
        else
            sys.read(who, addr);
    }
    SectorDigest d;
    d.addSystem(sys, touched);
    return d.value();
}

TEST(SectorCacheTest, RandomizedStressIsPinned)
{
    const std::uint64_t got = stressDigest();
    EXPECT_EQ(got, 0x483c0b1d66ea73c8ull) << "0x" << std::hex << got;
}

/** One timed Arch85 run over K = 4 and K = 2 sector caches and a plain
 *  cache of `protocol`; sixteen shared lines (four K = 4 sectors) take
 *  half the references, so snoops empty whole sectors. */
std::uint64_t
timedSectorDigest(ProtocolKind protocol, EngineOrdering ordering,
                  SpecStats *spec)
{
    SystemConfig cfg;
    cfg.lineBytes = 32;
    System sys(cfg);
    for (std::size_t i = 0; i < 3; ++i) {
        CacheSpec cs = test::smallCache(protocol);
        cs.seed = i + 1;
        if (i < 2)
            sys.addSectorCache(cs, i == 0 ? 4 : 2);
        else
            sys.addCache(cs);
    }
    Arch85Params params;
    params.sharedLines = 16;
    params.pShared = 0.5;
    params.pSharedWrite = 0.4;
    params.privateLines = 64;
    auto streams = makeArch85Streams(params, 3, 5);
    std::vector<RefStream *> raw;
    for (auto &s : streams)
        raw.push_back(s.get());
    std::vector<EngineAccess> log;
    EngineConfig ec;
    ec.ordering = ordering;
    ec.specStats = spec;
    ec.accessLog = &log;
    Engine engine(sys, ec);
    SectorDigest d;
    for (int pass = 0; pass < 2; ++pass) {
        const EngineResult r = engine.run(raw, 3000);
        for (std::uint64_t v :
             {r.elapsed, r.busBusy, r.faultedRefs, r.watchdogTrips,
              r.quarantines, r.reintegrations,
              std::uint64_t{r.cancelled}})
            d.add(v);
        for (const ProcTiming &p : r.procs)
            d.addCounters(p);
    }
    std::set<LineAddr> touched;
    for (const EngineAccess &a : log) {
        touched.insert(a.addr / 32);
        d.add(a.proc);
        d.add(a.write);
        d.add(a.addr);
    }
    EXPECT_GT(sys.cacheOf(0)->stats().invalidationsRecv, 0u);
    EXPECT_GT(sys.cacheOf(1)->stats().invalidationsRecv, 0u);
    EXPECT_TRUE(sys.checkNow().empty());
    d.addSystem(sys, touched);
    return d.value();
}

TEST(SectorCacheTest, TimedArch85IsPinnedUnderBothOrderings)
{
    const ProtocolKind kProtocols[] = {ProtocolKind::Moesi,
                                       ProtocolKind::Berkeley,
                                       ProtocolKind::Illinois};
    const std::uint64_t kPinned[] = {0xe9280b874ed0a946ull,
                                      0x95cf1fa915e8d43cull,
                                      0x19932fb7ed787605ull};
    for (std::size_t k = 0; k < std::size(kProtocols); ++k) {
        SCOPED_TRACE(std::string(protocolKindName(kProtocols[k])));
        const std::uint64_t inter = timedSectorDigest(
            kProtocols[k], EngineOrdering::Interleaved, nullptr);
        SpecStats spec;
        const std::uint64_t strict =
            timedSectorDigest(kProtocols[k], EngineOrdering::Strict, &spec);
        EXPECT_EQ(inter, kPinned[k]) << "0x" << std::hex << inter;
        EXPECT_EQ(strict, kPinned[k]) << "0x" << std::hex << strict;
    }
}

} // namespace
} // namespace fbsim
