/**
 * @file
 * Error-path and foundation tests: configuration validation fatal()s,
 * the hierarchy's protocol restriction, and the exactness of
 * System::wouldUseBus (which the timed engines' arbitration relies
 * on).
 */

#include <gtest/gtest.h>

#include "hier/hier_system.h"
#include "test_util.h"

namespace fbsim {
namespace {

using DeathTest = ::testing::Test;

TEST(ConfigErrorTest, MalformedGeometryIsFatal)
{
    auto bad_line = [] {
        CacheGeometry g{12, 64, 2};   // not a power of two
        g.validate();
    };
    auto bad_sets = [] {
        CacheGeometry g{32, 63, 2};   // sets not a power of two
        g.validate();
    };
    auto bad_ways = [] {
        CacheGeometry g{32, 64, 0};   // no ways
        g.validate();
    };
    EXPECT_EXIT(bad_line(), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(bad_sets(), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(bad_ways(), ::testing::ExitedWithCode(1),
                "associativity");
}

TEST(ConfigErrorTest, MalformedSectorGeometryIsFatal)
{
    // Sector arithmetic is shift/mask, so the subsector count must be
    // a power of two; the fatal names the rejected count.
    auto bad = [](std::size_t subsectors) {
        System sys(test::testConfig());
        sys.addSectorCache(test::smallCache(), subsectors);
    };
    EXPECT_EXIT(bad(0), ::testing::ExitedWithCode(1),
                "subsector count 0 must be a power of two");
    EXPECT_EXIT(bad(3), ::testing::ExitedWithCode(1),
                "subsector count 3 must be a power of two");
}

TEST(ConfigErrorTest, HierRejectsAbortProtocols)
{
    auto bad = [] {
        HierConfig cfg;
        HierSystem sys(cfg, 2);
        CacheSpec spec;
        spec.protocol = ProtocolKind::Illinois;
        sys.addCache(0, spec);
    };
    EXPECT_EXIT(bad(), ::testing::ExitedWithCode(1), "MOESI-class");
}

TEST(ConfigErrorTest, IncompatibleMixIsRefusedAtAssembly)
{
    // The known data-loss pair (Write-Once x an O-state protocol,
    // pinned by McCounterexample.WriteOnceOwnerCollisionPinned) must
    // be refused when the caches join the bus - and the fatal must
    // name both offending protocols, in either assembly order.
    auto mix = [](ProtocolKind first, ProtocolKind second) {
        System sys(test::testConfig());
        sys.addCache(test::smallCache(first));
        sys.addCache(test::smallCache(second));
    };
    EXPECT_EXIT(mix(ProtocolKind::Moesi, ProtocolKind::WriteOnce),
                ::testing::ExitedWithCode(1), "MOESI.*Write-Once");
    EXPECT_EXIT(mix(ProtocolKind::WriteOnce, ProtocolKind::Berkeley),
                ::testing::ExitedWithCode(1), "Write-Once.*Berkeley");
    EXPECT_EXIT(mix(ProtocolKind::Dragon, ProtocolKind::WriteOnce),
                ::testing::ExitedWithCode(1), "Dragon.*Write-Once");

    // Opting in assembles the mix (the checker studies depend on it).
    SystemConfig cfg = test::testConfig();
    cfg.allowIncompatibleMix = true;
    System sys(cfg);
    sys.addCache(test::smallCache(ProtocolKind::Moesi));
    sys.addCache(test::smallCache(ProtocolKind::WriteOnce));

    // Non-ownership pairs stay assemblable without the override.
    System ok(test::testConfig());
    ok.addCache(test::smallCache(ProtocolKind::WriteOnce));
    ok.addCache(test::smallCache(ProtocolKind::Illinois));
}

TEST(ConfigErrorTest, WriteThroughRequiresMoesiTable)
{
    auto bad = [] {
        System sys(test::testConfig());
        CacheSpec spec = test::smallCache(ProtocolKind::Berkeley);
        spec.writeThrough = true;
        sys.addCache(spec);
    };
    EXPECT_EXIT(bad(), ::testing::ExitedWithCode(1), "write-through");
}

TEST(WouldUseBusTest, ExactForCopyBack)
{
    auto sys = test::homogeneousSystem(2);
    Addr a = 0x100;
    // Miss: both read and write need the bus.
    EXPECT_TRUE(sys->wouldUseBus(0, false, a));
    EXPECT_TRUE(sys->wouldUseBus(0, true, a));
    sys->read(0, a);   // -> E
    EXPECT_FALSE(sys->wouldUseBus(0, false, a));
    EXPECT_FALSE(sys->wouldUseBus(0, true, a));   // silent upgrade
    sys->read(1, a);   // -> S, S
    EXPECT_FALSE(sys->wouldUseBus(0, false, a));
    EXPECT_TRUE(sys->wouldUseBus(0, true, a));    // shared write
    sys->write(0, a, 1);   // broadcast; stays O (cache 1 retains)
    ASSERT_EQ(sys->cacheOf(0)->lineState(a), State::O);
    EXPECT_TRUE(sys->wouldUseBus(0, true, a));
    sys->flush(1, a, false);
    sys->write(0, a, 2);   // no CH -> M
    ASSERT_EQ(sys->cacheOf(0)->lineState(a), State::M);
    EXPECT_FALSE(sys->wouldUseBus(0, true, a));
}

TEST(WouldUseBusTest, WriteThroughAlwaysWritesOnBus)
{
    System sys(test::testConfig());
    CacheSpec wt = test::smallCache();
    wt.writeThrough = true;
    MasterId id = sys.addCache(wt);
    sys.read(id, 0x100);
    EXPECT_FALSE(sys.wouldUseBus(id, false, 0x100));
    EXPECT_TRUE(sys.wouldUseBus(id, true, 0x100));
}

TEST(WouldUseBusTest, NonCachingAlwaysUsesTheBus)
{
    System sys(test::testConfig());
    MasterId io = sys.addNonCachingMaster(false);
    EXPECT_TRUE(sys.wouldUseBus(io, false, 0));
    EXPECT_TRUE(sys.wouldUseBus(io, true, 0));
}

TEST(WouldUseBusTest, PredictionMatchesOutcomeUnderStress)
{
    // The engine's arbitration depends on wouldUseBus being exact:
    // verify prediction == outcome over a randomized run.
    auto sys = test::homogeneousSystem(3);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        MasterId who = static_cast<MasterId>(rng.below(3));
        Addr addr = rng.below(24) * 8;
        bool is_write = rng.chance(0.4);
        bool predicted = sys->wouldUseBus(who, is_write, addr);
        AccessOutcome o = is_write ? sys->write(who, addr, rng.next())
                                   : sys->read(who, addr);
        EXPECT_EQ(predicted, o.usedBus) << i;
    }
}

} // namespace
} // namespace fbsim
