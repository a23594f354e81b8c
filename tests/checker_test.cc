/**
 * @file
 * Tests that the coherence checker itself detects violations (it must
 * not be vacuously green) and that the oracle tracks values.
 */

#include <gtest/gtest.h>

#include "hier/hier_system.h"
#include "test_util.h"

namespace fbsim {
namespace {

TEST(CheckerTest, CleanSystemPasses)
{
    auto sys = test::homogeneousSystem(2);
    sys->write(0, 0x100, 1);
    sys->read(1, 0x100);
    EXPECT_TRUE(sys->checkNow().empty());
}

// One access whose line is dirtied by the write itself and by bus
// transactions on its own leaf bus, the root bus and the other leaf
// bus is checked once: each of the line's violations is reported once.
TEST(CheckerTest, LineDirtiedOnEveryBusIsCheckedOnce)
{
    HierConfig cfg;   // no per-access check: this test scans by hand
    HierSystem sys(cfg, 2);
    CacheSpec spec = test::smallCache();
    spec.seed = 1;
    sys.addCache(0, spec);
    spec.seed = 2;
    sys.addCache(1, spec);
    const Addr addr = 0x100;
    sys.read(1, addr);   // cluster 1 holds the line
    CoherenceChecker &ck = sys.checker();
    ck.setTrackDirty(true);
    const std::uint64_t leaf0 = sys.leafBus(0).stats().transactions;
    const std::uint64_t root = sys.rootBus().stats().transactions;
    const std::uint64_t leaf1 = sys.leafBus(1).stats().transactions;

    sys.write(0, addr, 7);   // invalidates cluster 1's copy
    EXPECT_GT(sys.leafBus(0).stats().transactions, leaf0);
    EXPECT_GT(sys.rootBus().stats().transactions, root);
    EXPECT_GT(sys.leafBus(1).stats().transactions, leaf1);
    EXPECT_EQ(ck.dirtyLineCount(), 1u);

    // Break the image under cache 0's M copy: one V1 violation.
    ck.noteWrite(addr, 0xbad);
    std::vector<std::string> v = ck.checkDirtyLines();
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].rfind("V1: cache 0 holds line 0x8 word 0 = 0x7 in "
                         "state M, shared image is 0xbad | line 0x8:",
                         0),
              0u)
        << v[0];
    EXPECT_EQ(ck.dirtyLineCount(), 0u);
}

TEST(CheckerTest, DetectsStaleMemoryWithoutOwner)
{
    auto sys = test::homogeneousSystem(2);
    sys->read(0, 0x100);   // E, memory-consistent
    // Corrupt memory behind the system's back: now the unowned line
    // disagrees with the shared image (V2) and the E copy disagrees
    // with memory (V3).
    sys->memory().writeWord(0x100 / 32, 0, 0xbad);
    std::vector<std::string> v = sys->checkNow();
    ASSERT_FALSE(v.empty());
    bool v2 = false, v3 = false;
    for (const std::string &msg : v) {
        v2 = v2 || msg.find("V2") != std::string::npos;
        v3 = v3 || msg.find("V3") != std::string::npos;
    }
    EXPECT_TRUE(v2);
    EXPECT_TRUE(v3);
}

TEST(CheckerTest, DetectsStaleCachedCopy)
{
    auto sys = test::homogeneousSystem(2);
    sys->read(0, 0x200);
    // A write the snoopers never saw: oracle moves, copies don't.
    sys->checker().noteWrite(0x200, 77);
    std::vector<std::string> v = sys->checkNow();
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].find("V1"), std::string::npos);
}

TEST(CheckerTest, OracleFlagsWrongReadValues)
{
    auto sys = test::homogeneousSystem(1);
    sys->write(0, 0x100, 5);
    EXPECT_TRUE(sys->checker().noteRead(0x100, 5).empty());
    std::string err = sys->checker().noteRead(0x100, 6);
    EXPECT_FALSE(err.empty());
    EXPECT_NE(err.find("expected"), std::string::npos);
}

TEST(CheckerTest, OracleDefaultsToZero)
{
    auto sys = test::homogeneousSystem(1);
    EXPECT_EQ(sys->checker().expected(0x1234 & ~7ull), 0u);
    EXPECT_TRUE(sys->checker().noteRead(0x9990, 0).empty());
}

TEST(CheckerTest, ChecksRunCounterAdvances)
{
    auto sys = test::homogeneousSystem(1);
    std::uint64_t before = sys->checker().checksRun();
    sys->read(0, 0x100);   // checkEveryAccess fires the invariant scan
    EXPECT_GT(sys->checker().checksRun(), before);
}

} // namespace
} // namespace fbsim
