/**
 * @file
 * Property sweeps: the coherence invariants must hold across the whole
 * configuration space - line sizes, geometries, associativities,
 * protocols, policy knobs, client mixes - under randomized workloads.
 * These are the paper's section 3.4 claim turned into a test matrix.
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "test_util.h"

namespace fbsim {
namespace {

/** Drive a random workload and assert consistency. */
void
stress(System &sys, std::uint64_t seed, int accesses,
       std::size_t lines)
{
    Rng rng(seed);
    std::size_t clients = sys.numClients();
    std::size_t words = sys.config().lineBytes / kWordBytes;
    for (int i = 0; i < accesses; ++i) {
        MasterId who = static_cast<MasterId>(rng.below(clients));
        Addr addr = rng.below(lines * words) * kWordBytes;
        if (rng.chance(0.35))
            sys.write(who, addr, rng.next());
        else
            sys.read(who, addr);
        if (rng.chance(0.01))
            sys.flush(who, addr, rng.chance(0.5));
        if (rng.chance(0.005))
            sys.syncLine(who, addr, rng.chance(0.5));
    }
    ASSERT_TRUE(sys.violations().empty()) << sys.violations().front();
    std::vector<std::string> v = sys.checkNow();
    ASSERT_TRUE(v.empty()) << v.front();
}

// ---------------------------------------------------------------- //

class LineSizeSweepTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(LineSizeSweepTest, ConsistentAtEveryLineSize)
{
    SystemConfig cfg;
    cfg.lineBytes = GetParam();
    cfg.checkEveryAccess = true;
    System sys(cfg);
    for (int i = 0; i < 3; ++i) {
        CacheSpec spec = test::smallCache();
        spec.seed = i + 1;
        sys.addCache(spec);
    }
    stress(sys, GetParam(), 1500, 12);
}

INSTANTIATE_TEST_SUITE_P(LineSizes, LineSizeSweepTest,
                         ::testing::Values(8, 16, 32, 64, 256),
                         [](const auto &info) {
                             return "bytes" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------- //

/** LRU replacement under eviction pressure, per associativity. */
class ReplacementSweepTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ReplacementSweepTest, ConsistentUnderCapacityPressure)
{
    SystemConfig cfg;
    cfg.checkEveryAccess = true;
    System sys(cfg);
    for (int i = 0; i < 3; ++i) {
        CacheSpec spec;
        spec.numSets = 2;   // tiny: constant eviction pressure
        spec.assoc = GetParam();
        spec.seed = i + 1;
        sys.addCache(spec);
    }
    // Working set far exceeds capacity: dirty evictions throughout.
    stress(sys, 99, 2000, 32);
}

INSTANTIATE_TEST_SUITE_P(Ways, ReplacementSweepTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}),
                         [](const auto &info) {
                             return std::to_string(info.param) + "way";
                         });

// ---------------------------------------------------------------- //

/** Every combination of the MoesiPolicy knobs. */
class PolicyKnobSweepTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PolicyKnobSweepTest, EveryKnobCombinationIsConsistent)
{
    int bits = GetParam();
    MoesiPolicy policy;
    policy.sharedWrite = (bits & 1)
                             ? MoesiPolicy::SharedWrite::Invalidate
                             : MoesiPolicy::SharedWrite::Broadcast;
    policy.missWrite = (bits & 2)
                           ? MoesiPolicy::MissWrite::ReadThenWrite
                           : MoesiPolicy::MissWrite::ReadForOwnership;
    policy.snoopedBroadcast =
        (bits & 4) ? MoesiPolicy::SnoopedBroadcast::Invalidate
                   : MoesiPolicy::SnoopedBroadcast::Update;
    policy.useExclusive = !(bits & 8);
    policy.useOwnedReclaim = !(bits & 16);
    policy.dropOnSnoop = bits & 32;
    policy.exclusiveAsModified = bits & 64;
    policy.broadcastPush = bits & 128;

    SystemConfig cfg;
    cfg.checkEveryAccess = true;
    System sys(cfg);
    for (int i = 0; i < 3; ++i) {
        CacheSpec spec = test::smallCache();
        spec.chooser = ChooserKind::Policy;
        spec.policy = policy;
        spec.seed = i + 1;
        sys.addCache(spec);
    }
    stress(sys, 1000 + bits, 1200, 10);
}

INSTANTIATE_TEST_SUITE_P(AllKnobCombinations, PolicyKnobSweepTest,
                         ::testing::Range(0, 256, 1));

// ---------------------------------------------------------------- //

/** Random protocol mixes of class members, keyed by seed. */
class MixSweepTest : public ::testing::TestWithParam<int>
{
};

TEST_P(MixSweepTest, RandomClassMemberMixesAreConsistent)
{
    Rng pick(GetParam() * 131);
    SystemConfig cfg;
    cfg.checkEveryAccess = true;
    System sys(cfg);
    std::size_t clients = 2 + pick.below(4);
    for (std::size_t i = 0; i < clients; ++i) {
        switch (pick.below(6)) {
          case 0: {
            CacheSpec spec = test::smallCache();
            spec.seed = pick.next();
            sys.addCache(spec);
            break;
          }
          case 1: {
            CacheSpec spec = test::smallCache(ProtocolKind::Berkeley);
            spec.seed = pick.next();
            sys.addCache(spec);
            break;
          }
          case 2: {
            CacheSpec spec = test::smallCache(ProtocolKind::Dragon);
            spec.seed = pick.next();
            sys.addCache(spec);
            break;
          }
          case 3: {
            CacheSpec spec = test::smallCache();
            spec.writeThrough = true;
            spec.seed = pick.next();
            sys.addCache(spec);
            break;
          }
          case 4: {
            CacheSpec spec = test::smallCache();
            spec.chooser = ChooserKind::Random;
            spec.seed = pick.next();
            sys.addCache(spec);
            break;
          }
          case 5:
            sys.addNonCachingMaster(pick.chance(0.5));
            break;
        }
    }
    // Make sure at least one cache exists so the stress is meaningful.
    CacheSpec anchor = test::smallCache();
    anchor.seed = 777;
    sys.addCache(anchor);
    stress(sys, GetParam(), 1500, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixSweepTest,
                         ::testing::Range(1, 21, 1));

} // namespace
} // namespace fbsim
