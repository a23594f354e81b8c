/**
 * @file
 * The paper's central claim (section 3.4): any mix of protocols from
 * the MOESI class - copy-back caches with different policies, Berkeley,
 * Dragon, write-through caches, non-caching masters, even caches that
 * pick a random legal action at every instant - maintains consistency
 * on one bus.  These tests build such systems and let the checker
 * verify every access.
 */

#include <array>
#include <cstring>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sim/engine.h"
#include "test_util.h"
#include "trace/workloads.h"

namespace fbsim {
namespace {

/** Drive a random workload over a handful of shared lines. */
void
drive(System &sys, std::uint64_t seed, int accesses, std::size_t lines,
      double p_write)
{
    Rng rng(seed);
    std::size_t clients = sys.numClients();
    for (int i = 0; i < accesses; ++i) {
        MasterId who = static_cast<MasterId>(rng.below(clients));
        Addr addr = rng.below(lines * 4) * 8;   // 32B lines, word grain
        if (rng.chance(p_write))
            sys.write(who, addr, rng.next());
        else
            sys.read(who, addr);
        if (rng.chance(0.02))
            sys.flush(who, addr, rng.chance(0.5));
    }
}

/** drive(), then require a consistent system. */
void
stress(System &sys, std::uint64_t seed, int accesses,
       std::size_t lines = 24, double p_write = 0.35)
{
    drive(sys, seed, accesses, lines, p_write);
    EXPECT_TRUE(sys.violations().empty()) << sys.violations().front();
    EXPECT_TRUE(sys.checkNow().empty()) << sys.checkNow().front();
}

TEST(MixedSystemTest, CopyBackWriteThroughAndNonCachingCoexist)
{
    // The paper's abstract: "actions suitable for copyback caches,
    // write through caches and non-caching processors."
    System sys(test::testConfig());
    sys.addCache(test::smallCache());                 // MOESI copy-back
    CacheSpec wt = test::smallCache();
    wt.writeThrough = true;
    sys.addCache(wt);                                 // write-through
    sys.addNonCachingMaster(false);                   // I/O processor
    sys.addNonCachingMaster(true);                    // broadcast writer
    stress(sys, 1, 4000);
}

TEST(MixedSystemTest, BerkeleyAndDragonJoinTheClass)
{
    // Section 4: Berkeley and Dragon are class members, so they can
    // share a bus with MOESI caches.
    System sys(test::testConfig());
    sys.addCache(test::smallCache(ProtocolKind::Moesi));
    sys.addCache(test::smallCache(ProtocolKind::Berkeley));
    sys.addCache(test::smallCache(ProtocolKind::Dragon));
    stress(sys, 2, 4000);
}

TEST(MixedSystemTest, DifferentPoliciesPerCache)
{
    // "different caches/processors may use different algorithms for
    // what to cache when."
    System sys(test::testConfig());
    CacheSpec a = test::smallCache();
    a.chooser = ChooserKind::Policy;
    a.policy.sharedWrite = MoesiPolicy::SharedWrite::Invalidate;
    a.policy.useExclusive = false;
    sys.addCache(a);
    CacheSpec b = test::smallCache();
    b.chooser = ChooserKind::Policy;
    b.policy.sharedWrite = MoesiPolicy::SharedWrite::Broadcast;
    b.policy.snoopedBroadcast = MoesiPolicy::SnoopedBroadcast::Invalidate;
    sys.addCache(b);
    CacheSpec c = test::smallCache();
    c.chooser = ChooserKind::Policy;
    c.policy.exclusiveAsModified = true;
    c.policy.dropOnSnoop = true;
    c.policy.broadcastPush = true;
    sys.addCache(c);
    stress(sys, 3, 4000);
}

/** Section 3.4's extreme case, parameterized over seeds. */
class RandomActionTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomActionTest, RandomChoosersNeverBreakConsistency)
{
    // "it would introduce no errors if a board were to select an
    // action at each instant from the available set using a random
    // number generator."
    System sys(test::testConfig());
    for (int i = 0; i < 4; ++i) {
        CacheSpec spec = test::smallCache();
        spec.chooser = ChooserKind::Random;
        spec.seed = GetParam() * 97 + i;
        sys.addCache(spec);
    }
    stress(sys, GetParam(), 3000);
}

TEST_P(RandomActionTest, RandomPlusEveryKindOfClient)
{
    System sys(test::testConfig());
    CacheSpec r = test::smallCache();
    r.chooser = ChooserKind::Random;
    r.seed = GetParam();
    sys.addCache(r);
    sys.addCache(test::smallCache(ProtocolKind::Berkeley));
    sys.addCache(test::smallCache(ProtocolKind::Dragon));
    CacheSpec wt = test::smallCache();
    wt.writeThrough = true;
    wt.chooser = ChooserKind::Random;
    wt.seed = GetParam() + 13;
    sys.addCache(wt);
    sys.addNonCachingMaster(true);
    stress(sys, GetParam() + 7, 3000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomActionTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10));

TEST(MixedSystemTest, DiscardNearReplacementRefinement)
{
    // Section 5.2's refinement stays consistent: a cache that discards
    // broadcast-written lines nearing replacement.
    System sys(test::testConfig());
    CacheSpec a = test::smallCache();
    a.discardNearReplacement = true;
    sys.addCache(a);
    sys.addCache(test::smallCache());
    sys.addCache(test::smallCache(ProtocolKind::Dragon));
    stress(sys, 11, 4000);
}

/** Every 64-bit counter of a stats block, in field order, as text. */
template <class Counters>
std::string
countersText(const Counters &c)
{
    static_assert(std::is_trivially_copyable_v<Counters> &&
                  sizeof(Counters) % sizeof(std::uint64_t) == 0);
    std::array<std::uint64_t, sizeof(Counters) / sizeof(std::uint64_t)>
        words;
    std::memcpy(words.data(), &c, sizeof c);
    std::string out;
    for (std::uint64_t w : words)
        out += strprintf("%llu ", static_cast<unsigned long long>(w));
    return out;
}

/**
 * stress()'s 24-line workload, fingerprinted: every cache's
 * CacheStats, the BusStats, describeLine() of every line the workload
 * can touch, and the violation and audit strings.
 */
std::uint64_t
pinnedRun(System &sys, std::uint64_t seed, int accesses)
{
    constexpr std::size_t kLines = 24;
    drive(sys, seed, accesses, kLines, 0.35);
    std::vector<std::string> parts;
    for (MasterId id = 0; id < sys.numClients(); ++id)
        parts.push_back(countersText(sys.cacheOf(id)->stats()));
    parts.push_back(countersText(sys.bus().stats()));
    for (LineAddr la = 0; la < kLines; ++la)
        parts.push_back(sys.checker().describeLine(la));
    for (const std::string &v : sys.violations())
        parts.push_back(v);
    for (const std::string &v : sys.checkNow())
        parts.push_back(v);
    return test::fnv1a(parts);
}

/** DiscardNearReplacementRefinement's mix, cache 0 on `chooser`. */
std::unique_ptr<System>
discardMix(ChooserKind chooser, bool discard)
{
    auto sys = std::make_unique<System>(test::testConfig());
    CacheSpec a = test::smallCache();
    a.discardNearReplacement = discard;
    a.chooser = chooser;
    a.seed = 5;
    sys->addCache(a);
    sys->addCache(test::smallCache());
    sys->addCache(test::smallCache(ProtocolKind::Dragon));
    return sys;
}

// The next three pins fix the exact outcome of the action resolver -
// memoized and fresh choices, the section 5.2 discard, the Random
// chooser's draw order - so a refactor of how a table cell resolves
// must reproduce every counter, line and violation byte for byte.

TEST(ResolverPinTest, DiscardWithPreferredChooserIsExact)
{
    auto sys = discardMix(ChooserKind::Preferred, true);
    const std::uint64_t got = pinnedRun(*sys, 11, 4000);
    EXPECT_EQ(got, 0x850fcbf632bdba01ull) << "0x" << std::hex << got;
    // The refinement must actually fire: the discarding cache loses
    // more copies to snooped broadcasts than it does without it.
    auto plain = discardMix(ChooserKind::Preferred, false);
    pinnedRun(*plain, 11, 4000);
    EXPECT_GT(sys->cacheOf(0)->stats().invalidationsRecv,
              plain->cacheOf(0)->stats().invalidationsRecv);
}

TEST(ResolverPinTest, DiscardWithRandomChooserIsExact)
{
    auto sys = discardMix(ChooserKind::Random, true);
    const std::uint64_t got = pinnedRun(*sys, 11, 4000);
    EXPECT_EQ(got, 0x30f01b1354f73a27ull) << "0x" << std::hex << got;
}

TEST(ResolverPinTest, AllRandomMixIsExact)
{
    System sys(test::testConfig());
    const ProtocolKind kMix[] = {ProtocolKind::Moesi,
                                 ProtocolKind::Berkeley,
                                 ProtocolKind::Dragon, ProtocolKind::Moesi};
    for (std::size_t i = 0; i < std::size(kMix); ++i) {
        CacheSpec spec = test::smallCache(kMix[i]);
        spec.chooser = ChooserKind::Random;
        spec.seed = 31 + i;
        sys.addCache(spec);
    }
    const std::uint64_t got = pinnedRun(sys, 17, 4000);
    EXPECT_EQ(got, 0x9793398bac61277full) << "0x" << std::hex << got;
}

TEST(MixedSystemTest, BrokenTableRunsToAVerdict)
{
    // A table is input (CacheSpec::table), so a broken one must end a
    // fault-free run in a verdict, never an abort.  MOESI whose S
    // ignores ReadForModify keeps stale sharers next to a new owner,
    // and later snoops meet cells the protocol never reaches (an
    // empty cell, a second DI or BS): each is counted and answered,
    // and the checker reports the divergence.  Every ordering, since
    // each drains a different interleaving into those cells.
    ProtocolTable broken = moesiTable();
    SnoopAction stay;
    stay.next = toState(State::S);
    broken.setSnoop(State::S, BusEvent::ReadForModify, {stay});
    Arch85Params params;
    params.sharedLines = 4;
    params.pShared = 0.05;
    for (std::uint64_t seed : {2u, 3u}) {
        for (EngineOrdering ordering :
             {EngineOrdering::Strict, EngineOrdering::PerLine,
              EngineOrdering::Interleaved}) {
            System sys(SystemConfig{});
            for (std::size_t i = 0; i < 4; ++i) {
                CacheSpec spec = test::smallCache();
                spec.numSets = 16;
                spec.seed = i + 1;
                spec.table = &broken;
                sys.addCache(spec);
            }
            auto streams = makeArch85Streams(params, 4, seed);
            std::vector<RefStream *> raw;
            for (auto &s : streams)
                raw.push_back(s.get());
            EngineConfig ec;
            ec.ordering = ordering;
            EngineResult r = Engine(sys, ec).run(raw, 2000);
            const std::string at =
                strprintf("seed %llu ordering %d",
                          static_cast<unsigned long long>(seed),
                          static_cast<int>(ordering));
            for (const ProcTiming &p : r.procs)
                EXPECT_EQ(p.refs, 2000u) << at;
            EXPECT_GT(sys.cacheTotals().illegalSnoops +
                          sys.bus().stats().responseConflicts,
                      0u)
                << at;
            EXPECT_FALSE(sys.violations().empty() &&
                         sys.checkNow().empty())
                << at;
        }
    }
}

TEST(MixedSystemTest, IncompatibleMixIsDetectedByTheChecker)
{
    // The paper lists Write-Once as NOT a class member; mixing it with
    // owner-based MOESI caches can lose data (its write-through-once
    // assumes memory-consistent S data).  The checker must catch this
    // - demonstrating both why class membership matters and that the
    // checker is not vacuous.
    SystemConfig cfg = test::testConfig();
    cfg.allowIncompatibleMix = true;   // assembling the failure on purpose
    System sys(cfg);
    MasterId moesi = sys.addCache(test::smallCache(ProtocolKind::Moesi));
    MasterId once =
        sys.addCache(test::smallCache(ProtocolKind::WriteOnce));

    // MOESI cache dirties a line and stays owner while Write-Once
    // reads it (intervention; memory stays stale)...
    sys.write(moesi, 0x100, 1);
    sys.write(moesi, 0x108, 2);
    sys.read(once, 0x100);
    // ...then Write-Once writes through "once": the owner dies, memory
    // gets only the written word, and ownership is lost.
    sys.write(once, 0x100, 3);
    std::vector<std::string> v = sys.checkNow();
    EXPECT_FALSE(v.empty());
}

} // namespace
} // namespace fbsim
