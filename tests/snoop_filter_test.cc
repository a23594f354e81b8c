/**
 * @file
 * Snoop-filter fast-path equivalence: the presence-bitmask filter may
 * only skip snoopers whose reaction would have been a no-op, so a
 * filtered system must be observably identical to the paper's literal
 * broadcast - same final cache states, same flushed memory image, same
 * BusStats, same checker verdicts.  The filtered run additionally
 * enables the cross-check that panics if the filter ever suppresses a
 * module that holds the line.
 *
 * Also covers the incremental checker: per-access scans that only
 * revisit dirtied lines must find exactly what the full scan finds.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "hier/hier_system.h"
#include "test_util.h"

namespace fbsim {
namespace {

struct Access
{
    enum Kind { Read, Write, Flush, Sync } kind;
    MasterId who;
    Addr addr;
    Word value;
    bool flag;   ///< keep_copy (Flush) / purge (Sync)
};

std::vector<Access>
makeWorkload(std::size_t clients, int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Access> out;
    for (int i = 0; i < n; ++i) {
        Access a;
        std::uint64_t r = rng.below(100);
        a.kind = r < 55   ? Access::Read
                 : r < 92 ? Access::Write
                 : r < 97 ? Access::Flush
                          : Access::Sync;
        a.who = static_cast<MasterId>(rng.below(clients));
        a.addr = rng.below(16 * 4) * 8;
        a.value = rng.next();
        // Sync always purges: a plain sync demotes a non-MOESI owner
        // to E, which prior-protocol tables have no snoop rows for
        // (the repo's cross-protocol sync test makes the same
        // restriction).
        a.flag = a.kind == Access::Sync || rng.chance(0.5);
        out.push_back(a);
    }
    return out;
}

/**
 * One system holding every protocol family at once: the five prior
 * protocols, a MOESI cache, a write-through client and a non-caching
 * broadcast-writing master.  Exactly the mix the compatibility claim
 * is about.
 */
std::unique_ptr<System>
mixedSystem(bool filter, bool cross_check)
{
    SystemConfig cfg = test::testConfig();
    cfg.snoopFilter = filter;
    cfg.snoopFilterCrossCheck = cross_check;
    cfg.allowIncompatibleMix = true;   // the point of this suite
    auto sys = std::make_unique<System>(cfg);
    ProtocolKind kinds[] = {
        ProtocolKind::Moesi,    ProtocolKind::Berkeley,
        ProtocolKind::Dragon,   ProtocolKind::WriteOnce,
        ProtocolKind::Illinois, ProtocolKind::Firefly,
    };
    int i = 0;
    for (ProtocolKind kind : kinds) {
        CacheSpec spec = test::smallCache(kind);
        spec.seed = 100 + i++;
        sys->addCache(spec);
    }
    CacheSpec wt = test::smallCache();
    wt.writeThrough = true;
    wt.seed = 100 + i;
    sys->addCache(wt);
    sys->addNonCachingMaster(true);
    return sys;
}

void
runAccess(System &sys, const Access &a)
{
    switch (a.kind) {
      case Access::Read:
        sys.read(a.who, a.addr);
        break;
      case Access::Write:
        sys.write(a.who, a.addr, a.value);
        break;
      case Access::Flush:
        sys.flush(a.who, a.addr, a.flag);
        break;
      case Access::Sync:
        sys.syncLine(a.who, a.addr, a.flag);
        break;
    }
}

void
runWorkload(System &sys, const std::vector<Access> &workload)
{
    for (const Access &a : workload)
        runAccess(sys, a);
}

/** Every cache's consistency state for every line in the range. */
std::map<std::pair<MasterId, LineAddr>, State>
cacheStates(System &sys, LineAddr lines)
{
    std::map<std::pair<MasterId, LineAddr>, State> out;
    for (MasterId id = 0; id < sys.numClients(); ++id) {
        const SnoopingCache *cache = sys.cacheOf(id);
        if (!cache)
            continue;
        for (LineAddr la = 0; la < lines; ++la)
            out[{id, la}] =
                cache->lineState(la * sys.config().lineBytes);
    }
    return out;
}

std::map<Addr, Word>
flushedImage(System &sys)
{
    for (MasterId id = 0; id < sys.numClients(); ++id) {
        SnoopingCache *cache = sys.cacheOf(id);
        if (!cache)
            continue;
        std::vector<LineAddr> lines;
        cache->forEachValidLine(
            [&](const CacheLine &line) { lines.push_back(line.addr); });
        for (LineAddr la : lines)
            sys.flush(id, la * sys.config().lineBytes, false);
    }
    std::map<Addr, Word> image;
    sys.memory().forEachLine([&](LineAddr la, std::span<const Word> w) {
        for (std::size_t i = 0; i < w.size(); ++i) {
            if (w[i] != 0)
                image[la * sys.config().lineBytes + i * kWordBytes] =
                    w[i];
        }
    });
    return image;
}

TEST(SnoopFilterTest, FilteredEqualsExhaustiveOnMixedProtocols)
{
    std::vector<Access> workload = makeWorkload(8, 8000, 2024);

    auto filtered = mixedSystem(true, /*cross_check=*/true);
    auto exhaustive = mixedSystem(false, false);
    runWorkload(*filtered, workload);
    runWorkload(*exhaustive, workload);

    // Identical checker results.  (Not necessarily empty: this mix
    // exposes a pre-existing cross-protocol subtlety - a Firefly
    // write-through broadcast can demote a Dragon owner without a
    // memory push - which both runs must report identically.)
    EXPECT_EQ(filtered->violations(), exhaustive->violations());
    EXPECT_EQ(filtered->checkNow(), exhaustive->checkNow());

    // Identical per-cache line states before flushing...
    EXPECT_EQ(cacheStates(*filtered, 16), cacheStates(*exhaustive, 16));

    // ...identical bus-visible behaviour (transactions, aborts,
    // retries, data words - everything except snoop fan-out)...
    EXPECT_EQ(filtered->bus().stats(), exhaustive->bus().stats());

    // ...and identical flushed memory images.
    EXPECT_EQ(flushedImage(*filtered), flushedImage(*exhaustive));

    // The workload actually exercised the hard paths: Illinois BS
    // aborts happened, and the filter really suppressed snoops.
    EXPECT_GT(filtered->bus().stats().aborts, 0u);
    EXPECT_GT(filtered->bus().filterStats().snoopsSuppressed, 0u);
    EXPECT_EQ(exhaustive->bus().filterStats().snoopsSuppressed, 0u);
}

/** The first structural violation (U/V/H) recorded, or "". */
std::string
firstInvariantViolation(const Fabric &sys)
{
    for (const std::string &v : sys.violations()) {
        if (v.rfind("read of", 0) != 0)
            return v;
    }
    return {};
}

TEST(SnoopFilterTest, IncrementalCheckerMatchesFullScan)
{
    std::vector<Access> workload = makeWorkload(8, 4000, 7);

    SystemConfig full = test::testConfig();
    full.incrementalCheck = false;
    full.allowIncompatibleMix = true;

    auto inc = mixedSystem(true, true);   // incremental (default)
    auto sys_full = std::make_unique<System>(full);
    {
        ProtocolKind kinds[] = {
            ProtocolKind::Moesi,    ProtocolKind::Berkeley,
            ProtocolKind::Dragon,   ProtocolKind::WriteOnce,
            ProtocolKind::Illinois, ProtocolKind::Firefly,
        };
        int i = 0;
        for (ProtocolKind kind : kinds) {
            CacheSpec spec = test::smallCache(kind);
            spec.seed = 100 + i++;
            sys_full->addCache(spec);
        }
        CacheSpec wt = test::smallCache();
        wt.writeThrough = true;
        wt.seed = 100 + i;
        sys_full->addCache(wt);
        sys_full->addNonCachingMaster(true);
    }

    // The incremental scan reports a persistent violation only when
    // its line is re-dirtied, while the full scan re-reports it every
    // access, so the recorded lists are not compared element-wise.
    // Instead a full scan of the incremental system's own state runs
    // after every access.  Each violation it finds that the previous
    // access's scan did not must be in this access's incremental
    // report: only an access that dirties a line can change a word's
    // violation.  (Violations are keyed without the line description
    // that follows " | ": a silently dropped clean copy changes that
    // description without dirtying the line.)  Checked until the
    // ledger's 1000-entry cap truncates the report.
    auto key = [](const std::string &v) {
        return v.substr(0, v.find(" | "));
    };
    std::set<std::string> standing;
    std::size_t newlyFound = 0;
    for (const Access &a : workload) {
        const std::size_t at = inc->violations().size();
        runAccess(*inc, a);
        const std::vector<std::string> &rec = inc->violations();
        if (rec.size() >= 1000)
            continue;
        std::set<std::string> reported;
        for (std::size_t k = at; k < rec.size(); ++k)
            reported.insert(key(rec[k]));
        std::set<std::string> now;
        for (const std::string &v : inc->checkNow()) {
            now.insert(key(v));
            if (standing.count(key(v)) == 0) {
                ++newlyFound;
                EXPECT_EQ(reported.count(key(v)), 1u)
                    << "found only by the full scan: " << v;
            }
        }
        standing = std::move(now);
    }
    EXPECT_GT(newlyFound, 0u);
    runWorkload(*sys_full, workload);

    // What must agree at the end: the first violation each found (so
    // both found the incompatible mix at the same access), the
    // full-scan verdict and the final state of the system.
    ASSERT_FALSE(inc->violations().empty());
    ASSERT_FALSE(sys_full->violations().empty());
    EXPECT_EQ(inc->violations().front(), sys_full->violations().front());
    EXPECT_NE(firstInvariantViolation(*inc), "");
    EXPECT_EQ(firstInvariantViolation(*inc),
              firstInvariantViolation(*sys_full));
    EXPECT_EQ(inc->checkNow(), sys_full->checkNow());
    EXPECT_EQ(flushedImage(*inc), flushedImage(*sys_full));
}

/** MOESI whose M answers a snooped plain read by dropping to S
 *  without intervening: the reader fills from stale memory and
 *  nobody owns the dirty data any more (V1/V2 violations). */
ProtocolTable
silentDowngradeMoesi()
{
    ProtocolTable t = moesiTable();
    SnoopAction a;
    a.next = toState(State::S);
    a.ch = Tri::Assert;
    t.setSnoop(State::M, BusEvent::ReadByCache, {a});
    return t;
}

/**
 * Two clusters of two caches, checked after every access by the
 * incremental or the full scan; cache 0 (cluster 0) runs `broken`.  A
 * harmless fault site arms the quarantine machinery, and the
 * automatic ladder is off: the test pulls and rejoins by hand.
 */
std::unique_ptr<HierSystem>
checkedHier(bool incremental, const ProtocolTable &broken)
{
    HierConfig cfg;
    cfg.checkEveryAccess = true;
    cfg.incrementalCheck = incremental;
    FaultConfig faults;
    faults.seed = 0x42;
    faults.memoryDelay.probability = 0.001;
    cfg.faults = faults;
    cfg.watchdogRounds = 1000000;
    auto sys = std::make_unique<HierSystem>(cfg, 2);
    for (std::size_t i = 0; i < 4; ++i) {
        CacheSpec spec = test::smallCache(
            i < 2 ? ProtocolKind::Moesi : ProtocolKind::Berkeley);
        spec.seed = i + 1;
        if (i == 0)
            spec.table = &broken;
        sys->addCache(i % 2, spec);
    }
    return sys;
}

// The hierarchical leg of the incremental checker's equivalence: a
// broken table's violations and a segment's quarantine and rejoin (its
// caches leave the checker and come back, counted under their cluster
// again) are found alike by per-access incremental and full scans.
TEST(SnoopFilterTest, HierIncrementalCheckerMatchesFullScan)
{
    const ProtocolTable broken = silentDowngradeMoesi();
    auto inc = checkedHier(true, broken);
    auto full = checkedHier(false, broken);
    Rng rng(0x1ec);
    // Accesses to 16 lines from `first`; fresh lines after the rejoin
    // are held by one cluster alone, which H1/H2 then attribute.
    auto drive = [&](int n, LineAddr first) {
        for (int i = 0; i < n; ++i) {
            const auto who = static_cast<MasterId>(rng.below(4));
            const Addr addr = (first * 4 + rng.below(16 * 4)) * 8;
            if (rng.chance(0.4)) {
                const Word v = rng.next();
                inc->write(who, addr, v);
                full->write(who, addr, v);
            } else {
                EXPECT_EQ(inc->read(who, addr).value,
                          full->read(who, addr).value);
            }
        }
    };
    drive(600, 0);
    ASSERT_TRUE(inc->quarantineCluster(1));
    ASSERT_TRUE(full->quarantineCluster(1));
    EXPECT_EQ(inc->checkNow(), full->checkNow());
    drive(600, 0);
    ASSERT_TRUE(inc->reintegrateCluster(1));
    ASSERT_TRUE(full->reintegrateCluster(1));
    EXPECT_EQ(inc->checkNow(), full->checkNow());
    drive(1200, 16);

    // Both scans found the broken table at the same access, with the
    // same first violation.
    ASSERT_FALSE(inc->violations().empty());
    EXPECT_EQ(inc->violations().front(), full->violations().front());
    EXPECT_NE(firstInvariantViolation(*inc), "");
    EXPECT_EQ(firstInvariantViolation(*inc),
              firstInvariantViolation(*full));
    EXPECT_EQ(inc->checkNow(), full->checkNow());
    // Bridge-filter inclusion held throughout: with a holder counted
    // under the wrong cluster after the rejoin, H1/H2 would misfire.
    bool value_violation = false;
    for (const HierSystem *sys : {inc.get(), full.get()}) {
        for (const std::string &v : sys->violations()) {
            EXPECT_NE(v.rfind("H1", 0), 0u) << v;
            EXPECT_NE(v.rfind("H2", 0), 0u) << v;
            value_violation = value_violation || v[0] == 'V';
        }
    }
    EXPECT_TRUE(value_violation);
}

TEST(SnoopFilterTest, HierarchicalFilteredEqualsExhaustive)
{
    auto build = [](bool filter) {
        HierConfig cfg;
        cfg.checkEveryAccess = true;
        cfg.snoopFilter = filter;
        cfg.snoopFilterCrossCheck = filter;
        auto sys = std::make_unique<HierSystem>(cfg, 2);
        for (std::size_t c = 0; c < 2; ++c) {
            for (int i = 0; i < 2; ++i) {
                CacheSpec spec = test::smallCache(
                    i == 0 ? ProtocolKind::Moesi
                           : ProtocolKind::Berkeley);
                spec.seed = 10 * c + i + 1;
                sys->addCache(c, spec);
            }
        }
        return sys;
    };
    auto filtered = build(true);
    auto exhaustive = build(false);

    Rng rng(99);
    for (int i = 0; i < 4000; ++i) {
        MasterId who = static_cast<MasterId>(rng.below(4));
        Addr addr = rng.below(16 * 4) * 8;
        if (rng.chance(0.4)) {
            Word v = rng.next();
            filtered->write(who, addr, v);
            exhaustive->write(who, addr, v);
        } else {
            AccessOutcome a = filtered->read(who, addr);
            AccessOutcome b = exhaustive->read(who, addr);
            EXPECT_EQ(a.value, b.value);
        }
    }
    EXPECT_TRUE(filtered->violations().empty());
    EXPECT_TRUE(exhaustive->violations().empty());
    EXPECT_TRUE(filtered->checkNow().empty());
    EXPECT_TRUE(exhaustive->checkNow().empty());
    for (MasterId id = 0; id < 4; ++id) {
        for (LineAddr la = 0; la < 16; ++la) {
            EXPECT_EQ(filtered->cacheOf(id)->lineState(la * 32),
                      exhaustive->cacheOf(id)->lineState(la * 32))
                << "client " << id << " line " << la;
        }
    }
}

} // namespace
} // namespace fbsim
