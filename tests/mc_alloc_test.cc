/**
 * @file
 * Allocation guards.  Every allocation this binary makes goes through
 * the counting global operator new below.
 *
 * The exhaustive explorer's successor generation must not touch the
 * heap: each search may allocate a bounded amount per discovered node
 * (the node's state and first-reaching step, the visited set and the
 * event list it expands), per batch (the worker threads' tasks and
 * candidate buffers) or per transition-memo fill, but nothing per
 * enumerated transition - a search walks ~25-60 edges per node, so a
 * per-edge allocation blows the bound immediately.
 *
 * The hierarchical timed engine must not allocate per reference: its
 * allocations are bounded by set-up and the caches' working set,
 * independent of how many references run.
 *
 * The coherence checker's per-access scan must not allocate at all
 * once an access's working set has been seen, and neither must a warm
 * flat fabric's accesses, evicting misses included.
 *
 * A muted warning site must not allocate either: campaign workers hit
 * their sites concurrently, long after each has used up its budget.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "hier/hier_engine.h"
#include "mc/search.h"
#include "protocols/factory.h"
#include "sim/system.h"
#include "trace/workloads.h"

namespace {

/** Global allocations so far, by every thread (the explorer's
 *  workers allocate too). */
std::atomic<std::size_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t n)
{
    ++g_allocations;
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace fbsim {
namespace {

/** The bound: a few allocations per node plus set-up, never per edge. */
std::size_t
allocationBudget(std::size_t nodes)
{
    return 10 * nodes + 64;
}

TEST(McAlloc, FlatExploreAllocatesPerNodeNotPerEdge)
{
    mc::ExploreConfig cfg;
    cfg.model.tables.assign(3, &moesiTable());
    cfg.model.lines = 2;

    const std::size_t before = g_allocations;
    mc::ExploreResult res = mc::explore(cfg);
    const std::size_t allocs = g_allocations - before;

    ASSERT_TRUE(res.complete);
    EXPECT_EQ(res.nodes, 1681u);
    EXPECT_LE(allocs, allocationBudget(res.nodes))
        << allocs << " allocations for " << res.nodes << " nodes and "
        << res.edges << " edges";
}

// The same bound with four threads expanding every batch of 64 nodes
// or more.
TEST(McAlloc, ParallelExploreAllocatesPerNodeNotPerEdge)
{
    mc::ExploreConfig cfg;
    cfg.model.tables.assign(4, &moesiTable());
    cfg.model.lines = 2;

    const std::size_t before = g_allocations;
    mc::ExploreResult res = mc::exploreTuned(cfg, {4, mc::kSearchBatch});
    const std::size_t allocs = g_allocations - before;

    ASSERT_TRUE(res.complete);
    EXPECT_EQ(res.nodes, 8464u);
    EXPECT_LE(allocs, allocationBudget(res.nodes))
        << allocs << " allocations for " << res.nodes << " nodes and "
        << res.edges << " edges";
}

TEST(McAlloc, HierExploreAllocatesPerNodeNotPerEdge)
{
    mc::HierExploreConfig cfg;
    cfg.model.base.tables.assign(4, &moesiTable());
    cfg.model.clusterOf = {0, 0, 1, 1};
    cfg.model.base.lines = 1;

    const std::size_t before = g_allocations;
    mc::HierExploreResult res = mc::exploreHier(cfg);
    const std::size_t allocs = g_allocations - before;

    ASSERT_TRUE(res.complete);
    EXPECT_EQ(res.nodes, 117u);
    EXPECT_LE(allocs, allocationBudget(res.nodes))
        << allocs << " allocations for " << res.nodes << " nodes and "
        << res.edges << " edges";
}

TEST(McAlloc, HierEngineAllocatesNothingPerReference)
{
    // 2 clusters x 2 processors, 20,000 references each: one heap
    // allocation per reference would be 80,000.
    HierConfig cfg;
    HierSystem sys(cfg, 2);
    for (std::size_t i = 0; i < 4; ++i) {
        CacheSpec spec;
        spec.numSets = 32;
        spec.assoc = 2;
        spec.seed = i + 1;
        sys.addCache(i % 2, spec);
    }
    Arch85Params params;
    auto streams = makeArch85Streams(params, 4, 3);
    std::vector<RefStream *> raw;
    for (auto &s : streams)
        raw.push_back(s.get());
    HierEngine engine(sys, {});

    const std::size_t before = g_allocations;
    EngineResult r = engine.run(raw, 20000);
    const std::size_t allocs = g_allocations - before;

    ASSERT_EQ(r.procs.size(), 4u);
    EXPECT_LE(allocs, 2000u) << allocs << " allocations for 80000 refs";
}

/** 2 clusters x 4 caches, checked after every access or not. */
std::unique_ptr<HierSystem>
checkedHier(bool checked)
{
    HierConfig cfg;
    cfg.checkEveryAccess = checked;
    auto sys = std::make_unique<HierSystem>(cfg, 2);
    for (std::size_t i = 0; i < 8; ++i) {
        CacheSpec spec;
        spec.numSets = 8;
        spec.assoc = 2;
        spec.seed = i + 1;
        sys->addCache(i % 2, spec);
    }
    return sys;
}

/** 8 caches on one bus, checked after every access or not. */
std::unique_ptr<System>
checkedFlat(bool checked)
{
    SystemConfig cfg;
    cfg.checkEveryAccess = checked;
    auto sys = std::make_unique<System>(cfg);
    for (std::size_t i = 0; i < 8; ++i) {
        CacheSpec spec;
        spec.numSets = 8;
        spec.assoc = 2;
        spec.seed = i + 1;
        sys->addCache(spec);
    }
    return sys;
}

/** Heap allocations made by `n` seeded random accesses to `sys`. */
std::size_t
accessAllocations(Fabric &sys, std::uint64_t seed, int n)
{
    Rng rng(seed);
    const std::size_t before = g_allocations;
    for (int i = 0; i < n; ++i) {
        const auto who = static_cast<MasterId>(rng.below(8));
        const Addr addr = rng.below(48 * 4) * kWordBytes;
        if (rng.chance(0.3))
            sys.write(who, addr, rng.next());
        else
            sys.read(who, addr);
    }
    return g_allocations - before;
}

// The check is isolated by running the same accesses on an unchecked
// twin: the checker never changes what the fabric does, so any
// difference in allocations is the check's own.
TEST(CheckerAlloc, HierPerAccessCheckAllocatesNothing)
{
    auto checked = checkedHier(true);
    auto unchecked = checkedHier(false);
    // Warm-up: every line of the working set is written (the oracle
    // holds its slab) and every buffer has reached its size.
    accessAllocations(*checked, 1, 20000);
    accessAllocations(*unchecked, 1, 20000);

    const std::size_t with_check = accessAllocations(*checked, 2, 20000);
    const std::size_t without = accessAllocations(*unchecked, 2, 20000);
    EXPECT_TRUE(checked->violations().empty());
    EXPECT_EQ(checked->checker().checksRun(), 40000u);
    EXPECT_EQ(with_check, without)
        << with_check - without << " allocations in 20000 checks";
    // Warm accesses allocate nothing at all: the bridges' filters are
    // open-addressing line sets.
    EXPECT_EQ(without, 0u);
}

// The flat twin allocates nothing at all once warm: a miss reuses its
// cache's eviction scratch and the bus's line buffers, and the check
// allocates nothing either.
TEST(CheckerAlloc, FlatAccessesAllocateNothing)
{
    auto checked = checkedFlat(true);
    auto unchecked = checkedFlat(false);
    accessAllocations(*checked, 1, 20000);
    accessAllocations(*unchecked, 1, 20000);

    EXPECT_EQ(accessAllocations(*unchecked, 2, 20000), 0u);
    EXPECT_EQ(accessAllocations(*checked, 2, 20000), 0u);
    EXPECT_TRUE(checked->violations().empty());
    EXPECT_GT(unchecked->cacheOf(0)->stats().evictions, 0u);
}

TEST(WarnAlloc, MutedSiteAllocatesNothing)
{
    resetWarnStats();
    setWarnSiteLimit(2);
    auto warn = [](int i) { fbsim_warn("muted warning %d", i); };
    warn(0);   // registers the site and spends its budget
    warn(1);
    const std::size_t before = g_allocations;
    for (int i = 0; i < 1000; ++i)
        warn(i);
    const std::size_t allocated = g_allocations - before;
    EXPECT_EQ(allocated, 0u);
    EXPECT_EQ(warnStats().emitted, 2u);
    EXPECT_EQ(warnStats().suppressed, 1000u);
    setWarnSiteLimit(kDefaultWarnSiteLimit);
    resetWarnStats();
}

} // namespace
} // namespace fbsim
