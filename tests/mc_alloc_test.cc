/**
 * @file
 * Allocation guard for the exhaustive explorer: successor generation
 * must not touch the heap.  Every allocation this binary makes goes
 * through the counting global operator new below, and each search may
 * allocate a bounded amount per discovered node (the node's state and
 * first-reaching step, the visited set and the event list it expands)
 * but nothing per enumerated transition - a search walks ~25-60 edges
 * per node, so a per-edge allocation blows the bound immediately.
 */

#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "mc/explorer.h"
#include "mc/hier_model.h"
#include "protocols/factory.h"

namespace {

/** Global allocations so far (the tests are single-threaded). */
std::size_t g_allocations = 0;

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

} // namespace
} // namespace fbsim
