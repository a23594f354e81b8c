/**
 * @file
 * The explorer's search is the same at every worker count and batch
 * size: node indices, depth, both fingerprints, the node-cap cut and
 * the counterexample (its steps, choices, violations and final state)
 * match the one-worker, one-node-batch search byte for byte.  That
 * reference merges each node before the next is expanded, which is the
 * serial breadth-first search.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "mc/search.h"
#include "protocols/factory.h"
#include "test_util.h"

namespace fbsim {
namespace {

using test::doubleInterventionMoesi;
using test::renderExploreResult;

constexpr mc::SearchTuning kSerial{1, 1};

/** Every pairing of `workers` and `batches`, plus the public entry's
 *  own choice (every hardware thread, the default batch). */
std::vector<mc::SearchTuning>
tunings(std::initializer_list<unsigned> workers,
        std::initializer_list<std::size_t> batches)
{
    std::vector<mc::SearchTuning> out;
    for (unsigned w : workers) {
        for (std::size_t batch : batches)
            out.push_back({w, batch});
    }
    out.push_back({});
    return out;
}

const std::vector<mc::SearchTuning> kFullMatrix =
    tunings({1, 2, 3, 4}, {1, 7, 64, mc::kSearchBatch});
/** The multi-threaded corner of the full matrix (batches of 64 nodes
 *  or more are the ones expanded on several threads), for the graphs
 *  too large to search 17 times under the sanitizers. */
const std::vector<mc::SearchTuning> kParallelMatrix =
    tunings({2, 3, 4}, {64, mc::kSearchBatch});

/** Run `cfg` at every tuning of `matrix`; each result must equal the
 *  serial one.  Returns the serial result. */
template <class Cfg, class Explore, class RenderState>
auto
expectSameAtEveryTuning(const Cfg &cfg, Explore explore,
                        RenderState render_state,
                        const std::vector<mc::SearchTuning> &matrix,
                        const std::string &what)
{
    const auto want = explore(cfg, kSerial);
    const std::string want_text = renderExploreResult(want, render_state);
    for (const mc::SearchTuning &t : matrix) {
        const auto got = explore(cfg, t);
        EXPECT_EQ(renderExploreResult(got, render_state), want_text)
            << what << " at " << t.workers << " worker(s), batch "
            << t.batch;
        if (got.counterexample && want.counterexample) {
            EXPECT_TRUE(got.counterexample->finalState ==
                        want.counterexample->finalState)
                << what;
        }
    }
    return want;
}

mc::ExploreResult
checkFlat(const std::vector<const ProtocolTable *> &tables,
          std::size_t lines, const std::vector<mc::SearchTuning> &matrix,
          const std::string &what, std::size_t max_nodes = 1u << 20)
{
    mc::ExploreConfig cfg;
    cfg.model.tables = tables;
    cfg.model.lines = lines;
    cfg.maxNodes = max_nodes;
    return expectSameAtEveryTuning(
        cfg, mc::exploreTuned,
        [&](const mc::ModelState &st) {
            return mc::renderStateVector(cfg.model, st);
        },
        matrix, what);
}

mc::HierExploreResult
checkHier(const std::vector<const ProtocolTable *> &tables,
          const std::vector<std::uint8_t> &cluster_of, std::size_t lines,
          const std::vector<mc::SearchTuning> &matrix,
          const std::string &what, std::size_t max_nodes = 1u << 20)
{
    mc::HierExploreConfig cfg;
    cfg.model.base.tables = tables;
    cfg.model.base.lines = lines;
    cfg.model.clusterOf = cluster_of;
    cfg.maxNodes = max_nodes;
    return expectSameAtEveryTuning(
        cfg, mc::exploreHierTuned,
        [&](const mc::HierModelState &st) {
            return mc::renderHierStateVector(cfg.model, st);
        },
        matrix, what);
}

std::string
mixName(const std::vector<const ProtocolTable *> &tables)
{
    std::string out;
    for (const ProtocolTable *t : tables)
        out += (out.empty() ? "" : ",") + t->name();
    return out;
}

// MOESI with no action for an O owner snooping a plain read: an illegal
// step two transitions deep.
ProtocolTable
emptyOwnedReadMoesi()
{
    ProtocolTable t = moesiTable();
    t.setSnoop(State::O, BusEvent::ReadByCache, {});
    return t;
}

TEST(McParallel, EveryProtocolThreeCachesTwoLines)
{
    for (ProtocolKind kind : kAllProtocolKinds) {
        const std::vector<const ProtocolTable *> tables(
            3, &protocolTable(kind));
        mc::ExploreResult res =
            checkFlat(tables, 2, kFullMatrix, mixName(tables));
        EXPECT_TRUE(res.complete) << mixName(tables);
    }
}

TEST(McParallel, EveryProtocolFourCachesTwoLines)
{
    for (ProtocolKind kind : kAllProtocolKinds) {
        const std::vector<const ProtocolTable *> tables(
            4, &protocolTable(kind));
        mc::ExploreResult res =
            checkFlat(tables, 2, kParallelMatrix, mixName(tables));
        EXPECT_TRUE(res.complete) << mixName(tables);
        // More than one default batch.
        EXPECT_GT(res.nodes, mc::kSearchBatch) << mixName(tables);
    }
}

// Write-Once beside O-state members collides (mc_test's pinned
// finding); the corrupted tables fail two steps deep, where the search
// already expands batches on several threads and several nodes of one
// batch violate.
TEST(McParallel, CounterexamplesAreTheSerialOnes)
{
    const ProtocolTable &wo = writeOnceTable();
    const ProtocolTable &moesi = moesiTable();
    const std::vector<std::vector<const ProtocolTable *>> mixes = {
        {&wo, &wo, &moesi},
        {&moesi, &wo, &berkeleyTable()},
        {&illinoisTable(), &wo, &moesi},
        {&fireflyTable(), &wo, &dragonTable()},
    };
    for (const auto &tables : mixes) {
        mc::ExploreResult res =
            checkFlat(tables, 2, kFullMatrix, mixName(tables));
        EXPECT_TRUE(res.counterexample.has_value()) << mixName(tables);
    }

    const ProtocolTable di = doubleInterventionMoesi();
    const ProtocolTable empty_o = emptyOwnedReadMoesi();
    for (const ProtocolTable *bad : {&di, &empty_o}) {
        const std::vector<const ProtocolTable *> tables(4, bad);
        mc::ExploreResult res =
            checkFlat(tables, 2, kFullMatrix, "corrupted MOESI x4");
        ASSERT_TRUE(res.counterexample.has_value());
        EXPECT_EQ(res.counterexample->steps.size(), 3u);
    }
}

TEST(McParallel, ClusterMaps)
{
    const ProtocolTable &moesi = moesiTable();
    const ProtocolTable &berkeley = berkeleyTable();
    const ProtocolTable &dragon = dragonTable();
    EXPECT_TRUE(checkHier({&moesi, &berkeley, &dragon}, {0, 0, 1}, 2,
                          kParallelMatrix, "MOESI,Berkeley | Dragon")
                    .complete);
    EXPECT_TRUE(checkHier({&moesi, &berkeley, &dragon}, {0, 1, 2}, 2,
                          kParallelMatrix, "MOESI | Berkeley | Dragon")
                    .complete);
    EXPECT_TRUE(checkHier({&moesi, &berkeley, &dragon, &moesi},
                          {0, 0, 1, 2}, 1, kFullMatrix,
                          "MOESI,Berkeley | Dragon | MOESI")
                    .complete);

    // Illegal steps under bridges, at depth 1 and (corrupted tables,
    // interleaved clusters) inside multi-threaded batches.
    const ProtocolTable &illinois = illinoisTable();
    EXPECT_TRUE(checkHier({&illinois, &illinois, &illinois, &illinois},
                          {0, 1, 0, 1}, 2, kFullMatrix, "Illinois x4")
                    .counterexample.has_value());
    const ProtocolTable di = doubleInterventionMoesi();
    EXPECT_TRUE(checkHier({&di, &di, &di, &di}, {0, 0, 1, 1}, 2,
                          kFullMatrix, "double-intervening MOESI x4")
                    .counterexample.has_value());
    const ProtocolTable empty_o = emptyOwnedReadMoesi();
    EXPECT_TRUE(checkHier({&empty_o, &empty_o, &empty_o, &empty_o},
                          {0, 1, 0, 1}, 2, kFullMatrix,
                          "owner-less MOESI x4")
                    .counterexample.has_value());
}

// The node cap cuts at the first unvisited candidate in merge order,
// with the edge count and fingerprint of that exact prefix.
TEST(McParallel, CapsInsideParallelBatches)
{
    const std::vector<const ProtocolTable *> moesi4(4, &moesiTable());
    const std::vector<const ProtocolTable *> mbd = {
        &moesiTable(), &berkeleyTable(), &dragonTable()};
    for (std::size_t cap : {333u, 2000u}) {
        const std::string what = strprintf("cap %zu", cap);
        mc::ExploreResult flat =
            checkFlat(moesi4, 2, kFullMatrix, "MOESI x4, " + what, cap);
        EXPECT_FALSE(flat.complete);
        EXPECT_EQ(flat.nodes, cap);
        mc::HierExploreResult hier = checkHier(
            mbd, {0, 1, 2}, 2, kFullMatrix, "MOESI | Berkeley | Dragon, " +
                                                what, cap);
        EXPECT_FALSE(hier.complete);
        EXPECT_EQ(hier.nodes, cap);
    }
}

} // namespace
} // namespace fbsim
