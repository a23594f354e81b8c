/**
 * @file
 * Exhaustive model checker tests: the compatibility theorem holds over
 * the full bounded state space of every shipped protocol, the state
 * graphs match pinned golden fingerprints, and a deliberately corrupted
 * table yields a short counterexample that reproduces on the real
 * engine.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "mc/explorer.h"
#include "mc/hier_model.h"
#include "mc/replay.h"
#include "protocols/factory.h"
#include "test_util.h"

namespace fbsim {
namespace {

using test::doubleInterventionMoesi;
using test::renderSteps;

mc::ExploreResult
exploreHomogeneous(ProtocolKind kind, std::size_t caches,
                   std::size_t lines)
{
    mc::ExploreConfig cfg;
    cfg.model.tables.assign(caches, &protocolTable(kind));
    cfg.model.lines = lines;
    return mc::explore(cfg);
}

// Graph shape of a flat or hierarchical run, pinned field by field.
template <class Result>
void
expectGraph(const Result &res, std::size_t nodes, std::size_t edges,
            std::size_t depth, std::uint64_t node_fp, std::uint64_t edge_fp)
{
    EXPECT_EQ(res.nodes, nodes);
    EXPECT_EQ(res.edges, edges);
    EXPECT_EQ(res.depth, depth);
    EXPECT_EQ(res.nodeFingerprint, node_fp);
    EXPECT_EQ(res.edgeFingerprint, edge_fp);
}

// The theorem's base case: every protocol of Tables 1-7, alone, keeps
// the invariants over its ENTIRE reachable space - every event at
// every cache under every table-alternative combination.
TEST(McExhaustive, EveryProtocolCleanTwoCaches)
{
    for (ProtocolKind kind : kAllProtocolKinds) {
        mc::ExploreResult res = exploreHomogeneous(kind, 2, 1);
        EXPECT_TRUE(res.complete)
            << protocolKindName(kind) << " did not finish";
        EXPECT_FALSE(res.counterexample)
            << protocolKindName(kind) << ": "
            << res.counterexample->violations[0];
        EXPECT_GT(res.nodes, 4u);
    }
}

// Wider geometry: three caches, two lines, still exhaustive.
TEST(McExhaustive, EveryProtocolCleanThreeCachesTwoLines)
{
    for (ProtocolKind kind : kAllProtocolKinds) {
        mc::ExploreResult res = exploreHomogeneous(kind, 3, 2);
        EXPECT_TRUE(res.complete) << protocolKindName(kind);
        EXPECT_FALSE(res.counterexample)
            << protocolKindName(kind) << ": "
            << res.counterexample->violations[0];
    }
}

// The compatibility claim proper: protocols that keep ownership
// transfer on the bus (MOESI, Berkeley, Dragon, Illinois, Firefly)
// can be mixed freely on one bus.
TEST(McExhaustive, MixedOwnershipProtocolsCompatible)
{
    mc::ExploreConfig cfg;
    cfg.model.tables = {&moesiTable(), &berkeleyTable(),
                        &dragonTable()};
    cfg.model.lines = 1;
    mc::ExploreResult res = mc::explore(cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.counterexample)
        << res.counterexample->violations[0];

    cfg.model.tables = {&moesiTable(), &berkeleyTable(), &dragonTable(),
                        &illinoisTable()};
    res = mc::explore(cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.counterexample)
        << res.counterexample->violations[0];
}

// Golden state-graph fingerprints (2 caches x 1 line).  These pin the
// exact reachable graph - node count, transition count and the
// order-independent hashes over states and edges - so ANY change to a
// table cell, to choice enumeration or to the transition semantics
// shows up as a diff here before it shows up anywhere subtler.
TEST(McGolden, BerkeleyFingerprint)
{
    mc::ExploreResult res =
        exploreHomogeneous(ProtocolKind::Berkeley, 2, 1);
    ASSERT_TRUE(res.complete);
    EXPECT_EQ(res.nodes, 10u);
    EXPECT_EQ(res.edges, 58u);
    EXPECT_EQ(res.depth, 3u);
    EXPECT_EQ(res.nodeFingerprint, 0x08726ee66a899084ull);
    EXPECT_EQ(res.edgeFingerprint, 0xce0728863f72ef92ull);
}

TEST(McGolden, IllinoisFingerprint)
{
    mc::ExploreResult res =
        exploreHomogeneous(ProtocolKind::Illinois, 2, 1);
    ASSERT_TRUE(res.complete);
    EXPECT_EQ(res.nodes, 8u);
    EXPECT_EQ(res.edges, 42u);
    EXPECT_EQ(res.depth, 3u);
    EXPECT_EQ(res.nodeFingerprint, 0x15794a61d0c7818aull);
    EXPECT_EQ(res.edgeFingerprint, 0xab2952b69e607678ull);
}

// The perfbench mc-explore graphs: a four-protocol class mix on one bus,
// and a node-capped run of it (the cap stops mid-level, so the partial
// counts pin the enumeration order, not just the reachable set).
TEST(McGolden, FourProtocolMixFingerprint)
{
    mc::ExploreConfig cfg;
    cfg.model.tables = {&moesiTable(), &berkeleyTable(), &dragonTable(),
                        &moesiTable()};
    cfg.model.lines = 2;
    mc::ExploreResult res = mc::explore(cfg);
    EXPECT_TRUE(res.complete);
    expectGraph(res, 6724, 269944, 8, 0x279fc1333d8311fdull,
                0x8b600fda41b15b2dull);

    cfg.maxNodes = 100;
    res = mc::explore(cfg);
    EXPECT_FALSE(res.complete);
    EXPECT_FALSE(res.counterexample);
    expectGraph(res, 100, 217, 1, 0xcb208c44fb91afecull,
                0xe2c8fe3fbae3b35aull);
}

// A deliberately corrupted Illinois table: S on a local write silently
// jumps to M without any bus transaction (the classic forgotten
// invalidate).  The checker must find it, the counterexample must be
// short, and it must REPRODUCE on the real engine: replaying the
// recorded choice script through real caches leaves the live
// CoherenceChecker reporting violations of the same invariants.
TEST(McCounterexample, CorruptedTableFoundAndReplayed)
{
    ProtocolTable bad = illinoisTable();
    LocalAction silent_jump;
    silent_jump.next = toState(State::M);
    silent_jump.usesBus = false;
    bad.setLocal(State::S, LocalEvent::Write, {silent_jump});

    mc::ExploreConfig cfg;
    cfg.model.tables = {&bad, &bad};
    cfg.model.lines = 1;
    mc::ExploreResult res = mc::explore(cfg);

    ASSERT_TRUE(res.counterexample.has_value());
    const mc::Counterexample &cex = *res.counterexample;
    EXPECT_LE(cex.steps.size(), 20u);
    ASSERT_FALSE(cex.violations.empty());

    // The exact minimal trace, byte for byte.
    expectGraph(res, 6, 28, 2, 0x352d1119a7af1e38ull,
                0x2a330ec702324e80ull);
    EXPECT_EQ(renderSteps(cex.steps), "0.0 Read c0:0/1\n"
                                      "1.0 Read c1:0/1 c0:0/1\n"
                                      "0.0 Write c0:0/1\n");
    const std::string state =
        " | line 0x0: c0:M[0x1] c1:S[0x0] mem[0x0] image[0x1]";
    const std::vector<std::string> want = {
        "V1: cache 1 holds line 0x0 = 0x0 in state S, shared image is 0x1" +
            state,
        "U1: line 0x0 has 1 exclusive holder(s) among 2 valid holder(s)" +
            state};
    EXPECT_EQ(cex.violations, want);
    EXPECT_EQ(mc::renderStateVector(cfg.model, cex.finalState), state);

    mc::ReplayResult rr =
        mc::replayTrace(cfg.model, cex.steps, /*expect_violation=*/true);
    EXPECT_TRUE(rr.ok) << (rr.errors.empty() ? "" : rr.errors[0]);
    EXPECT_FALSE(rr.systemViolations.empty());
}

// A genuine finding, pinned as a regression: Write-Once's write-through
// write (column 6, one word on the bus) collides with an O-state
// owner's DI response - the owner captures the word instead of memory
// and then invalidates per column 6, dropping the only current copy,
// while the Write-Once master moves to E believing memory caught it.
// Homogeneous Write-Once can never pair an S writer with a dirty
// owner, so the shipped Table 5 is self-consistent; the mix is not.
TEST(McCounterexample, WriteOnceOwnerCollisionPinned)
{
    mc::ExploreConfig cfg;
    cfg.model.tables = {&moesiTable(), &writeOnceTable()};
    cfg.model.lines = 1;
    mc::ExploreResult res = mc::explore(cfg);

    ASSERT_TRUE(res.counterexample.has_value());
    const mc::Counterexample &cex = *res.counterexample;
    EXPECT_LE(cex.steps.size(), 20u);
    expectGraph(res, 8, 21, 1, 0x748e62587547ccb0ull,
                0xb41cc90da3a6368aull);
    EXPECT_EQ(renderSteps(cex.steps),
              "0.0 Write c0:0/2\n"
              "1.0 Write c1:1/2 c1:0/1 c0:0/1 c1:0/1 c0:0/1\n");
    const std::string state =
        " | line 0x0: c0:I c1:E[0x2] mem[0x0] image[0x2]";
    const std::vector<std::string> want = {
        "V3: cache 1 line 0x0 in E = 0x2 but memory = 0x0" + state,
        "V2: line 0x0 unowned; memory = 0x0, shared image is 0x2" + state};
    EXPECT_EQ(cex.violations, want);
    EXPECT_EQ(mc::renderStateVector(cfg.model, cex.finalState), state);

    // It is no model artifact: the real engine reaches the same state.
    mc::ReplayResult rr =
        mc::replayTrace(cfg.model, cex.steps, /*expect_violation=*/true);
    EXPECT_TRUE(rr.ok) << (rr.errors.empty() ? "" : rr.errors[0]);
    EXPECT_FALSE(rr.systemViolations.empty());

    // Without the O state on the other side the collision cannot
    // arise: Illinois and Firefly abort-push instead of intervening.
    cfg.model.tables = {&illinoisTable(), &writeOnceTable()};
    res = mc::explore(cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.counterexample)
        << res.counterexample->violations[0];
}

// Conformance sampling: replay clean traces (BFS paths to the deepest
// states) through the engine and require byte-identical state vectors
// at every step.  The corrupted-table and differential tests cover the
// violating and random-walk cases; this covers canonical clean paths.
TEST(McReplay, CleanPathsMatchEngine)
{
    for (ProtocolKind kind :
         {ProtocolKind::Moesi, ProtocolKind::Dragon,
          ProtocolKind::WriteOnce}) {
        mc::ExploreConfig cfg;
        cfg.model.tables.assign(2, &protocolTable(kind));
        cfg.model.lines = 1;

        // Drive a fixed exercise sequence, recording choices with the
        // odometer's first combination (the paper-preferred one).
        mc::ModelState st = mc::initialState(cfg.model);
        mc::PreferredFeed feed;
        std::vector<mc::TraceStep> steps;
        const mc::ModelEvent seq[] = {
            {0, 0, LocalEvent::Read},  {1, 0, LocalEvent::Write},
            {0, 0, LocalEvent::Read},  {0, 0, LocalEvent::Write},
            {1, 0, LocalEvent::Read},  {0, 0, LocalEvent::Flush},
            {1, 0, LocalEvent::Write}, {0, 0, LocalEvent::Read},
        };
        for (const mc::ModelEvent &ev : seq) {
            // Skip events illegal in the current state (e.g. Flush
            // with nothing held - the engine treats it as a no-op that
            // draws nothing, so skipping keeps the tapes aligned).
            bool legal = false;
            for (const mc::ModelEvent &l :
                 mc::legalEvents(cfg.model, st))
                legal = legal || (l == ev);
            if (!legal)
                continue;
            mc::TraceStep step;
            step.event = ev;
            mc::StepResult r =
                mc::stepModel(cfg.model, st, ev, feed, &step.choices);
            ASSERT_TRUE(r.ok) << protocolKindName(kind);
            steps.push_back(std::move(step));
        }
        ASSERT_GE(steps.size(), 6u);

        mc::ReplayResult rr = mc::replayTrace(cfg.model, steps,
                                              /*expect_violation=*/false);
        EXPECT_TRUE(rr.ok)
            << protocolKindName(kind) << ": "
            << (rr.errors.empty() ? "" : rr.errors[0]);
    }
}

// The odometer itself: a cell of size 3 then a dependent tail must
// enumerate exactly the leaves of the choice tree, in order.
TEST(McOdometer, EnumeratesChoiceTree)
{
    mc::OdoFeed odo;
    std::vector<std::vector<std::size_t>> seen;
    do {
        odo.rewind();
        std::vector<std::size_t> run;
        run.push_back(odo.pick(0, 3));
        // The tail exists only on branch 1 (mimicking a choice that
        // opens further choices).
        if (run[0] == 1)
            run.push_back(odo.pick(0, 2));
        seen.push_back(run);
    } while (odo.advance());

    const std::vector<std::vector<std::size_t>> want = {
        {0}, {1, 0}, {1, 1}, {2}};
    EXPECT_EQ(seen, want);
}

// --- Two-level hierarchy: BusBridge semantics in the model ---

mc::HierExploreResult
exploreHier2x2(ProtocolKind kind)
{
    mc::HierExploreConfig cfg;
    cfg.model.base.tables.assign(4, &protocolTable(kind));
    cfg.model.clusterOf = {0, 0, 1, 1};
    cfg.model.base.lines = 1;
    return mc::exploreHier(cfg);
}

// Every MOESI-class protocol keeps the flat invariants AND the bridge
// filter invariants (H1 inclusion, H2 remote visibility) over the full
// reachable space of a 2-leaf x 2-cache hierarchy.
TEST(McHier, MoesiClassCleanTwoClusters)
{
    for (ProtocolKind kind : {ProtocolKind::Moesi, ProtocolKind::Berkeley,
                              ProtocolKind::Dragon}) {
        mc::HierExploreResult res = exploreHier2x2(kind);
        EXPECT_TRUE(res.complete)
            << protocolKindName(kind) << " did not finish";
        EXPECT_FALSE(res.counterexample)
            << protocolKindName(kind) << ": "
            << res.counterexample->violations[0];
        EXPECT_GT(res.nodes, 16u);
    }
}

// Mixed MOESI-class tables across the two leaves: the compatibility
// claim survives the bridge.
TEST(McHier, MixedClustersCompatible)
{
    mc::HierExploreConfig cfg;
    cfg.model.base.tables = {&moesiTable(), &berkeleyTable(),
                             &dragonTable(), &moesiTable()};
    cfg.model.clusterOf = {0, 0, 1, 1};
    cfg.model.base.lines = 1;
    mc::HierExploreResult res = mc::exploreHier(cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.counterexample)
        << res.counterexample->violations[0];
}

// Golden hierarchical state-graph fingerprint (2 leaves x 2 caches,
// MOESI, 1 line).  The canonical key includes every bridge's
// localHeld/remoteShared bits, so any drift in the bridge's forward,
// filter-maintenance or CH-propagation rules - in the model or,
// via the differential suite, in the engine - lands here first.
TEST(McHierGolden, MoesiTwoLeafFingerprint)
{
    mc::HierExploreResult res = exploreHier2x2(ProtocolKind::Moesi);
    ASSERT_TRUE(res.complete);
    EXPECT_EQ(res.nodes, 117u);
    EXPECT_EQ(res.edges, 3196u);
    EXPECT_EQ(res.depth, 4u);
    EXPECT_EQ(res.nodeFingerprint, 0x2f36effa7436cfacull);
    EXPECT_EQ(res.edgeFingerprint, 0x31e6485c196cba92ull);
}

// The perfbench hier graph: MOESI + Berkeley on one leaf, Dragon on the
// other, two lines.
TEST(McHierGolden, MixedTwoLeafTwoLineFingerprint)
{
    mc::HierExploreConfig cfg;
    cfg.model.base.tables = {&moesiTable(), &berkeleyTable(),
                             &dragonTable()};
    cfg.model.clusterOf = {0, 0, 1};
    cfg.model.base.lines = 2;
    mc::HierExploreResult res = mc::exploreHier(cfg);
    EXPECT_TRUE(res.complete);
    expectGraph(res, 2401, 55860, 8, 0xfebcb22a7e96ad07ull,
                0xd52a390fb9d1d27bull);
}

// A node-capped hier run stops mid-level with these exact partial counts.
TEST(McHierGolden, CappedMoesiTwoLeaf)
{
    mc::HierExploreConfig cfg;
    cfg.model.base.tables.assign(4, &moesiTable());
    cfg.model.clusterOf = {0, 0, 1, 1};
    cfg.model.base.lines = 1;
    cfg.maxNodes = 50;
    mc::HierExploreResult res = mc::exploreHier(cfg);
    EXPECT_FALSE(res.complete);
    EXPECT_FALSE(res.counterexample);
    expectGraph(res, 50, 200, 2, 0xd12d6faef9d6ef01ull,
                0x675b2ace87fdb64dull);
}

// Abort-class protocols cannot live below a bridge: BS cannot cross,
// so the explorer must surface a counterexample that says exactly
// that, rather than wandering into undefined behaviour.
TEST(McHier, AbortProtocolRejectedUnderBridge)
{
    mc::HierExploreConfig cfg;
    cfg.model.base.tables.assign(4, &illinoisTable());
    cfg.model.clusterOf = {0, 0, 1, 1};
    cfg.model.base.lines = 1;
    mc::HierExploreResult res = mc::exploreHier(cfg);
    ASSERT_TRUE(res.counterexample.has_value());
    const mc::HierCounterexample &cex = *res.counterexample;

    // The illegal step, pinned byte for byte: its violation renders the
    // global cache ids, the full render the leaf-local ones.
    expectGraph(res, 13, 22, 1, 0xc8b38574f4b1f800ull,
                0xdc190300c90aadfcull);
    EXPECT_EQ(renderSteps(cex.steps), "0.0 Write c0:0/1\n"
                                      "1.0 Read c1:0/1 c0:0/1\n");
    const std::vector<std::string> want = {
        "MC-hier: Illinois cache 0 asserted BS on a leaf bus (aborts "
        "cannot cross a bridge) | line 0x0: c0:M[0x1] c1:I c2:I c3:I "
        "mem[0x0] image[0x1] | flt 0x0: b0:L- b1:-R"};
    EXPECT_EQ(cex.violations, want);
    EXPECT_EQ(mc::renderHierStateVector(cfg.model, cex.finalState),
              " | line 0x0: c0:M[0x1] c1:I c0:I c1:I mem[0x0] image[0x1]"
              " | flt 0x0: b0:L- b1:-R");
}

// --- The model's bus half, pinned failure by failure ---
//
// Each corrupted table below drives the executor into one illegal-step
// branch of its bus transaction.  The graph, the trace and the
// violation string are pinned, so the wording and the point where the
// step stops stay exact.

// A counterexample's trace and its single violation, byte for byte.
template <class Result>
void
expectFailure(const Result &res, const std::string &steps,
              const std::string &violation)
{
    ASSERT_TRUE(res.counterexample.has_value());
    EXPECT_EQ(renderSteps(res.counterexample->steps), steps);
    EXPECT_EQ(res.counterexample->violations,
              std::vector<std::string>{violation});
}

TEST(McCounterexample, FlatDoubleInterventionPinned)
{
    const ProtocolTable bad = doubleInterventionMoesi();
    mc::ExploreConfig cfg;
    cfg.model.tables = {&bad, &bad, &bad};
    cfg.model.lines = 1;
    mc::ExploreResult res = mc::explore(cfg);
    expectGraph(res, 27, 107, 2, 0x0d31f963ecc0c92cull,
                0xc391c152666a65e9ull);
    expectFailure(res,
                  "0.0 Read c0:0/1\n"
                  "1.0 Read c1:0/1 c0:0/1\n"
                  "2.0 Read c2:0/1 c0:0/1 c1:0/1\n",
                  "MC: caches 0 and 1 both intervened on line 0 | line "
                  "0x0: c0:S[0x0] c1:S[0x0] c2:I mem[0x0] image[0x0]");
}

TEST(McCounterexample, FlatEmptySnoopCellPinned)
{
    ProtocolTable bad = moesiTable();
    bad.setSnoop(State::M, BusEvent::ReadByCache, {});
    mc::ExploreConfig cfg;
    cfg.model.tables = {&bad, &bad};
    cfg.model.lines = 1;
    mc::ExploreResult res = mc::explore(cfg);
    expectGraph(res, 8, 21, 1, 0xc58c05f851af1fa6ull,
                0xdce3109adac11845ull);
    expectFailure(res,
                  "0.0 Write c0:0/2\n"
                  "1.0 Read c1:0/1\n",
                  "MC: MOESI cache 0: illegal bus event col 5 on line 0 "
                  "in state M | line 0x0: c0:M[0x1] c1:I mem[0x0] "
                  "image[0x1]");
}

// An Illinois M that aborts a read and "pushes" into M again: every
// retry aborts, so the transaction never converges.
TEST(McCounterexample, FlatNonConvergencePinned)
{
    ProtocolTable bad = illinoisTable();
    SnoopAction abort;
    abort.bs = true;
    abort.pushState = State::M;
    bad.setSnoop(State::M, BusEvent::ReadByCache, {abort});
    mc::ExploreConfig cfg;
    cfg.model.tables = {&bad, &bad};
    cfg.model.lines = 1;
    mc::ExploreResult res = mc::explore(cfg);
    expectGraph(res, 6, 14, 1, 0x352d1119a7af1e38ull,
                0x866e33087a3d7e16ull);
    // The first round and all 16 retries consult the owner.
    std::string read = "1.0 Read c1:0/1";
    for (int round = 0; round <= 16; ++round)
        read += " c0:0/1";
    expectFailure(res, "0.0 Write c0:0/1\n" + read + "\n",
                  "MC: transaction on line 0 did not converge after 16 "
                  "retries | line 0x0: c0:M[0x1] c1:I mem[0x1] "
                  "image[0x1]");
}

// A read from the other cluster reaches the M owner through a
// down-forward, where its BS cannot be served.
TEST(McCounterexample, BsUnderBridgePinned)
{
    mc::HierExploreConfig cfg;
    cfg.model.base.tables.assign(4, &illinoisTable());
    cfg.model.clusterOf = {0, 1, 0, 1};
    cfg.model.base.lines = 1;
    mc::HierExploreResult res = mc::exploreHier(cfg);
    expectGraph(res, 13, 22, 1, 0xb3d320903d9001deull,
                0x4c7b16ed543848a5ull);
    expectFailure(res,
                  "0.0 Write c0:0/1\n"
                  "1.0 Read c1:0/1 c0:0/1\n",
                  "MC-hier: Illinois cache 0 asserted BS under a bridge | "
                  "line 0x0: c0:M[0x1] c1:I c2:I c3:I mem[0x0] "
                  "image[0x1] | flt 0x0: b0:L- b1:-R");
}

// The double-intervening S across three one-cache clusters: the root
// sees two bridges answer DI.
TEST(McCounterexample, ClustersBothIntervenePinned)
{
    const ProtocolTable bad = doubleInterventionMoesi();
    mc::HierExploreConfig cfg;
    cfg.model.base.tables = {&bad, &bad, &bad};
    cfg.model.clusterOf = {0, 1, 2};
    cfg.model.base.lines = 1;
    mc::HierExploreResult res = mc::exploreHier(cfg);
    expectGraph(res, 37, 116, 2, 0x4acdfb363bc7e831ull,
                0x24fbe350eb2c98f4ull);
    expectFailure(res,
                  "0.0 Read c0:0/1\n"
                  "1.0 Read c1:0/1 c0:0/1\n"
                  "2.0 Read c2:0/1 c0:0/1 c1:0/1\n",
                  "MC-hier: clusters 0 and 1 both intervened on line 0 | "
                  "line 0x0: c0:S[0x0] c1:S[0x0] c2:I mem[0x0] "
                  "image[0x0] | flt 0x0: b0:LR b1:LR b2:-R");
}

// Beyond two clusters the down-forwards resolve CH conservatively.
TEST(McHierGolden, ThreeClusterConservativeChFingerprint)
{
    mc::HierExploreConfig cfg;
    cfg.model.base.tables = {&moesiTable(), &berkeleyTable(),
                             &dragonTable()};
    cfg.model.clusterOf = {0, 1, 2};
    cfg.model.base.lines = 1;
    mc::HierExploreResult res = mc::exploreHier(cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.counterexample);
    expectGraph(res, 88, 978, 5, 0xbb5465c3c199d602ull,
                0x81b68233dcb2d38dull);
}

// Two abort-push protocols beside an intervening one, on two lines: the
// BS retry loop and the push run on every line.
TEST(McGolden, AbortPushMixFingerprint)
{
    mc::ExploreConfig cfg;
    cfg.model.tables = {&illinoisTable(), &fireflyTable(), &moesiTable()};
    cfg.model.lines = 2;
    mc::ExploreResult res = mc::explore(cfg);
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.counterexample);
    expectGraph(res, 529, 12558, 6, 0x275a90a38dfcd2f1ull,
                0x92eb1e5a7513fe86ull);
}

/** Every mix of `n` of the six protocols, with repetition, each in
 *  kAllProtocolKinds order. */
std::vector<std::vector<const ProtocolTable *>>
classMixes(std::size_t n)
{
    std::vector<std::vector<const ProtocolTable *>> out;
    std::vector<std::size_t> pick(n, 0);
    const std::size_t kinds = std::size(kAllProtocolKinds);
    for (;;) {
        std::vector<const ProtocolTable *> tables;
        for (std::size_t k : pick)
            tables.push_back(&protocolTable(kAllProtocolKinds[k]));
        out.push_back(std::move(tables));
        // Next non-decreasing index tuple.
        std::size_t i = n;
        while (i > 0 && pick[i - 1] + 1 == kinds)
            --i;
        if (i == 0)
            return out;
        ++pick[i - 1];
        std::fill(pick.begin() + static_cast<std::ptrdiff_t>(i),
                  pick.end(), pick[i - 1]);
    }
}

// One digest over every flat mix of the class at 2 and 3 caches x 1 and
// 2 lines, and every 3-cache mix as a 2 + 1 hierarchy at 1 and 2 lines:
// each search's graph, cut and counterexample (steps, choices,
// violations, final-state render).  The mixes that pair Write-Once with
// an owner, and the abort protocols under a bridge, end in
// counterexamples, so the pin covers where a search stops as well as
// the complete graphs.
TEST(McGolden, ClassSweepIsPinned)
{
    std::string all;
    std::size_t explores = 0;
    std::size_t counterexamples = 0;
    for (std::size_t lines : {1u, 2u}) {
        for (std::size_t caches : {2u, 3u}) {
            for (const auto &tables : classMixes(caches)) {
                mc::ExploreConfig cfg;
                cfg.model.tables = tables;
                cfg.model.lines = lines;
                const mc::ExploreResult res = mc::explore(cfg);
                all += test::renderExploreResult(
                    res, [&](const mc::ModelState &st) {
                        return mc::renderStateVector(cfg.model, st);
                    });
                ++explores;
                counterexamples += res.counterexample.has_value();
            }
        }
        for (const auto &tables : classMixes(3)) {
            mc::HierExploreConfig cfg;
            cfg.model.base.tables = tables;
            cfg.model.base.lines = lines;
            cfg.model.clusterOf = {0, 0, 1};
            const mc::HierExploreResult res = mc::exploreHier(cfg);
            all += test::renderExploreResult(
                res, [&](const mc::HierModelState &st) {
                    return mc::renderHierStateVector(cfg.model, st);
                });
            ++explores;
            counterexamples += res.counterexample.has_value();
        }
    }
    EXPECT_EQ(explores, 266u);
    EXPECT_EQ(counterexamples, 128u);
    EXPECT_EQ(test::fnv1a(all), 0xe221bcac2ddff5dcull)
        << all.size() << " bytes";
}

} // namespace
} // namespace fbsim
