#include "mc/explorer.h"

#include <algorithm>

#include "common/flat_map.h"
#include "mc/hier_model.h"

namespace fbsim {
namespace mc {

namespace {

/** splitmix64 finalizer: the same mixer FlatMap64 uses, good avalanche
 *  for the order-independent fingerprint sums. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
eventCode(const ModelEvent &ev)
{
    return (static_cast<std::uint64_t>(ev.cache) << 10) |
           (static_cast<std::uint64_t>(ev.line) << 8) |
           static_cast<std::uint64_t>(ev.ev);
}

/** The flat model as the search sees it. */
struct FlatOps
{
    using State = ModelState;
    const ModelConfig &cfg;

    State initial() const { return initialState(cfg); }
    std::vector<ModelEvent> events(const State &st) const
    { return legalEvents(cfg, st); }
    StepResult step(State &st, const ModelEvent &ev, ChoiceFeed &feed,
                    std::vector<ChoiceRecord> &log) const
    { return stepModel(cfg, st, ev, feed, &log); }
    std::vector<std::string> invariants(const State &st) const
    { return checkInvariants(cfg, st); }
    std::uint64_t key(const State &st) const
    { return canonicalKey(cfg, st); }
};

/** The two-level model as the search sees it. */
struct HierOps
{
    using State = HierModelState;
    const HierModelConfig &cfg;

    State initial() const { return initialHierState(cfg); }
    std::vector<ModelEvent> events(const State &st) const
    { return legalHierEvents(cfg, st); }
    StepResult step(State &st, const ModelEvent &ev, ChoiceFeed &feed,
                    std::vector<ChoiceRecord> &log) const
    { return stepHierModel(cfg, st, ev, feed, &log); }
    std::vector<std::string> invariants(const State &st) const
    { return checkHierInvariants(cfg, st); }
    std::uint64_t key(const State &st) const
    { return canonicalHierKey(cfg, st); }
};

/** The search behind explore() and exploreHier() (see explorer.h). */
template <class Ops>
BasicExploreResult<typename Ops::State>
bfs(const Ops &ops, std::size_t max_nodes)
{
    using S = typename Ops::State;
    constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

    /** One discovered state, with enough breadcrumbs to rebuild the
     *  path that first reached it. */
    struct Node
    {
        S state;
        std::uint64_t key;
        std::size_t depth;
        /** Index of the BFS predecessor; kNoParent for the initial
         *  state. */
        std::size_t parent;
        /** The step that produced this node from its parent. */
        TraceStep via;
    };

    BasicExploreResult<S> res;
    // Nodes are appended in BFS order, so the ones past the node being
    // expanded are the frontier.
    std::vector<Node> nodes;
    FlatMap64<std::uint32_t> visited;   // canonical key -> node index
    // One odometer for every event (its tape is empty whenever
    // advance() returns false) and one log for every step's choices.
    OdoFeed odo;
    std::vector<ChoiceRecord> choices;

    const S init = ops.initial();
    const std::uint64_t init_key = ops.key(init);
    nodes.push_back({init, init_key, 0, kNoParent, {}});
    visited[init_key] = 0;
    res.nodeFingerprint += mix64(init_key);

    for (std::size_t cur = 0; cur < nodes.size(); ++cur) {
        // nodes[] may reallocate as successors are appended; copy the
        // expansion state out first.
        const S cur_state = nodes[cur].state;
        const std::uint64_t cur_key = nodes[cur].key;
        const std::size_t cur_depth = nodes[cur].depth;
        res.depth = std::max(res.depth, cur_depth);

        for (const ModelEvent &ev : ops.events(cur_state)) {
            do {
                odo.rewind();
                choices.clear();
                S succ = cur_state;
                StepResult r = ops.step(succ, ev, odo, choices);
                ++res.edges;

                // Invariant-check BEFORE dedup: the canonical key only
                // abstracts clean states.
                if (r.ok)
                    r.violations = ops.invariants(succ);
                if (!r.ok || !r.violations.empty()) {
                    // Rebuild the parent chain into a counterexample
                    // ending with this step.
                    res.nodes = nodes.size();
                    BasicCounterexample<S> &cex =
                        res.counterexample.emplace();
                    for (std::size_t i = cur; nodes[i].parent != kNoParent;
                         i = nodes[i].parent)
                        cex.steps.push_back(nodes[i].via);
                    std::reverse(cex.steps.begin(), cex.steps.end());
                    cex.steps.push_back({ev, choices});
                    cex.violations = std::move(r.violations);
                    cex.finalState = succ;
                    return res;
                }

                const std::uint64_t key = ops.key(succ);
                res.edgeFingerprint +=
                    mix64(cur_key ^ mix64(key ^ eventCode(ev)));
                if (!visited.find(key)) {
                    if (nodes.size() >= max_nodes) {
                        res.nodes = nodes.size();
                        return res;   // capped: complete stays false
                    }
                    visited[key] = static_cast<std::uint32_t>(nodes.size());
                    res.nodeFingerprint += mix64(key);
                    nodes.push_back(
                        {succ, key, cur_depth + 1, cur, {ev, choices}});
                }
            } while (odo.advance());
        }
    }

    res.nodes = nodes.size();
    res.complete = true;
    return res;
}

} // namespace

ExploreResult
explore(const ExploreConfig &cfg)
{
    return bfs(FlatOps{cfg.model}, cfg.maxNodes);
}

HierExploreResult
exploreHier(const HierExploreConfig &cfg)
{
    return bfs(HierOps{cfg.model}, cfg.maxNodes);
}

} // namespace mc
} // namespace fbsim
