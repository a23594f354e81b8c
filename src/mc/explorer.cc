#include "mc/explorer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <exception>

#include "common/flat_map.h"
#include "common/thread_pool.h"
#include "mc/executor.h"
#include "mc/search.h"

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

/** One transition's term of the edge fingerprint. */
std::uint64_t
edgeTerm(std::uint64_t from, std::uint64_t to, const ModelEvent &ev)
{
    return mix64(from ^ mix64(to ^ eventCode(ev)));
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
                    std::vector<ChoiceRecord> *log) const
    { return stepModel(cfg, st, ev, feed, log); }
    std::vector<std::string> invariants(const State &st) const
    { return checkInvariants(cfg, st); }
    std::uint64_t key(const State &st) const
    { return canonicalKey(cfg, st); }
    std::size_t lines() const { return cfg.lines; }
    std::uint64_t lineMask(std::size_t line) const
    { return lineKeyMask(cfg, line); }
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
                    std::vector<ChoiceRecord> *log) const
    { return stepHierModel(cfg, st, ev, feed, log); }
    std::vector<std::string> invariants(const State &st) const
    { return checkHierInvariants(cfg, st); }
    std::uint64_t key(const State &st) const
    { return canonicalHierKey(cfg, st); }
    std::size_t lines() const { return cfg.base.lines; }
    std::uint64_t lineMask(std::size_t line) const
    { return lineHierKeyMask(cfg, line); }
};

constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/** Nodes a worker claims at a time. */
constexpr std::size_t kChunk = 8;

/** A smaller batch is expanded by the calling thread alone. */
constexpr std::size_t kMinParallelBatch = 64;

/** One discovered state, with enough breadcrumbs to rebuild the path
 *  that first reached it. */
template <class S>
struct Node
{
    S state;
    std::uint64_t key;
    std::size_t depth;
    /** Index of the BFS predecessor; kNoParent for the initial state. */
    std::size_t parent;
    /** The step that produced this node from its parent. */
    TraceStep via;
};

// ---- The transition memo (see explorer.h) ----
//
// A memo key packs, low to high and without overlap: the line's column
// (its canonical-key bits, gathered), the line, the event's cache and
// the local event.

/** Bits of a column: 3 state bits per cache, the memory-current bit,
 *  and two filter bits per cluster. */
constexpr unsigned
columnBits(std::size_t caches, std::size_t clusters)
{
    return static_cast<unsigned>(3 * caches + 1 + 2 * clusters);
}

constexpr unsigned
fieldBits(std::size_t values)
{
    return static_cast<unsigned>(std::bit_width(values - 1));
}

constexpr unsigned
memoKeyBits(std::size_t caches, std::size_t clusters)
{
    return columnBits(caches, clusters) + fieldBits(kMaxLines) +
           fieldBits(caches) + fieldBits(kNumLocalEvents);
}

constexpr unsigned kLineShift = columnBits(kMaxCaches, kMaxClusters);
constexpr unsigned kCacheShift = kLineShift + fieldBits(kMaxLines);
constexpr unsigned kEventShift = kCacheShift + fieldBits(kMaxCaches);

// Under 64 bits, so no memo key is FlatMap64's reserved ~0, with room
// for a full bus of eight caches in four clusters.
static_assert(memoKeyBits(kMaxCaches, kMaxClusters) < 64);
static_assert(memoKeyBits(8, 4) < 64);

/** The bits of `key` under `mask`, gathered into the low bits. */
std::uint64_t
gatherBits(std::uint64_t key, std::uint64_t mask)
{
    std::uint64_t out = 0;
    unsigned at = 0;
    for (std::uint64_t m = mask; m != 0; m &= m - 1)
        out |= ((key >> std::countr_zero(m)) & 1u) << at++;
    return out;
}

std::uint64_t
memoKey(std::uint64_t column, const ModelEvent &ev)
{
    return column | std::uint64_t{ev.line} << kLineShift |
           std::uint64_t{ev.cache} << kCacheShift |
           static_cast<std::uint64_t>(ev.ev) << kEventShift;
}

/** One memoized edge: the step's draws and what it did to its line. */
struct MemoEdge
{
    /** The successor's bits of the line, in place; unused when
     *  violating. */
    std::uint64_t bits;
    /** The step's draws: [choicesAt, choicesEnd) of the table's. */
    std::uint32_t choicesAt;
    std::uint32_t choicesEnd;
    bool violating;
};

/** A memo entry: [at, end) of its table's edges, in enumeration order,
 *  up to and including the first violating edge. */
struct MemoSpan
{
    std::uint32_t at = 0;
    std::uint32_t end = 0;
};

/** Memo keys to their edges, whose draws share one arena. */
struct MemoTable
{
    FlatMap64<MemoSpan> index;   ///< memo key -> its edges
    std::vector<MemoEdge> edges;
    std::vector<ChoiceRecord> choices;

    /** Move `from`'s entries that this table lacks in, and empty it. */
    void
    fold(MemoTable &from)
    {
        from.index.forEach([&](std::uint64_t key, const MemoSpan &span) {
            if (index.find(key))
                return;   // another worker filled it too
            const auto at = static_cast<std::uint32_t>(edges.size());
            for (std::uint32_t k = span.at; k < span.end; ++k) {
                MemoEdge e = from.edges[k];
                const auto c = static_cast<std::uint32_t>(choices.size());
                choices.insert(choices.end(),
                               from.choices.begin() + e.choicesAt,
                               from.choices.begin() + e.choicesEnd);
                e.choicesAt = c;
                e.choicesEnd = static_cast<std::uint32_t>(choices.size());
                edges.push_back(e);
            }
            index[key] = {at, static_cast<std::uint32_t>(edges.size())};
        });
        if (!from.index.empty())
            from.index.clear();
        from.edges.clear();
        from.choices.clear();
    }
};

/** An edge a worker kept for the merge: its successor was unvisited
 *  when the batch began, or the step violated. */
struct Candidate
{
    std::uint64_t key;        ///< the successor's; unused when violating
    /** The node's edge-fingerprint terms before this edge, summed. */
    std::uint64_t fpBefore;
    /** The node's edges enumerated before this one. */
    std::uint32_t edgesBefore;
    /** The step's draws: [choicesAt, choicesEnd) of the worker's arena. */
    std::uint32_t choicesAt;
    std::uint32_t choicesEnd;
    ModelEvent event;
    bool violating;
};

/** One thread's buffers for the whole search, on cache lines of their
 *  own: adjacent workers' feeds and tables would false-share. */
struct alignas(64) Worker
{
    OdoFeed odo;
    /** This batch's memo misses, folded into the shared memo after it. */
    MemoTable pending;
    std::vector<Candidate> candidates;   ///< this batch's, in edge order
    std::vector<ChoiceRecord> arena;     ///< the candidates' draws
};

/** What expanding one node leaves for the merge. */
struct Expansion
{
    std::size_t worker;
    /** The node's candidates: [first, last) of that worker's. */
    std::size_t first;
    std::size_t last;
    /** Every edge of the node, and their fingerprint terms summed (up
     *  to a violating edge, past which the merge never looks). */
    std::size_t edges;
    std::uint64_t fp;
};

/** What the search's workers share: the memo, read-only while a batch
 *  is expanded, and each line's canonical-key bits. */
struct Memo
{
    MemoTable shared;
    std::array<std::uint64_t, kMaxLines> lineMask{};
};

/**
 * Fill the memo entry `key` for `ev` from `node` into the worker's
 * pending table: run every choice combination through the executor, in
 * odometer order, up to the first violating step.
 */
template <class Ops>
MemoSpan
fill(const Ops &ops, const Node<typename Ops::State> &node,
     const ModelEvent &ev, std::uint64_t mask, std::uint64_t key, Worker &w)
{
    MemoTable &t = w.pending;
    MemoSpan span{static_cast<std::uint32_t>(t.edges.size()), 0};
    do {
        w.odo.rewind();
        const auto at = static_cast<std::uint32_t>(t.choices.size());
        typename Ops::State succ = node.state;
        const StepResult r = ops.step(succ, ev, w.odo, &t.choices);
        // Invariant-check BEFORE keying: the canonical key only
        // abstracts clean states.
        const bool violating = !r.ok || !ops.invariants(succ).empty();
        std::uint64_t bits = 0;
        if (!violating) {
            const std::uint64_t succ_key = ops.key(succ);
            // Line locality, which makes the entry exact for every
            // clean node with this column.
            fbsim_assert((succ_key & ~mask) == (node.key & ~mask));
            bits = succ_key & mask;
        }
        t.edges.push_back({bits, at,
                           static_cast<std::uint32_t>(t.choices.size()),
                           violating});
        if (violating) {
            w.odo.reset();
            break;
        }
    } while (w.odo.advance());
    span.end = static_cast<std::uint32_t>(t.edges.size());
    t.index[key] = span;
    return span;
}

/**
 * Enumerate the edges of `node` from the memo, keeping the successors
 * `visited` does not hold as candidates, and stop at the first
 * violating edge.
 */
template <class Ops>
Expansion
expandNode(const Ops &ops, const Node<typename Ops::State> &node,
           const FlatMap64<std::uint32_t> &visited, const Memo &memo,
           Worker &w)
{
    Expansion x{0, w.candidates.size(), 0, 0, 0};
    std::array<std::uint64_t, kMaxLines> column{};
    for (std::size_t l = 0; l < ops.lines(); ++l)
        column[l] = gatherBits(node.key, memo.lineMask[l]);
    for (const ModelEvent &ev : ops.events(node.state)) {
        const std::uint64_t mask = memo.lineMask[ev.line];
        const std::uint64_t key = memoKey(column[ev.line], ev);
        const MemoTable *t = &memo.shared;
        const MemoSpan *found = t->index.find(key);
        if (!found) {
            t = &w.pending;
            found = t->index.find(key);
        }
        const MemoSpan span =
            found ? *found : fill(ops, node, ev, mask, key, w);
        const std::uint64_t rest = node.key & ~mask;
        for (std::uint32_t k = span.at; k < span.end; ++k) {
            const MemoEdge &e = t->edges[k];
            const std::uint64_t succ = rest | e.bits;
            if (e.violating || !visited.find(succ)) {
                const auto at = static_cast<std::uint32_t>(w.arena.size());
                w.arena.insert(w.arena.end(),
                               t->choices.begin() + e.choicesAt,
                               t->choices.begin() + e.choicesEnd);
                w.candidates.push_back(
                    {e.violating ? 0 : succ, x.fp,
                     static_cast<std::uint32_t>(x.edges), at,
                     static_cast<std::uint32_t>(w.arena.size()), ev,
                     e.violating});
            }
            if (e.violating) {
                x.last = w.candidates.size();
                return x;
            }
            ++x.edges;
            x.fp += edgeTerm(node.key, succ, ev);
        }
    }
    x.last = w.candidates.size();
    return x;
}

/** Re-run a recorded step on `st`. */
template <class Ops>
StepResult
replayStep(const Ops &ops, typename Ops::State &st, const ModelEvent &ev,
           std::span<const ChoiceRecord> choices)
{
    RecordedFeed feed(choices);
    StepResult r = ops.step(st, ev, feed, nullptr);
    fbsim_assert(feed.fullyConsumed());
    return r;
}

/**
 * The search behind explore() and exploreHier() (see explorer.h).
 *
 * Each batch is expanded against a visited set no thread writes, so a
 * node's candidates are a superset of the successors the serial search
 * would discover from it: a successor first reached earlier in the
 * same batch is filtered at the merge instead.  The merge visits nodes
 * in index order and candidates in edge order, so every insertion, node
 * index and cut happens exactly where the serial search makes it; the
 * per-node edge counts and fingerprint prefixes make the cut's partial
 * sums exact too.
 */
template <class Ops>
BasicExploreResult<typename Ops::State>
bfs(const Ops &ops, std::size_t max_nodes, const SearchTuning &tuning)
{
    using S = typename Ops::State;
    fbsim_assert(tuning.batch >= 1);

    BasicExploreResult<S> res;
    // Appended in BFS order, so the ones past the batch being expanded
    // are the frontier.  A deque never moves a node: workers read the
    // batch in place, and growth copies nothing.
    std::deque<Node<S>> nodes;
    FlatMap64<std::uint32_t> visited;   // canonical key -> node index
    Memo memo;
    for (std::size_t l = 0; l < ops.lines(); ++l) {
        memo.lineMask[l] = ops.lineMask(l);
        fbsim_assert(std::popcount(memo.lineMask[l]) <=
                     static_cast<int>(kLineShift));
    }
    std::vector<Worker> workers(
        tuning.workers ? tuning.workers : ThreadPool::hardwareJobs());
    std::vector<Expansion> expansions;
    alignas(64) std::atomic<std::size_t> next_chunk{0};

    const S init = ops.initial();
    const std::uint64_t init_key = ops.key(init);
    nodes.push_back({init, init_key, 0, kNoParent, {}});
    visited[init_key] = 0;
    res.nodeFingerprint += mix64(init_key);

    // Worker w claims chunks of [begin, end) until none is left.
    auto expandBatch = [&](std::size_t w, std::size_t begin,
                           std::size_t end) {
        const std::size_t chunks = (end - begin + kChunk - 1) / kChunk;
        for (;;) {
            const std::size_t c =
                next_chunk.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunks)
                return;
            const std::size_t lo = begin + c * kChunk;
            for (std::size_t i = lo; i < std::min(end, lo + kChunk); ++i) {
                Expansion &x = expansions[i - begin];
                x = expandNode(ops, nodes[i], visited, memo, workers[w]);
                x.worker = w;
            }
        }
    };

    // Declared after everything its tasks touch, so an exception
    // unwinding this frame joins the workers before their data goes.
    std::optional<ThreadPool> pool;
    for (std::size_t begin = 0; begin < nodes.size();) {
        const std::size_t end = std::min(nodes.size(), begin + tuning.batch);

        // Expand: the calling thread is worker 0.
        const std::size_t chunks = (end - begin + kChunk - 1) / kChunk;
        const std::size_t threads =
            end - begin < kMinParallelBatch
                ? 1
                : std::min(workers.size(), chunks);
        for (Worker &w : workers) {
            w.candidates.clear();
            w.arena.clear();
        }
        expansions.resize(end - begin);
        next_chunk.store(0, std::memory_order_relaxed);
        if (threads > 1 && !pool)
            pool.emplace(static_cast<unsigned>(workers.size() - 1));
        for (std::size_t t = 1; t < threads; ++t)
            pool->submit([&expandBatch, t, begin, end] {
                expandBatch(t, begin, end);
            });
        expandBatch(0, begin, end);
        if (threads > 1) {
            pool->wait();
            for (std::exception_ptr &e : pool->drainExceptions())
                std::rethrow_exception(e);
        }
        for (Worker &w : workers)
            memo.shared.fold(w.pending);

        // Merge in node order, each node's candidates in edge order.
        for (std::size_t i = begin; i < end; ++i) {
            const Node<S> &node = nodes[i];
            res.depth = std::max(res.depth, node.depth);
            const Expansion &x = expansions[i - begin];
            const Worker &w = workers[x.worker];
            for (std::size_t k = x.first; k < x.last; ++k) {
                const Candidate &c = w.candidates[k];
                const std::span<const ChoiceRecord> choices(
                    w.arena.data() + c.choicesAt,
                    c.choicesEnd - c.choicesAt);
                if (c.violating) {
                    // Rebuild the parent chain into a counterexample
                    // ending with this step.
                    res.nodes = nodes.size();
                    res.edges += c.edgesBefore + 1u;
                    res.edgeFingerprint += c.fpBefore;
                    BasicCounterexample<S> &cex =
                        res.counterexample.emplace();
                    for (std::size_t j = i; nodes[j].parent != kNoParent;
                         j = nodes[j].parent)
                        cex.steps.push_back(nodes[j].via);
                    std::reverse(cex.steps.begin(), cex.steps.end());
                    cex.steps.push_back(
                        {c.event, {choices.begin(), choices.end()}});
                    cex.finalState = node.state;
                    StepResult r =
                        replayStep(ops, cex.finalState, c.event, choices);
                    if (r.ok)
                        r.violations = ops.invariants(cex.finalState);
                    fbsim_assert(!r.violations.empty());
                    cex.violations = std::move(r.violations);
                    return res;
                }
                if (visited.find(c.key))
                    continue;   // reached earlier in this batch
                if (nodes.size() >= max_nodes) {
                    res.nodes = nodes.size();
                    res.edges += c.edgesBefore + 1u;
                    res.edgeFingerprint +=
                        c.fpBefore + edgeTerm(node.key, c.key, c.event);
                    return res;   // capped: complete stays false
                }
                visited[c.key] = static_cast<std::uint32_t>(nodes.size());
                res.nodeFingerprint += mix64(c.key);
                S succ = node.state;
                replayStep(ops, succ, c.event, choices);
                fbsim_assert(ops.key(succ) == c.key);
                nodes.push_back({succ, c.key, node.depth + 1, i,
                                 {c.event, {choices.begin(), choices.end()}}});
            }
            res.edges += x.edges;
            res.edgeFingerprint += x.fp;
        }
        begin = end;
    }

    res.nodes = nodes.size();
    res.complete = true;
    return res;
}

} // namespace

ExploreResult
exploreTuned(const ExploreConfig &cfg, const SearchTuning &tuning)
{
    return bfs(FlatOps{cfg.model}, cfg.maxNodes, tuning);
}

HierExploreResult
exploreHierTuned(const HierExploreConfig &cfg, const SearchTuning &tuning)
{
    return bfs(HierOps{cfg.model}, cfg.maxNodes, tuning);
}

ExploreResult
explore(const ExploreConfig &cfg)
{
    return exploreTuned(cfg, {});
}

HierExploreResult
exploreHier(const HierExploreConfig &cfg)
{
    return exploreHierTuned(cfg, {});
}

} // namespace mc
} // namespace fbsim
