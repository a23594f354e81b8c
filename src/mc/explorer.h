/**
 * @file
 * Bounded exhaustive enumeration of the model's reachable state space.
 *
 * Breadth-first search from the all-invalid initial state.  From every
 * reachable state the explorer generates every legal processor event at
 * every cache and line, and for each event every combination of table
 * alternatives - the master's local choices and every snooper's snoop
 * choices - via an odometer over the choice tape (OdoFeed).  Successor
 * states are canonicalized (mc::canonicalKey) and deduplicated through
 * a FlatMap64 visited set.
 *
 * Every generated successor is invariant-checked BEFORE deduplication:
 * the canonical key is only a sound abstraction for invariant-clean
 * states, and a violating state must terminate the search with a
 * counterexample rather than alias a clean one.  Because the search is
 * breadth-first, the first violation found is at minimal depth, and the
 * parent chain yields a minimal-length counterexample trace whose
 * recorded choice stream replays through the real engine (replay.h).
 *
 * Successors come from a transition memo, so the executor runs once per
 * line column and event, not once per transition.  An event on line l
 * reads and writes only line l: every cache's copy of it, its memory
 * and image words and, in a hierarchy, each bridge's two filter bits
 * for it; and no value steers the executor's control flow
 * (executor.h).  Every expanded node is invariant-clean, so its line l
 * is fully described by l's canonical-key bits - the column: each
 * cache's state on l, l's memory-current bit and the filter bits.  The
 * event's ordered edges - each edge's recorded choices, whether it
 * violates, and the successor's line-l key bits - are therefore a
 * function of the column and the event alone.  The memo maps a packed
 * key (column, line and event in fields that never overlap) to those
 * edges; a successor's key is the node's key with line l's bits
 * replaced.  The executor, the invariants and the key run only on a
 * miss, which fills the entry and asserts that each clean successor's
 * key differs from its parent's in line l's bits alone.
 *
 * explore() and the hierarchical exploreHier() (hier_model.h) run the
 * same search, and it runs on every hardware thread.  It walks the
 * node array in batches of already-discovered nodes.  Worker threads
 * expand a batch's nodes against a visited set and a memo that stay
 * read-only meanwhile, filling memo misses into tables of their own,
 * and keep each successor that was unvisited when the batch began as a
 * candidate: its key, the event and the recorded choices.  The calling
 * thread then folds the workers' memo fills into the shared memo and
 * merges the batch in node order, and each node's candidates in edge
 * order, exactly as a serial search would meet them, and rebuilds each
 * new node's state by replaying its choices from the parent.  Memo
 * entries are pure functions of their keys, so node indices, parents,
 * depths, both fingerprints, the node cap and the counterexample are
 * the serial search's, at any thread count and batch size.  The search
 * allocates per node, per batch or per memo miss, never per enumerated
 * transition.
 */

#ifndef FBSIM_MC_EXPLORER_H_
#define FBSIM_MC_EXPLORER_H_

#include <optional>

#include "common/logging.h"
#include "mc/model.h"

namespace fbsim {
namespace mc {

/**
 * Odometer choice feed: enumerates every combination of alternatives a
 * transition can draw.  Each run replays the current tape prefix and
 * extends it with first-alternative picks; advance() increments the
 * last incrementable cell and truncates the suffix (later draws may
 * not even exist on the next path).  Start with an empty tape, loop
 * `do { rewind; step; } while (advance())`.
 */
class OdoFeed : public ChoiceFeed
{
  public:
    /** Room for a deep choice tree up front: a search's tape then
     *  never moves. */
    OdoFeed() { tape_.reserve(64); }

    std::size_t
    pick(std::size_t, std::size_t n_alts) override
    {
        if (pos_ == tape_.size())
            tape_.push_back({0, static_cast<std::uint8_t>(n_alts)});
        // Same state + same choice prefix => the executor is
        // deterministic, so the cell fan-out cannot have changed.
        fbsim_assert(tape_[pos_].size == n_alts);
        return tape_[pos_++].idx;
    }

    /** Next combination; false when the space is exhausted. */
    bool
    advance()
    {
        while (!tape_.empty()) {
            Cell &last = tape_.back();
            if (last.idx + 1u < last.size) {
                ++last.idx;
                return true;
            }
            tape_.pop_back();
        }
        return false;
    }

    /** Restart the tape for the next run of the current combination. */
    void rewind() { pos_ = 0; }

    /** Drop the tape: the next run starts a fresh enumeration. */
    void
    reset()
    {
        tape_.clear();
        pos_ = 0;
    }

  private:
    struct Cell
    {
        std::uint8_t idx;
        std::uint8_t size;
    };

    std::vector<Cell> tape_;
    std::size_t pos_ = 0;
};

/** One step of a counterexample trace. */
struct TraceStep
{
    ModelEvent event;
    /** Every chooser consultation the step performed, in draw order. */
    std::vector<ChoiceRecord> choices;
};

/** A minimal-depth path from the initial state into a violation; `S`
 *  is the model's state (ModelState, HierModelState). */
template <class S>
struct BasicCounterexample
{
    std::vector<TraceStep> steps;
    /** The violations the final step produced (invariant breaches or
     *  an illegal transition the model rejects). */
    std::vector<std::string> violations;
    /** The violating state (partially advanced for illegal steps). */
    S finalState;
};

using Counterexample = BasicCounterexample<ModelState>;

struct ExploreConfig
{
    ModelConfig model;
    /** Stop (complete=false) after this many distinct states. */
    std::size_t maxNodes = 1u << 20;
};

template <class S>
struct BasicExploreResult
{
    /** Distinct invariant-clean reachable states (incl. initial). */
    std::size_t nodes = 0;
    /** Enumerated transitions (every event x choice combination). */
    std::size_t edges = 0;
    /** Deepest BFS level reached. */
    std::size_t depth = 0;
    /** Order-independent hash over all node canonical keys. */
    std::uint64_t nodeFingerprint = 0;
    /** Order-independent hash over all (from, event, to) transitions. */
    std::uint64_t edgeFingerprint = 0;
    /** True when the full space was enumerated (no node-cap stop and
     *  no counterexample cut). */
    bool complete = false;
    std::optional<BasicCounterexample<S>> counterexample;
};

using ExploreResult = BasicExploreResult<ModelState>;

/** Run the exhaustive search. */
ExploreResult explore(const ExploreConfig &cfg);

} // namespace mc
} // namespace fbsim

#endif // FBSIM_MC_EXPLORER_H_
