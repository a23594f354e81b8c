/**
 * @file
 * Line storage for cache controllers: the CacheLine and the LineStore
 * interface the controller in protocols/ is written against.
 *
 * Two stores implement it: the conventional set-associative TagStore
 * (one tag per line; final, so a controller holding a TagStore
 * pointer calls it directly) and the SectorStore (one tag per
 * multi-line sector, per-subsector state - section 5.1's sector caches
 * [Hill84]).  Consistency status is thus always associated with the
 * transfer subsector (= the system line), exactly as the paper
 * concludes it must be.  Both replace by LRU, each keeping its own
 * LruStamps (one stamp per frame: a line, or a whole sector).
 */

#ifndef FBSIM_CACHE_LINE_STORE_H_
#define FBSIM_CACHE_LINE_STORE_H_

#include <functional>
#include <vector>

#include "common/types.h"
#include "core/state.h"

namespace fbsim {

/** One cache line: tag, consistency state and data words. */
struct CacheLine
{
    LineAddr addr = 0;        ///< full line address (tag + index)
    State state = State::I;
    std::vector<Word> data;   ///< wordsPerLine() words once allocated

    bool valid() const { return isValid(state); }
};

/** Storage abstraction: lines indexed by LineAddr. */
class LineStore
{
  public:
    virtual ~LineStore() = default;

    /** Words per line (the system line size). */
    virtual std::size_t wordsPerLine() const = 0;

    /** Find a valid line; null on miss. */
    virtual CacheLine *find(LineAddr la) = 0;

    /** Const lookup for checkers/inspection. */
    virtual const CacheLine *peek(LineAddr la) const = 0;

    /**
     * Replace `out`'s contents with the valid lines that must be
     * evicted before `la` can be installed: none when a slot is free
     * (or already allocated, for a sector whose tag is resident).  The
     * controller flushes each (pushing owned data) and marks it
     * invalid, then calls install().  `out` is the caller's reusable
     * scratch, so steady-state misses allocate nothing.
     */
    virtual void evictionSet(LineAddr la,
                             std::vector<CacheLine *> &out) = 0;

    /**
     * Allocate `la` (the eviction set must have been invalidated) and
     * return its line, tagged and zero-filled, in state `s`.
     */
    virtual CacheLine &install(LineAddr la, State s) = 0;

    /** Replacement bookkeeping for a hit. */
    virtual void touch(const CacheLine &line) = 0;

    /** Consistency state of the line holding `la` (I when absent).
     *  Stores with packed metadata answer without touching a
     *  CacheLine; the default probes peek(). */
    virtual State
    stateOf(LineAddr la) const
    {
        const CacheLine *line = peek(la);
        return line ? line->state : State::I;
    }

    /**
     * Change a resident line's consistency state.  Stores with derived
     * metadata (packed tag/state mirrors) keep it in sync here; the
     * controller owns the bus-side bookkeeping (snoop-filter
     * presence).  All state changes outside install() must funnel
     * through this.
     */
    virtual void
    setState(CacheLine &line, State next)
    {
        line.state = next;
    }

    /**
     * Invalidate every line at once - O(1) where the store supports
     * epochs, a plain walk otherwise.  No presence notifications are
     * issued (the caller bulk-clears the bus side), and any raw
     * CacheLine pointers held across the call are invalidated.
     */
    virtual void
    bulkInvalidate()
    {
        // Collect first: setState must not run under the store's own
        // iteration.
        std::vector<CacheLine *> held;
        forEachValidLine([&](const CacheLine &line) {
            held.push_back(const_cast<CacheLine *>(&line));
        });
        for (CacheLine *line : held)
            setState(*line, State::I);
    }

    /** Section 5.2 near-replacement probe: the line's frame is in the
     *  cold half of its set by LRU recency.  Reads stamps only. */
    virtual bool nearReplacement(const CacheLine &line) const = 0;

    /** Visit every valid line. */
    virtual void forEachValidLine(
        const std::function<void(const CacheLine &)> &fn) const = 0;

    /** Count of valid lines. */
    virtual std::size_t validLineCount() const = 0;
};

} // namespace fbsim

#endif // FBSIM_CACHE_LINE_STORE_H_
