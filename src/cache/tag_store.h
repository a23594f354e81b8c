/**
 * @file
 * The cache's line store: a set-associative array of frames, each
 * holding one tag's linesPerSector (K) consecutive lines with a MOESI
 * state per line.
 *
 * K = 1 is the conventional cache.  K > 1 is section 5.1's sector
 * cache [Hill84]: one address tag per sector of K transfer subsectors
 * (each a system line), so consistency status lives with the transfer
 * subsector exactly as the paper concludes it must, and allocation is
 * sector-granular - a new sector evicts every valid line of its frame.
 * LRU recency and the section 5.2 near-replacement test are per frame.
 *
 * The tag store is purely mechanical: lookup, LRU victim selection
 * and fills.  All protocol decisions (what state to enter, when to
 * push a victim) belong to the cache controller in protocols/.
 *
 * Layout is data-oriented: alongside the CacheLine objects (which own
 * the data words) the store keeps struct-of-arrays metadata - packed
 * tags, packed u8 states and per-line epochs - so the per-access scan
 * touches a few contiguous words instead of striding over CacheLine
 * objects.  Line slot (frame << log2 K) + subsector holds a frame's
 * lines in line order; at K = 1 that is a shift by 0 and a mask of 0.
 * The epoch counter makes bulk invalidation (quarantine
 * reintegration) O(1): bumping it invalidates every line at once, and
 * stale slots are repaired lazily the next time victimFor() meets
 * them.  All consistency-state changes must go through setState() /
 * install() so the packed mirrors never diverge from CacheLine::state.
 */

#ifndef FBSIM_CACHE_TAG_STORE_H_
#define FBSIM_CACHE_TAG_STORE_H_

#include <functional>
#include <vector>

#include "cache/geometry.h"
#include "cache/lru_stamps.h"
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

/** A set-associative array of CacheLine frames with LRU replacement. */
class TagStore
{
  public:
    /** @param geometry cache shape (validated here). */
    explicit TagStore(const CacheGeometry &geometry);

    TagStore(const TagStore &) = delete;
    TagStore &operator=(const TagStore &) = delete;

    /** Words per line (the system line size). */
    std::size_t wordsPerLine() const { return geom_.wordsPerLine(); }

    /** Find the line holding `la` in any valid state; null on miss. */
    CacheLine *
    find(LineAddr la)
    {
        // Last-hit shortcut: lookups cluster heavily on the line just
        // touched (snoop + commit of one transaction, read-then-write
        // sequences).  lines_ never reallocates; the shortcut can only
        // hold a line that was current when cached, and setState()
        // flips CacheLine::state to I before a line ever goes stale
        // through it, while bulkInvalidate() drops the shortcut
        // entirely - so the valid + tag check cannot lie.
        if (lastHit_ && lastHit_->valid() && lastHit_->addr == la)
            return lastHit_;
        std::size_t idx = slot(firstFrame(la), la);
        for (std::size_t w = 0; w < geom_.assoc;
             ++w, idx += geom_.linesPerSector) {
            if (tags_[idx] == la && epochOf_[idx] == epoch_) {
                lastHit_ = &lines_[idx];
                return lastHit_;
            }
        }
        return nullptr;
    }

    /** Const lookup for checkers/inspection; null on miss. */
    const CacheLine *
    peek(LineAddr la) const
    {
        return const_cast<TagStore *>(this)->find(la);
    }

    /**
     * Consistency state of the line holding `la` (I when absent).
     * Reads only the packed tag/state arrays - no CacheLine object is
     * touched - so the timed engine's would-use-bus classification is
     * a couple of contiguous loads.
     */
    State
    stateOf(LineAddr la) const
    {
        std::size_t idx = slot(firstFrame(la), la);
        for (std::size_t w = 0; w < geom_.assoc;
             ++w, idx += geom_.linesPerSector) {
            if (tags_[idx] == la && epochOf_[idx] == epoch_)
                return static_cast<State>(states_[idx]);
        }
        return State::I;
    }

    /**
     * Slot that a fill of `la` (not resident) would use, in the frame
     * chosen by: the frame already holding a valid line of la's
     * sector (K > 1 only); else the first frame holding no valid line;
     * else the set's LRU victim, whose valid lines evictionSet()
     * names.  A slot invalidated wholesale by bulkInvalidate() is
     * repaired (state forced to I) before being returned, so the
     * caller may trust CacheLine::valid() on the result.
     */
    CacheLine &victimFor(LineAddr la);

    /**
     * Replace `out`'s contents with the valid lines that must be
     * evicted before `la` can be installed: every valid line of the
     * LRU victim frame, in line order, or none when a frame is free
     * or already holds la's sector.  The controller flushes each
     * (pushing owned data) and invalidates it, then calls install().
     * `out` is the caller's reusable scratch, so steady-state misses
     * allocate nothing.
     */
    void evictionSet(LineAddr la, std::vector<CacheLine *> &out);

    /**
     * Install `la` into `line` (obtained from victimFor): resets tag,
     * state and data storage and stamps the frame most recently used.
     */
    void install(CacheLine &line, LineAddr la, State s);

    /** install() into victimFor(la). */
    CacheLine &
    install(LineAddr la, State s)
    {
        CacheLine &line = victimFor(la);
        install(line, la, s);
        return line;
    }

    /**
     * Change a resident line's consistency state, keeping the packed
     * tag/state mirrors in sync.  This is the only legal way to mutate
     * CacheLine::state outside install().  The controller owns the
     * bus-side bookkeeping (snoop-filter presence).
     */
    void
    setState(CacheLine &line, State next)
    {
        std::size_t idx = static_cast<std::size_t>(&line - lines_.data());
        bool was = lineValid(idx);
        bool now = isValid(next);
        line.state = next;
        states_[idx] = static_cast<std::uint8_t>(next);
        epochOf_[idx] = epoch_;
        tags_[idx] = now ? line.addr : kNoTag;
        if (now != was)
            validCount_ += now ? 1 : -static_cast<std::ptrdiff_t>(1);
    }

    /**
     * Invalidate every line at once, in O(1): the epoch bump makes all
     * lines stale, and so every frame free, without walking them.
     * Stale slots keep their old CacheLine::state until victimFor()
     * repairs them, so callers must only observe lines through the
     * store's epoch-aware API and must drop any raw CacheLine pointers
     * they cached before the call.  No presence notifications are
     * issued (the caller bulk-clears the bus side).
     */
    void bulkInvalidate();

    /** Record a hit for replacement bookkeeping. */
    void
    touch(const CacheLine &line)
    {
        lru_.touch(frameOf(line));
    }

    /** Section 5.2 near-replacement probe: the line's frame is in the
     *  cold half of its set by LRU recency.  Reads stamps only. */
    bool nearReplacement(const CacheLine &line) const;

    /** Frame index of a resident line, for deferred touchFrames(). */
    std::uint32_t
    frameOf(const CacheLine &line) const
    {
        return static_cast<std::uint32_t>(
            static_cast<std::size_t>(&line - lines_.data()) >>
            geom_.sectorShift());
    }

    /** touch() each frame in order - speculated hits record their
     *  frame and replay the touches when they commit. */
    void
    touchFrames(const std::uint32_t *frames, std::size_t count)
    {
        lru_.touchFrames(frames, count);
    }

    /** Visit every valid line (for checkers and statistics). */
    void forEachValidLine(
        const std::function<void(const CacheLine &)> &fn) const;

    /** Count of currently valid lines. */
    std::size_t validLineCount() const
    { return static_cast<std::size_t>(validCount_); }

    /** Bulk-invalidation epoch (tests: proves reintegration is O(1)). */
    std::uint32_t epoch() const { return epoch_; }

  private:
    /** Packed-tag sentinel: slot holds no valid line. */
    static constexpr LineAddr kNoTag = ~LineAddr{0};

    /** Frame of way 0 in la's set. */
    std::size_t
    firstFrame(LineAddr la) const
    {
        return geom_.setOf(geom_.sectorOf(la)) * geom_.assoc;
    }

    /** la's line slot within `frame`. */
    std::size_t
    slot(std::size_t frame, LineAddr la) const
    {
        return (frame << geom_.sectorShift()) | geom_.subOf(la);
    }

    bool
    lineValid(std::size_t idx) const
    {
        return tags_[idx] != kNoTag && epochOf_[idx] == epoch_;
    }

    /** True when no line of `frame` is valid. */
    bool frameFree(std::size_t frame) const;

    /** True when `frame` holds a valid line of la's sector. */
    bool holdsSectorOf(std::size_t frame, LineAddr la) const;

    CacheGeometry geom_;
    LruStamps lru_;                  // one stamp per frame
    std::vector<CacheLine> lines_;   // sets x ways x K, row-major
    /** SoA metadata, parallel to lines_: packed tag (kNoTag when the
     *  line is invalid), packed u8 state, and the epoch the entry
     *  belongs to.  A line is valid iff its tag is real AND its epoch
     *  is current. */
    std::vector<LineAddr> tags_;
    std::vector<std::uint8_t> states_;
    std::vector<std::uint32_t> epochOf_;
    std::uint32_t epoch_ = 0;
    std::ptrdiff_t validCount_ = 0;
    /** Last line find()/peek() returned; revalidated on every use. */
    mutable CacheLine *lastHit_ = nullptr;
};

} // namespace fbsim

#endif // FBSIM_CACHE_TAG_STORE_H_
