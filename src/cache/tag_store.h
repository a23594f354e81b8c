/**
 * @file
 * Set-associative tag/data store with MOESI per-line state: the
 * conventional LineStore.
 *
 * The tag store is purely mechanical: lookup, LRU victim selection
 * and fills.  All protocol decisions (what state to enter, when to
 * push a victim) belong to the cache controller in protocols/.
 *
 * Layout is data-oriented: alongside the CacheLine objects (which own
 * the data words) the store keeps struct-of-arrays metadata - packed
 * tags, packed u8 states and per-frame epochs - so the per-access scan
 * touches a few contiguous words instead of striding over CacheLine
 * objects.  The epoch counter makes bulk invalidation (quarantine
 * reintegration) O(1): bumping it invalidates every frame at once, and
 * stale frames are repaired lazily the next time victimFor() meets
 * them.  All consistency-state changes must go through setState() /
 * install() so the packed mirrors never diverge from CacheLine::state.
 */

#ifndef FBSIM_CACHE_TAG_STORE_H_
#define FBSIM_CACHE_TAG_STORE_H_

#include <functional>
#include <vector>

#include "cache/geometry.h"
#include "cache/line_store.h"
#include "cache/lru_stamps.h"

namespace fbsim {

/**
 * A set-associative array of CacheLine with LRU replacement.  Final,
 * so calls through a TagStore pointer or reference bind directly and
 * the hot lookups inline.
 */
class TagStore final : public LineStore
{
  public:
    /** @param geometry cache shape (validated here). */
    explicit TagStore(const CacheGeometry &geometry);

    TagStore(const TagStore &) = delete;
    TagStore &operator=(const TagStore &) = delete;

    const CacheGeometry &geometry() const { return geom_; }

    std::size_t
    wordsPerLine() const override
    {
        return geom_.wordsPerLine();
    }

    /** Find the line holding `la` in any valid state; null on miss. */
    CacheLine *
    find(LineAddr la) override
    {
        // Last-hit shortcut: lookups cluster heavily on the line just
        // touched (snoop + commit of one transaction, read-then-write
        // sequences).  lines_ never reallocates; the shortcut can only
        // hold a frame that was current when cached, and setState()
        // flips CacheLine::state to I before a frame ever goes stale
        // through it, while bulkInvalidate() drops the shortcut
        // entirely - so the valid + tag check cannot lie.
        if (lastHit_ && lastHit_->valid() && lastHit_->addr == la)
            return lastHit_;
        std::size_t base = geom_.setOf(la) * geom_.assoc;
        for (std::size_t w = 0; w < geom_.assoc; ++w) {
            if (tags_[base + w] == la && epochOf_[base + w] == epoch_) {
                lastHit_ = &lines_[base + w];
                return lastHit_;
            }
        }
        return nullptr;
    }

    /** Const lookup for checkers/inspection; null on miss. */
    const CacheLine *
    peek(LineAddr la) const override
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
    stateOf(LineAddr la) const override
    {
        std::size_t base = geom_.setOf(la) * geom_.assoc;
        for (std::size_t w = 0; w < geom_.assoc; ++w) {
            if (tags_[base + w] == la && epochOf_[base + w] == epoch_)
                return static_cast<State>(states_[base + w]);
        }
        return State::I;
    }

    /**
     * Line that a fill of `la` would use: an invalid way if the set has
     * one, otherwise the replacement victim (which the controller must
     * flush first if it is owned).  A frame invalidated wholesale by
     * bulkInvalidate() is repaired (state forced to I) before being
     * returned, so the caller may trust CacheLine::valid() on the
     * result.  Never returns a valid line holding a different address
     * than the victim's own.
     */
    CacheLine &victimFor(LineAddr la);

    /** The replacement victim when it is valid (one line at most). */
    void evictionSet(LineAddr la, std::vector<CacheLine *> &out) override;

    /**
     * Install `la` into `line` (obtained from victimFor): resets tag,
     * state and data storage and stamps the frame most recently used.
     */
    void install(CacheLine &line, LineAddr la, State s);

    /** install() into victimFor(la). */
    CacheLine &
    install(LineAddr la, State s) override
    {
        CacheLine &line = victimFor(la);
        install(line, la, s);
        return line;
    }

    /**
     * Change a resident line's consistency state, keeping the packed
     * tag/state mirrors in sync.  This is the only legal way to mutate
     * CacheLine::state outside install().
     */
    void
    setState(CacheLine &line, State next) override
    {
        std::size_t idx = static_cast<std::size_t>(&line - lines_.data());
        bool was = frameValid(idx);
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
     * frames stale without walking them.  Stale frames keep their old
     * CacheLine::state until victimFor() repairs them, so callers must
     * only observe lines through the store's epoch-aware API and must
     * drop any raw CacheLine pointers they cached before the call.
     */
    void bulkInvalidate() override;

    /** Record a hit for replacement bookkeeping. */
    void
    touch(const CacheLine &line) override
    {
        lru_.touch(frameOf(line));
    }

    /** Near-replacement test for the section 5.2 refinement. */
    bool nearReplacement(const CacheLine &line) const override;

    /** Frame index of a resident line, for deferred touchFrames(). */
    std::uint32_t
    frameOf(const CacheLine &line) const
    {
        return static_cast<std::uint32_t>(&line - lines_.data());
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
        const std::function<void(const CacheLine &)> &fn) const override;

    /** Count of currently valid lines. */
    std::size_t validLineCount() const override
    { return static_cast<std::size_t>(validCount_); }

    /** Bulk-invalidation epoch (tests: proves reintegration is O(1)). */
    std::uint32_t epoch() const { return epoch_; }

  private:
    /** Packed-tag sentinel: frame holds no valid line. */
    static constexpr LineAddr kNoTag = ~LineAddr{0};

    bool
    frameValid(std::size_t idx) const
    {
        return tags_[idx] != kNoTag && epochOf_[idx] == epoch_;
    }

    CacheGeometry geom_;
    LruStamps lru_;                  // one stamp per frame of lines_
    std::vector<CacheLine> lines_;   // sets x ways, row-major
    /** SoA metadata, parallel to lines_: packed tag (kNoTag when the
     *  frame is invalid), packed u8 state, and the epoch the entry
     *  belongs to.  A frame is valid iff its tag is real AND its epoch
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
