/**
 * @file
 * LRU replacement status for a set-associative store.
 *
 * Section 5.2 of the paper consults replacement status when deciding
 * whether to keep a remotely-written line: update it if recently
 * used, discard it if nearing time for replacement.  LRU answers both
 * that test and the victim choice from one stamp per frame.
 */

#ifndef FBSIM_CACHE_LRU_STAMPS_H_
#define FBSIM_CACHE_LRU_STAMPS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fbsim {

/**
 * One recency stamp per frame (frame = set * ways + way) and the clock
 * that issues them: a touch writes a fresh tick, so the oldest stamp
 * in a set marks its least recently used way.
 */
class LruStamps
{
  public:
    LruStamps(std::size_t sets, std::size_t ways)
        : ways_(ways), stamps_(sets * ways, 0)
    {
    }

    /** Mark a frame most recently used (a hit or a fill). */
    void touch(std::size_t frame) { stamps_[frame] = ++clock_; }

    /** touch() each frame in order; the clock stays in a register for
     *  the whole batch. */
    void
    touchFrames(const std::uint32_t *frames, std::size_t count)
    {
        std::uint64_t clock = clock_;
        for (std::size_t k = 0; k < count; ++k)
            stamps_[frames[k]] = ++clock;
        clock_ = clock;
    }

    /** Least recently used way of `set` (the lowest way on a tie). */
    std::size_t
    victim(std::size_t set) const
    {
        const std::uint64_t *row = &stamps_[set * ways_];
        std::size_t best = 0;
        for (std::size_t w = 1; w < ways_; ++w) {
            if (row[w] < row[best])
                best = w;
        }
        return best;
    }

    /**
     * True when `way` ranks in the cold half of its set by recency -
     * the paper's "nearing time for replacement" test for discarding
     * instead of updating a broadcast-written line.
     */
    bool
    nearReplacement(std::size_t set, std::size_t way) const
    {
        const std::uint64_t *row = &stamps_[set * ways_];
        std::size_t older = 0;
        for (std::size_t w = 0; w < ways_; ++w) {
            if (w != way && row[w] < row[way])
                ++older;
        }
        return older < (ways_ + 1) / 2;
    }

  private:
    std::size_t ways_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> stamps_;
};

} // namespace fbsim

#endif // FBSIM_CACHE_LRU_STAMPS_H_
