/**
 * @file
 * Reference streams: the interface between workloads and the timed
 * engine.  A stream produces an endless sequence of (read/write,
 * address) references for one processor.
 */

#ifndef FBSIM_TRACE_REF_STREAM_H_
#define FBSIM_TRACE_REF_STREAM_H_

#include <algorithm>
#include <cstddef>
#include <span>

#include "common/types.h"

namespace fbsim {

/** One processor reference. */
struct ProcRef
{
    bool write = false;
    Addr addr = 0;
};

/** An endless per-processor reference source. */
class RefStream
{
  public:
    virtual ~RefStream() = default;

    /** Produce the next reference. */
    virtual ProcRef next() = 0;

    /**
     * Produce the next `n` references into `out`, exactly the
     * sequence n calls to next() would yield.  The default loops
     * next(); generators with a cheap inner loop override it so batch
     * consumers (the speculative engine) skip the virtual dispatch
     * per reference.
     */
    virtual void
    nextBatch(ProcRef *out, std::size_t n)
    {
        for (std::size_t k = 0; k < n; ++k)
            out[k] = next();
    }
};

/**
 * Replays a borrowed span, cycling when exhausted.  Campaign workers
 * replay shared trace shards through this to keep per-job allocation
 * off the hot path; the span must outlive the stream and must not be
 * empty.
 */
class SpanStream : public RefStream
{
  public:
    explicit SpanStream(std::span<const ProcRef> refs) : refs_(refs) {}

    ProcRef
    next() override
    {
        ProcRef r = refs_[pos_];
        if (++pos_ == refs_.size())
            pos_ = 0;
        return r;
    }

    /** Copies contiguous runs up to the span's end, wrapping by
     *  compare (no division per reference). */
    void
    nextBatch(ProcRef *out, std::size_t n) override
    {
        while (n > 0) {
            const std::size_t run = std::min(n, refs_.size() - pos_);
            out = std::copy_n(refs_.data() + pos_, run, out);
            n -= run;
            pos_ += run;
            if (pos_ == refs_.size())
                pos_ = 0;
        }
    }

  private:
    std::span<const ProcRef> refs_;
    std::size_t pos_ = 0;
};

} // namespace fbsim

#endif // FBSIM_TRACE_REF_STREAM_H_
