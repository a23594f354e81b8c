#include "trace/workloads.h"

#include "common/logging.h"

namespace fbsim {

namespace {

/** Word-aligned address inside a line. */
Addr
wordIn(Rng &rng, Addr line_base, std::size_t line_bytes)
{
    std::size_t words = line_bytes / kWordBytes;
    return line_base + rng.below(words) * kWordBytes;
}

/** Integer Bernoulli threshold: draw succeeds iff next() < result. */
std::uint64_t
chanceThreshold(double p)
{
    if (p <= 0.0)
        return 0;
    if (p >= 1.0)
        return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(p * 0x1.0p64);
}

} // namespace

Arch85Workload::Arch85Workload(const Arch85Params &params,
                               std::size_t proc, std::uint64_t seed)
    : params_(params), proc_(proc), depth_(params.pLocality),
      rng_(seed ^ (0x51ed2701ull * (proc + 1)))
{
    fbsim_assert(params.sharedLines > 0);
    fbsim_assert(params.privateLines > 0);
    privateBase_ = (params_.sharedLines +
                    proc_ * params_.privateLines) * params_.lineBytes;
    sharedThresh_ = chanceThreshold(params_.pShared);
    sharedWriteThresh_ = chanceThreshold(params_.pSharedWrite);
    privateWriteThresh_ = chanceThreshold(params_.pPrivateWrite);
}

Addr
Arch85Workload::privateBase() const
{
    // Private regions start past the shared region, one disjoint pool
    // per processor.
    return privateBase_;
}

ProcRef
Arch85Workload::next()
{
    ProcRef ref;
    if (rng_.next() < sharedThresh_) {
        std::size_t line = rng_.below(params_.sharedLines);
        ref.addr = wordIn(rng_, sharedBase() + line * params_.lineBytes,
                          params_.lineBytes);
        ref.write = rng_.next() < sharedWriteThresh_;
    } else {
        // Geometric stack distance approximates LRU temporal locality.
        std::size_t depth = depth_.draw(rng_);
        // Nearly every draw is shallower than the pool, so the wrap
        // division is skipped unless actually needed.
        std::size_t line = depth < params_.privateLines
                               ? depth
                               : depth % params_.privateLines;
        ref.addr = wordIn(rng_, privateBase_ + line * params_.lineBytes,
                          params_.lineBytes);
        ref.write = rng_.next() < privateWriteThresh_;
    }
    return ref;
}

void
Arch85Workload::nextBatch(ProcRef *out, std::size_t n)
{
    // Same draw sequence as n calls to next().  Everything the loop
    // reads but the depth table is a local, the generator state
    // included: a store through `out` could alias a member, so members
    // would reload (and the generator state round-trip through memory)
    // every reference.
    Rng rng = rng_;
    const std::uint64_t sharedThresh = sharedThresh_;
    const std::uint64_t sharedWriteThresh = sharedWriteThresh_;
    const std::uint64_t privateWriteThresh = privateWriteThresh_;
    const std::size_t sharedLines = params_.sharedLines;
    const std::size_t privateLines = params_.privateLines;
    const std::size_t lineBytes = params_.lineBytes;
    const Addr privateBase = privateBase_;
    const std::size_t words = lineBytes / kWordBytes;
    for (std::size_t k = 0; k < n; ++k) {
        ProcRef ref;
        if (rng.next() < sharedThresh) {
            std::size_t line = rng.below(sharedLines);
            Addr base = sharedBase() + line * lineBytes;
            ref.addr = base + rng.below(words) * kWordBytes;
            ref.write = rng.next() < sharedWriteThresh;
        } else {
            std::size_t depth = depth_.draw(rng);
            std::size_t line =
                depth < privateLines ? depth : depth % privateLines;
            Addr base = privateBase + line * lineBytes;
            ref.addr = base + rng.below(words) * kWordBytes;
            ref.write = rng.next() < privateWriteThresh;
        }
        out[k] = ref;
    }
    rng_ = rng;
}

PingPongWorkload::PingPongWorkload(std::size_t line_bytes,
                                   std::size_t hot_lines,
                                   std::size_t proc, std::uint64_t seed,
                                   std::size_t writes_per_visit)
    : lineBytes_(line_bytes), hotLines_(hot_lines),
      writesPerVisit_(writes_per_visit),
      rng_(seed ^ (0x9d0bull * (proc + 1)))
{
    fbsim_assert(hot_lines > 0);
    fbsim_assert(writes_per_visit > 0);
    current_ = rng_.below(hotLines_) * lineBytes_;
}

ProcRef
PingPongWorkload::next()
{
    // One read then a burst of writes on each hot line, then move on.
    ProcRef ref;
    ref.addr = wordIn(rng_, current_, lineBytes_);
    ref.write = (phase_ >= 1);
    if (++phase_ > writesPerVisit_) {
        phase_ = 0;
        current_ = rng_.below(hotLines_) * lineBytes_;
    }
    return ref;
}

ProducerConsumerWorkload::ProducerConsumerWorkload(
    std::size_t line_bytes, std::size_t buffer_lines, bool producer,
    std::uint64_t seed)
    : lineBytes_(line_bytes), bufferLines_(buffer_lines),
      producer_(producer), rng_(seed)
{
    fbsim_assert(buffer_lines > 0);
}

ProcRef
ProducerConsumerWorkload::next()
{
    std::size_t words = lineBytes_ / kWordBytes;
    std::size_t total_words = bufferLines_ * words;
    ProcRef ref;
    ref.addr = (pos_ % total_words) * kWordBytes;
    ref.write = producer_;
    ++pos_;
    return ref;
}

ReadMostlyWorkload::ReadMostlyWorkload(std::size_t line_bytes,
                                       std::size_t table_lines,
                                       double p_write,
                                       std::uint64_t seed)
    : lineBytes_(line_bytes), tableLines_(table_lines), pWrite_(p_write),
      rng_(seed)
{
    fbsim_assert(table_lines > 0);
}

ProcRef
ReadMostlyWorkload::next()
{
    ProcRef ref;
    std::size_t line = rng_.below(tableLines_);
    ref.addr = wordIn(rng_, line * lineBytes_, lineBytes_);
    ref.write = rng_.chance(pWrite_);
    return ref;
}

PrivateWorkload::PrivateWorkload(std::size_t line_bytes,
                                 std::size_t lines, double p_write,
                                 std::size_t proc, std::uint64_t seed)
    : lineBytes_(line_bytes), lines_(lines), pWrite_(p_write),
      proc_(proc), rng_(seed ^ (0xabcdull * (proc + 1)))
{
    fbsim_assert(lines > 0);
}

ProcRef
PrivateWorkload::next()
{
    // Each processor works in a disjoint region.
    Addr base = (1ull << 32) + proc_ * lines_ * lineBytes_;
    ProcRef ref;
    std::size_t line = rng_.below(lines_);
    ref.addr = wordIn(rng_, base + line * lineBytes_, lineBytes_);
    ref.write = rng_.chance(pWrite_);
    return ref;
}

std::vector<std::unique_ptr<RefStream>>
makeArch85Streams(const Arch85Params &params, std::size_t procs,
                  std::uint64_t seed)
{
    std::vector<std::unique_ptr<RefStream>> out;
    out.reserve(procs);
    for (std::size_t p = 0; p < procs; ++p)
        out.push_back(std::make_unique<Arch85Workload>(params, p, seed));
    return out;
}

} // namespace fbsim
