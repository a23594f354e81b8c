/**
 * @file
 * Synthetic workload generators.
 *
 * The paper's performance discussion (section 5.2) rests on the
 * Archibald & Baer simulations [Arch85], which in turn use the Dubois &
 * Briggs program-behaviour model [Dubo82]: each processor issues a
 * stream of references, a fraction of which go to shared blocks, with
 * given write probabilities.  Arch85Workload implements that model;
 * the named kernels (ping-pong/migratory, producer-consumer,
 * read-mostly, private) exercise the sharing patterns that separate
 * update from invalidate protocols.
 *
 * All generators are deterministic given their seed.
 */

#ifndef FBSIM_TRACE_WORKLOADS_H_
#define FBSIM_TRACE_WORKLOADS_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "trace/ref_stream.h"

namespace fbsim {

/** Parameters of the [Arch85]/[Dubo82]-style synthetic model. */
struct Arch85Params
{
    std::size_t lineBytes = 32;

    /** Shared region: number of shared lines (uniformly referenced). */
    std::size_t sharedLines = 16;

    /** Private region: per-processor pool of lines. */
    std::size_t privateLines = 256;

    /** Probability a reference targets the shared region. */
    double pShared = 0.05;

    /** Probability a shared reference is a write. */
    double pSharedWrite = 0.30;

    /** Probability a private reference is a write. */
    double pPrivateWrite = 0.25;

    /**
     * Temporal locality of private references: probability of
     * re-referencing the most recent private line; deeper lines follow
     * geometrically.
     */
    double pLocality = 0.6;
};

/** Per-processor stream following Arch85Params. */
class Arch85Workload : public RefStream
{
  public:
    /** @param params model parameters.
     *  @param proc processor index (selects the private region).
     *  @param seed determinism. */
    Arch85Workload(const Arch85Params &params, std::size_t proc,
                   std::uint64_t seed);

    ProcRef next() override;

    void nextBatch(ProcRef *out, std::size_t n) override;

    /** Base byte address of the shared region (line 0). */
    static Addr sharedBase() { return 0; }

    /** Base byte address of processor `proc`'s private region. */
    Addr privateBase() const;

  private:
    Arch85Params params_;
    std::size_t proc_;
    Addr privateBase_;   ///< hoisted: two multiplies off the hot path
    // The three Bernoulli draws per reference compare a raw generator
    // word against these precomputed integer thresholds, instead of
    // converting the probability per call.
    std::uint64_t sharedThresh_;
    std::uint64_t sharedWriteThresh_;
    std::uint64_t privateWriteThresh_;
    Geometric depth_;   ///< private stack distance, P = pLocality
    Rng rng_;
};

/**
 * Migratory / ping-pong kernel: all processors take turns
 * read-modify-writing the same few lines (the pattern where
 * invalidate-based protocols shine and ownership migrates).  Each
 * visit to a hot line is one read followed by `writes_per_visit`
 * writes - the burst length is what separates invalidate (one
 * invalidation, then silent M writes) from update (one broadcast per
 * write).
 */
class PingPongWorkload : public RefStream
{
  public:
    PingPongWorkload(std::size_t line_bytes, std::size_t hot_lines,
                     std::size_t proc, std::uint64_t seed,
                     std::size_t writes_per_visit = 1);

    ProcRef next() override;

  private:
    std::size_t lineBytes_;
    std::size_t hotLines_;
    std::size_t writesPerVisit_;
    Rng rng_;
    Addr current_ = 0;
    std::size_t phase_ = 0;
};

/**
 * Producer-consumer kernel: the producer writes words of a shared
 * buffer round-robin; consumers read them.  Actively-shared data where
 * update (broadcast) protocols shine.
 */
class ProducerConsumerWorkload : public RefStream
{
  public:
    /** @param producer true for the writing role. */
    ProducerConsumerWorkload(std::size_t line_bytes,
                             std::size_t buffer_lines, bool producer,
                             std::uint64_t seed);

    ProcRef next() override;

  private:
    std::size_t lineBytes_;
    std::size_t bufferLines_;
    bool producer_;
    Rng rng_;
    std::uint64_t pos_ = 0;
};

/**
 * Read-mostly kernel: everyone reads a shared table; rare writes
 * (e.g. a configuration update) invalidate or update all copies.
 */
class ReadMostlyWorkload : public RefStream
{
  public:
    ReadMostlyWorkload(std::size_t line_bytes, std::size_t table_lines,
                       double p_write, std::uint64_t seed);

    ProcRef next() override;

  private:
    std::size_t lineBytes_;
    std::size_t tableLines_;
    double pWrite_;
    Rng rng_;
};

/** Purely private working set (no sharing at all). */
class PrivateWorkload : public RefStream
{
  public:
    PrivateWorkload(std::size_t line_bytes, std::size_t lines,
                    double p_write, std::size_t proc, std::uint64_t seed);

    ProcRef next() override;

  private:
    std::size_t lineBytes_;
    std::size_t lines_;
    double pWrite_;
    std::size_t proc_;
    Rng rng_;
};

/** Convenience: build one Arch85 stream per processor. */
std::vector<std::unique_ptr<RefStream>>
makeArch85Streams(const Arch85Params &params, std::size_t procs,
                  std::uint64_t seed);

} // namespace fbsim

#endif // FBSIM_TRACE_WORKLOADS_H_
