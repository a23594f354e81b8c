/**
 * @file
 * Timed simulation: drives per-processor reference streams through a
 * Fabric (a flat System or a HierSystem), charging cycles from the bus
 * cost model.
 *
 * The model: each processor executes one reference per kHitCycles of
 * local work; a reference that needs a bus waits for it to be free and
 * then occupies it for the transaction cost.  Processor utilization
 * and bus utilization are the paper's section 5.2 / [Arch85]
 * comparison metrics.  One interleaved loop serves both topologies
 * with a bus rule each:
 *
 * - Flat (no leaf buses): one bus, granted by an Arbiter round-robin
 *   among the masters ready when it frees; the access's own outcome
 *   gives its service time.
 * - Tree (Fabric::numLeafBuses() > 0): every leaf bus and the root bus
 *   is a contended resource, and the earliest-ready processor is
 *   served.  A reference that needs a bus starts once its home leaf is
 *   free; the buses' BusStats::busyCycles deltas over the access
 *   attribute its work, a root delta pushes the start back to the
 *   root's free time, and each bus with a delta is busy from the start
 *   for that delta.  Cluster-local traffic therefore proceeds in
 *   parallel across clusters, the throughput argument for the section
 *   6 hierarchy.  Bus involvement is known only after functional
 *   execution, so a remote leaf reached by a down-forward is charged
 *   from the same start (its possible extra queueing is folded into
 *   the one-reference-in-flight rule).  busBusy is the root's
 *   occupancy; a leaf's is its own BusStats::busyCycles.  The tree
 *   rule records no latency and emits no trace spans.
 */

#ifndef FBSIM_SIM_ENGINE_H_
#define FBSIM_SIM_ENGINE_H_

#include <atomic>
#include <chrono>
#include <vector>

#include "obs/metrics.h"
#include "sim/fabric.h"
#include "trace/ref_stream.h"

namespace fbsim {

class LatencyRecorder;
class TraceSink;

/**
 * How the engine orders references relative to bus transactions.
 *
 * Strict is the default: the speculative batch loop whose observable
 * outcome (EngineResult, cache/bus/checker state, violation strings)
 * is byte-identical to the classic interleaved loop - speculation is
 * purely an execution strategy.  The contract holds when bus-free
 * writes find their line exclusive (M or E).  The gate enforces the
 * table half: a cache whose table writes S or O without the bus is not
 * speculation-eligible, so Strict runs the interleaved loop.  Runs
 * that break exclusivity through stale copies (a table that leaves a
 * sharer valid across an invalidating transaction) are not covered;
 * study those with Interleaved or checkEveryAccess.  The speculative
 * loop times the flat bus only, so a fabric with leaf buses always
 * runs the interleaved loop, under every ordering.
 *
 * PerLine is the same loop with a commit-on-drain policy: each
 * processor's run of local hits commits as soon as it is drained,
 * ahead of other processors' earlier references, so only per-line
 * ordering is retained (each line still sees its accesses in a legal
 * serialization; the global interleaving differs) - validated against
 * the src/mc differential oracle rather than bit-exactly.  Like
 * Strict it falls back to the interleaved loop when a cache is not
 * speculation-eligible.  Interleaved forces the classic loop (the
 * reference semantics both other modes are measured against).
 */
enum class EngineOrdering : std::uint8_t
{
    Strict = 0,
    PerLine = 1,
    Interleaved = 2,
};

/**
 * Speculation observability: deterministic counters and log2
 * histograms in the simulation domain (two runs of one seed produce
 * equal contents).  Lives outside EngineResult so the byte-identity
 * contract of EngineResult::operator== is untouched.
 */
struct SpecStats
{
    std::uint64_t batches = 0;        ///< nonzero commit batches
    std::uint64_t specRefs = 0;       ///< refs committed from speculation
    std::uint64_t rollbacks = 0;      ///< conflict-triggered rollbacks
    std::uint64_t rolledBackRefs = 0; ///< refs undone (later replayed)
    Histogram batchLen;               ///< per-proc commit batch lengths
    Histogram rollbackDepth;          ///< refs undone per rollback
};

/** One functionally-committed access, in commit order. */
struct EngineAccess
{
    MasterId proc = 0;
    bool write = false;
    Addr addr = 0;

    bool operator==(const EngineAccess &) const = default;
};

/**
 * Cooperative cancellation for supervised runs.  Worker threads cannot
 * be preempted, so the engine polls between references: every
 * `checkEveryRefs` executed references it tests the cancel flag and
 * the wall-clock deadline, and stops the run (marking the result
 * cancelled) when either fires.  Granularity is a few hundred
 * references - microseconds of overshoot, never an unbounded hang.
 */
struct RunControl
{
    /** External stop request (owned by the supervisor); may be null. */
    const std::atomic<bool> *cancel = nullptr;
    /** Wall-clock budget; ignored unless hasDeadline. */
    std::chrono::steady_clock::time_point deadline{};
    bool hasDeadline = false;
    std::uint64_t checkEveryRefs = 512;

    bool
    shouldStop() const
    {
        if (cancel && cancel->load(std::memory_order_relaxed))
            return true;
        return hasDeadline &&
               std::chrono::steady_clock::now() >= deadline;
    }
};

/** Processor cycles per reference when it completes locally (both bus
 *  rules). */
inline constexpr Cycles kHitCycles = 1;

/** Timed-engine configuration. */
struct EngineConfig
{
    /**
     * Optional per-master latency instrumentation (arbitration wait,
     * flat rule only; service time is recorded by the Bus itself when
     * the recorder is also attached there).  Null = detached, zero
     * overhead beyond a branch per bus access.  Not owned.
     */
    LatencyRecorder *latency = nullptr;
    /** Optional trace sink for per-reference bus spans (flat rule
     *  only).  Null = detached.  Not owned. */
    TraceSink *trace = nullptr;
    /**
     * Reference-vs-transaction ordering discipline; see
     * EngineOrdering.  Strict and PerLine run the speculative loop,
     * and only on a fabric without leaf buses, on the plain access
     * path, with speculation-eligible caches; anything else falls back
     * to the interleaved loop, whose semantics both represent.
     */
    EngineOrdering ordering = EngineOrdering::Strict;
    /** Speculation counters sink (not owned; null = detached).  Only
     *  the speculative loop under Strict writes it. */
    SpecStats *specStats = nullptr;
    /**
     * Functional access log sink (not owned; null = detached).  Every
     * loop appends each reference at its functional commit point, so
     * the log is byte-identical between Strict and Interleaved, and
     * under PerLine still a legal serialization of every line - the
     * lockstep cross-validation harness replays it against the
     * abstract model.
     */
    std::vector<EngineAccess> *accessLog = nullptr;
};

/** Per-processor timing results. */
struct ProcTiming
{
    std::uint64_t refs = 0;
    Cycles finishTime = 0;
    Cycles execCycles = 0;     ///< useful (hit-equivalent) work
    Cycles busWaitCycles = 0;  ///< arbitration + bus-busy waiting
    Cycles busServiceCycles = 0;

    /** Fraction of time doing useful work. */
    double
    utilization() const
    {
        return finishTime == 0
                   ? 0.0
                   : static_cast<double>(execCycles) /
                         static_cast<double>(finishTime);
    }

    /** Strict and Interleaved runs of one workload must agree
     *  exactly. */
    bool operator==(const ProcTiming &) const = default;
};

/** Whole-run timing results. */
struct EngineResult
{
    Cycles elapsed = 0;          ///< max processor finish time
    Cycles busBusy = 0;          ///< cycles the bus carried a transaction
    std::vector<ProcTiming> procs;
    /** Fault-campaign outcomes (zero in fault-free runs). */
    std::uint64_t faultedRefs = 0;   ///< refs that gave up on retry
    std::uint64_t watchdogTrips = 0; ///< no-progress detections
    std::uint64_t quarantines = 0;   ///< caches isolated
    std::uint64_t reintegrations = 0; ///< caches hot-swapped back in
    /** True when a RunControl stopped the run early; the timing
     *  fields then cover only the references actually executed. */
    bool cancelled = false;

    /** Strict and Interleaved runs of one workload must agree
     *  exactly. */
    bool operator==(const EngineResult &) const = default;

    /** Bus utilization in [0,1]. */
    double
    busUtilization() const
    {
        return elapsed == 0 ? 0.0
                            : static_cast<double>(busBusy) /
                                  static_cast<double>(elapsed);
    }

    /** Sum of per-processor utilizations ("effective processors"). */
    double systemPower() const;

    /** Mean processor utilization. */
    double meanUtilization() const;

    /**
     * Jain fairness index over per-processor bus service cycles
     * ((sum x)^2 / (n * sum x^2), 1.0 = perfectly fair).  Derived from
     * the ProcTiming vector, so determinism comparisons via
     * operator== are unaffected.
     */
    double busServiceFairness() const;

    /** Jain fairness index over per-processor bus wait cycles. */
    double busWaitFairness() const;
};

/** Drives reference streams through a Fabric with timing. */
class Engine
{
  public:
    Engine(Fabric &system, const EngineConfig &config);

    /**
     * Run every stream for `refs_per_proc` references.
     * streams[i] feeds client i; streams.size() must equal the
     * system's client count.  A non-null `control` is polled
     * periodically for cooperative cancellation (supervised jobs).
     */
    EngineResult run(const std::vector<RefStream *> &streams,
                     std::uint64_t refs_per_proc,
                     const RunControl *control = nullptr);

    /**
     * The value processor `proc`'s seq-th write stores (seq counts
     * from 1 per processor).  Unique per (proc, seq), so the checker's
     * oracle exercises real data movement and replay harnesses can
     * re-derive every written word from the access log.
     */
    static Word
    writeValue(std::size_t proc, std::uint64_t seq)
    {
        return (static_cast<Word>(proc + 1) << 48) ^ seq;
    }

  private:
    /**
     * Classic loop: one global readyAt scan per reference, every
     * access through the full Fabric wrapper, timed by the flat or
     * the tree bus rule.  Used whenever the system needs per-access
     * machinery (fault injection, per-access checking, scheduled
     * reintegrations), whose observable behaviour depends on the
     * exact global access order, and for every fabric with leaf
     * buses.
     */
    EngineResult runInterleaved(const std::vector<RefStream *> &streams,
                                std::uint64_t refs_per_proc,
                                const RunControl *control);

    /**
     * Speculative loop: between bus transactions every processor
     * batch-executes its run of provable local hits ahead of the
     * global order, with undo records for its writes.  Under Strict,
     * at each serialization point the prefix preceding the transaction
     * (in the interleaved functional order) commits and conflicting
     * suffixes roll back and replay, so the observable outcome is
     * byte-identical to runInterleaved.  Under PerLine each drained
     * run commits at once and a read mismatch is recorded where the
     * drain meets it, so no window is open at any bus transaction.
     * Requires every client to be a speculation-eligible cache
     * (SnoopingCache::specEligible).
     */
    EngineResult runSpeculative(const std::vector<RefStream *> &streams,
                                std::uint64_t refs_per_proc,
                                const RunControl *control);

    /** True when runSpeculative may serve this system. */
    bool specEligible() const;

    /**
     * Execute one reference through the Fabric wrapper (a write
     * stores writeValue(proc, ++seq)), count it when it faulted and
     * append it to the access log.
     */
    AccessOutcome access(EngineResult &result, std::size_t proc,
                         const ProcRef &ref, std::uint64_t &seq);

    /**
     * Bill a reference that used the bus, granted at `start` after
     * becoming ready at `readyAt`: its wait and service cycles, bus
     * occupancy, the latency recorder and the arb-wait + read/write
     * trace spans.  Returns the new bus-free time.
     */
    Cycles billBus(EngineResult &result, std::size_t proc,
                   const ProcRef &ref, Cycles readyAt, Cycles start,
                   const AccessOutcome &outcome);

    /** Shared epilogue: elapsed time and the ladder counters. */
    void finish(EngineResult &result) const;

    Fabric &system_;
    EngineConfig config_;
};

} // namespace fbsim

#endif // FBSIM_SIM_ENGINE_H_
