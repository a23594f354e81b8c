/**
 * @file
 * Multi-worker execution of a CampaignSpec.
 *
 * Every job of the cross product is independent by construction
 * (campaign_spec.h), so the runner spreads them over its workers: the
 * calling thread and, with more than one worker, a ThreadPool of the
 * rest.  Each worker claims the next job, builds that job's private
 * System or HierSystem (and FaultInjector when faulted), runs it
 * through an Engine, and slots the CampaignResult at the job's index
 * in the report.  The merged report is therefore bit-identical for
 * any worker count - `--jobs 1` is the serial run on the calling
 * thread, and `--jobs N` is just faster.
 *
 * Observability: each job snapshots its own MetricRegistry (counters,
 * gauges, per-master latency histograms) into CampaignResult.metrics;
 * snapshot merges are associative and commutative, so campaign-level
 * metrics inherit the bit-identical-at-any-worker-count guarantee.
 * An attached TraceSink receives one designated job's full event
 * stream plus, after the merge, the campaign's job lifecycle events
 * in job-index order (derived only from merged per-job state, hence
 * equally deterministic).
 *
 * Per-worker scratch keeps the trace-sharding buffers and stream
 * arena alive across the jobs a worker executes, so a campaign of a
 * thousand trace replays shards the trace once per worker, not once
 * per job.
 */

#ifndef FBSIM_CAMPAIGN_CAMPAIGN_RUNNER_H_
#define FBSIM_CAMPAIGN_CAMPAIGN_RUNNER_H_

#include <memory>
#include <vector>

#include "campaign/campaign_spec.h"

namespace fbsim {

/**
 * Per-worker reusable buffers.  One instance lives on each worker's
 * stack for the duration of the campaign; jobs borrow from it and
 * must not keep references past their own execution.
 */
class CampaignScratch
{
  public:
    /**
     * splitTraceByProc(trace, procs), rebuilt only when (trace, procs)
     * differs from the previous job's.
     */
    const std::vector<std::vector<ProcRef>> &
    shards(const std::vector<TraceRef> &trace, std::size_t procs);

    /** Stream arena, cleared (capacity kept) between jobs. */
    std::vector<std::unique_ptr<RefStream>> streams;
    std::vector<RefStream *> raw;

  private:
    const void *traceKey_ = nullptr;
    std::size_t shardProcs_ = 0;
    std::vector<std::vector<ProcRef>> shards_;
};

/** Expand the cross product in canonical (merge) order. */
std::vector<CampaignJob> expandCampaign(const CampaignSpec &spec);

/**
 * Execute one job: build the job's System from the spec axes, drive
 * the workload through a timed Engine, and collect every statistic
 * the report needs.  Pure apart from `scratch` reuse - calling it
 * from any thread, in any order, yields the same result.  A non-null
 * `control` cancels the engine run cooperatively (the result comes
 * back with engine.cancelled set and partial statistics).
 */
CampaignResult runCampaignJob(const CampaignSpec &spec,
                              const CampaignJob &job,
                              CampaignScratch &scratch,
                              const RunControl *control = nullptr,
                              TraceSink *trace = nullptr);

/**
 * Per-job supervision policy.  The defaults are all no-ops: no
 * deadline, no retries, no journal - a default-constructed runner
 * behaves (and merges) exactly as the unsupervised one always did.
 */
struct SupervisorOptions
{
    /** Wall-clock budget per job attempt; 0 = unlimited.  The engine
     *  polls cooperatively, so overshoot is a few hundred refs. */
    std::uint64_t timeoutMs = 0;
    /** Extra attempts after a throwing or timed-out one.  Attempt k
     *  reseeds with Rng::deriveSeed(campaignSeed, jobIndex, k);
     *  attempt 0 is the canonical job seed. */
    unsigned retries = 0;
    /** Append-only checkpoint file; "" = no journaling. */
    std::string journalPath;
    /** Load journalPath first and skip the jobs it already holds. */
    bool resume = false;
};

/**
 * Run one job under supervision: attempts until one neither throws
 * nor times out (or the retry budget is gone), with per-attempt
 * sub-seeds.  A job that never succeeds becomes a structured
 * Failed/TimedOut row - supervision never propagates the exception.
 */
CampaignResult runSupervisedJob(const CampaignSpec &spec,
                                const CampaignJob &job,
                                CampaignScratch &scratch,
                                const SupervisorOptions &sup,
                                TraceSink *trace = nullptr);

/** Runs campaigns over `jobs` workers (1 = the calling thread alone,
 *  in job order). */
class CampaignRunner
{
  public:
    explicit CampaignRunner(unsigned jobs = 1);
    CampaignRunner(unsigned jobs, SupervisorOptions supervisor);

    /** Execute every job and merge results in job-index order. */
    CampaignReport run(const CampaignSpec &spec) const;

    unsigned jobs() const { return jobs_; }
    const SupervisorOptions &supervisor() const { return sup_; }

    /**
     * Attach a trace sink: job `jobIndex` runs with the sink wired
     * into its System/Engine (bus transactions, per-reference spans,
     * fault-ladder instants), and after the merge the sink receives
     * every job's lifecycle events (claim/run/retry/timeout/resume)
     * in job-index order.  One designated job keeps the trace small
     * and - since exactly one worker ever writes to the sink - needs
     * no locking.  Must outlive run().
     */
    void
    attachTrace(TraceSink *sink, std::size_t jobIndex = 0)
    {
        trace_ = sink;
        traceJob_ = jobIndex;
    }

  private:
    unsigned jobs_;
    SupervisorOptions sup_;
    TraceSink *trace_ = nullptr;
    std::size_t traceJob_ = 0;
};

} // namespace fbsim

#endif // FBSIM_CAMPAIGN_CAMPAIGN_RUNNER_H_
