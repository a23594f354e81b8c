/**
 * @file
 * Declarative simulation campaigns.
 *
 * The paper's comparative claims (sections 5.1-5.2) are all answered
 * by running *many independent simulations* - protocol mixes, line
 * sizes, cost points, workloads, fault seeds - and comparing the
 * results.  A CampaignSpec declares such a study as the cross product
 *
 *     protocol mix x cache geometry x cost model x workload x fault
 *
 * and the CampaignRunner (campaign_runner.h) executes each element of
 * the product as one shared-nothing job: a private System + Engine
 * (and FaultInjector when the job is faulted) built, run and torn
 * down entirely on one worker thread.
 *
 * Seeding discipline: job i draws every stream it needs from
 * Rng::deriveSeed(campaignSeed, i).  Nothing in a job depends on any
 * other job or on which worker runs it, so the merged report is
 * bit-identical for any --jobs value (N=1 equals the serial run).
 *
 * These types are header-only on purpose: text/report renders a
 * CampaignReport without linking the runner.
 */

#ifndef FBSIM_CAMPAIGN_CAMPAIGN_SPEC_H_
#define FBSIM_CAMPAIGN_CAMPAIGN_SPEC_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hier/hier_system.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/system.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace fbsim {

/** One client slot of a protocol mix. */
struct MixSlot
{
    bool nonCaching = false;       ///< I/O-style master, no cache
    bool broadcastWrites = false;  ///< non-caching master's writes
    CacheSpec cache;               ///< used when !nonCaching
};

/** A named lineup of clients; its size is the job's processor count. */
struct ProtocolMix
{
    std::string name;
    std::vector<MixSlot> slots;
};

/** `procs` identical caches of one spec. */
inline ProtocolMix
homogeneousMix(std::string name, const CacheSpec &spec,
               std::size_t procs)
{
    ProtocolMix mix;
    mix.name = std::move(name);
    for (std::size_t i = 0; i < procs; ++i) {
        MixSlot slot;
        slot.cache = spec;
        slot.cache.seed = i + 1;
        mix.slots.push_back(slot);
    }
    return mix;
}

/** Cache geometry overrides; 0 = keep the mix/base value. */
struct GeometryPoint
{
    std::string name = "default";
    std::size_t lineBytes = 0;  ///< SystemConfig::lineBytes override
    std::size_t numSets = 0;    ///< per-cache sets override
    std::size_t assoc = 0;      ///< per-cache associativity override
};

/** A named bus cost model. */
struct CostPoint
{
    std::string name = "default";
    BusCostModel cost;
};

/**
 * A named workload: a factory building processor `proc`'s reference
 * stream.  The factory must be a pure function of its arguments (it
 * is called concurrently from worker threads); `seed` is the job
 * seed, so deriving per-processor streams with
 * Rng::deriveSeed(seed, proc) keeps jobs independent.
 *
 * Alternatively set `trace`: the runner shards it by processor and
 * replays each shard (shards are built once per worker and reused
 * across jobs - the hot path for trace-sharded campaigns).
 */
struct WorkloadSpec
{
    std::string name;
    std::function<std::unique_ptr<RefStream>(
        std::size_t proc, std::size_t procs, std::uint64_t seed)>
        make;
    /** Immutable shared trace; overrides `make` when set. */
    std::shared_ptr<const std::vector<TraceRef>> trace;
    /** 0 = use CampaignSpec::refsPerProc. */
    std::uint64_t refsPerProc = 0;
};

/** [Arch85] synthetic workload, seeded exactly like the benches. */
inline WorkloadSpec
arch85Workload(std::string name, const Arch85Params &params,
               std::uint64_t seed)
{
    WorkloadSpec w;
    w.name = std::move(name);
    w.make = [params, seed](std::size_t proc, std::size_t,
                            std::uint64_t) {
        return std::unique_ptr<RefStream>(
            new Arch85Workload(params, proc, seed));
    };
    return w;
}

/** [Arch85] workload whose streams derive from the job seed. */
inline WorkloadSpec
arch85SeededWorkload(std::string name, const Arch85Params &params)
{
    WorkloadSpec w;
    w.name = std::move(name);
    w.make = [params](std::size_t proc, std::size_t,
                      std::uint64_t seed) {
        return std::unique_ptr<RefStream>(
            new Arch85Workload(params, proc, seed));
    };
    return w;
}

/** Replay a shared trace, sharded by processor. */
inline WorkloadSpec
traceWorkload(std::string name,
              std::shared_ptr<const std::vector<TraceRef>> trace)
{
    WorkloadSpec w;
    w.name = std::move(name);
    w.trace = std::move(trace);
    return w;
}

/** A named fault campaign point (nullopt = fault-free). */
struct FaultPoint
{
    std::string name = "none";
    std::optional<FaultConfig> faults;
};

/** The declarative cross product. */
struct CampaignSpec
{
    /** Root of every job's seeding tree. */
    std::uint64_t campaignSeed = 1;

    /** References per processor per job (workloads may override). */
    std::uint64_t refsPerProc = 1000;

    /**
     * Base system configuration.  Per-axis values (geometry line
     * size, cost model, faults) override the corresponding fields
     * job by job; everything else applies verbatim.
     */
    SystemConfig base;
    EngineConfig engine;

    /**
     * Multi-bus fabric: when > 1, every job builds a HierSystem of
     * this many leaf buses (mix slot i joins cluster i % clusters),
     * which the Engine times by its tree rule, instead of the flat
     * System.
     * MOESI-class caches only (HierSystem rejects abort protocols on
     * leaves).  The geometry/cost/fault axes override `hier` exactly
     * as they override `base`: geometry line size -> hier.lineBytes,
     * the cost point -> hier.cost (root and leaf buses), the fault
     * axis or factory -> hier.faults.
     */
    std::size_t clusters = 1;

    /** Hierarchy base configuration (used when clusters > 1): its
     *  own ladder settings and the filter scrub cadence. */
    HierConfig hier;

    // The axes.  Empty geometry/cost/fault axes behave as a single
    // pass-through point; mixes and workloads must be non-empty.
    std::vector<ProtocolMix> mixes;
    std::vector<GeometryPoint> geometries;
    std::vector<CostPoint> costs;
    std::vector<WorkloadSpec> workloads;
    std::vector<FaultPoint> faults;

    /**
     * Per-job injector factory: when set, overrides the fault axis
     * entirely.  Called once per job with the job's derived seed and
     * index; the returned FaultConfig is *owned by that job*, whose
     * System builds its own FaultInjector from it.  This is the only
     * way campaigns hand fault state to workers - a FaultInjector
     * itself is non-copyable and serves exactly one System, so a
     * spec cannot alias one injector across workers.
     */
    std::function<std::optional<FaultConfig>(std::uint64_t job_seed,
                                             std::size_t job_index)>
        faultFactory;

    std::size_t numMixes() const { return mixes.size(); }
    std::size_t numGeometries() const
    { return geometries.empty() ? 1 : geometries.size(); }
    std::size_t numCosts() const
    { return costs.empty() ? 1 : costs.size(); }
    std::size_t numWorkloads() const { return workloads.size(); }
    std::size_t numFaults() const
    {
        if (faultFactory)
            return 1;
        return faults.empty() ? 1 : faults.size();
    }

    /** Total jobs in the cross product. */
    std::size_t
    numJobs() const
    {
        return numMixes() * numGeometries() * numCosts() *
               numWorkloads() * numFaults();
    }
};

/**
 * One element of the cross product.  `index` is the job's position in
 * the canonical nesting (mix outermost, then geometry, cost,
 * workload, fault innermost) and the merge order of the report.
 */
struct CampaignJob
{
    std::size_t index = 0;
    std::size_t mixIdx = 0;
    std::size_t geometryIdx = 0;
    std::size_t costIdx = 0;
    std::size_t workloadIdx = 0;
    std::size_t faultIdx = 0;
    std::uint64_t seed = 0;   ///< Rng::deriveSeed(campaignSeed, index)
};

/**
 * Supervision outcome of one job.  `Ok` is the only status in which
 * the simulation statistics are complete; a timed-out job carries the
 * partial statistics of its last attempt, a failed job carries none.
 */
enum class JobStatus : std::uint8_t
{
    Ok = 0,       ///< ran to completion
    TimedOut = 1, ///< every attempt hit the per-job deadline
    Failed = 2,   ///< every attempt threw
};

inline const char *
jobStatusName(JobStatus s)
{
    switch (s) {
    case JobStatus::Ok: return "ok";
    case JobStatus::TimedOut: return "timeout";
    case JobStatus::Failed: return "failed";
    }
    return "?";
}

/** Everything one job produces. */
struct CampaignResult
{
    CampaignJob job;

    EngineResult engine;
    BusStats bus;
    CacheStats cacheTotals;   ///< summed over the job's caches
    FaultStats faults;        ///< zero in fault-free jobs
    SpecStats speculation;    ///< all-zero unless the job ran the
                              ///  speculative loop under Strict

    /** Per-access violations plus the terminal audit (in order). */
    std::vector<std::string> violations;
    std::vector<std::string> faultEvents;
    std::string faultReport;  ///< renderFaultReport snapshot ("" clean)
    std::uint64_t watchdogTrips = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t reintegrations = 0;
    std::uint64_t scrubDivergence = 0; ///< bridge filter entries
                              ///  repaired (hier jobs; 0 on flat)
    bool consistent = true;   ///< no violations at all; false when
                              ///  the job failed or timed out

    // Supervision outcome (campaign_runner.h).  Unsupervised runs
    // always produce {Ok, 1, ""} so the default path is unchanged.
    JobStatus status = JobStatus::Ok;
    unsigned attempts = 1;    ///< attempts consumed (retries + 1)
    std::string failureReason; ///< exception text / deadline note

    /**
     * The job's metric snapshot (engine + system + per-master latency
     * histograms).  Derived deterministically from the job alone, so
     * merged campaign metrics are byte-identical at any worker count.
     * Empty for failed jobs.
     */
    MetricsSnapshot metrics;

    /** Total references executed across the job's processors. */
    std::uint64_t
    totalRefs() const
    {
        std::uint64_t total = 0;
        for (const ProcTiming &p : engine.procs)
            total += p.refs;
        return total;
    }

    double procUtilization() const { return engine.meanUtilization(); }
    double busUtilization() const { return engine.busUtilization(); }
    double systemPower() const { return engine.systemPower(); }

    double
    busCyclesPerRef() const
    {
        std::uint64_t refs = totalRefs();
        return refs == 0 ? 0.0
                         : static_cast<double>(bus.busyCycles) /
                               static_cast<double>(refs);
    }

    double
    dataWordsPerRef() const
    {
        std::uint64_t refs = totalRefs();
        return refs == 0 ? 0.0
                         : static_cast<double>(bus.dataWords) /
                               static_cast<double>(refs);
    }

    double
    transactionsPerRef() const
    {
        std::uint64_t refs = totalRefs();
        return refs == 0 ? 0.0
                         : static_cast<double>(bus.transactions) /
                               static_cast<double>(refs);
    }

    double missRatio() const { return cacheTotals.missRatio(); }
};

/**
 * The merged campaign: results in job-index order plus the axis
 * labels needed to render a sweep table (self-contained - the spec
 * can be discarded).
 */
struct CampaignReport
{
    std::vector<std::string> mixNames;
    std::vector<std::string> geometryNames;
    std::vector<std::string> costNames;
    std::vector<std::string> workloadNames;
    std::vector<std::string> faultNames;
    std::vector<CampaignResult> results;

    /** Linear job index of an axis coordinate. */
    std::size_t
    index(std::size_t mix, std::size_t geometry, std::size_t cost,
          std::size_t workload, std::size_t fault) const
    {
        return (((mix * geometryNames.size() + geometry) *
                     costNames.size() +
                 cost) *
                    workloadNames.size() +
                workload) *
                   faultNames.size() +
               fault;
    }

    const CampaignResult &
    at(std::size_t mix, std::size_t geometry = 0, std::size_t cost = 0,
       std::size_t workload = 0, std::size_t fault = 0) const
    {
        return results[index(mix, geometry, cost, workload, fault)];
    }

    /** True when every job ran without a single violation. */
    bool
    allConsistent() const
    {
        for (const CampaignResult &r : results) {
            if (!r.consistent)
                return false;
        }
        return true;
    }
};

} // namespace fbsim

#endif // FBSIM_CAMPAIGN_CAMPAIGN_SPEC_H_
