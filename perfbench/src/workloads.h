/**
 * @file
 * The benchmark's four closed-loop workloads.  A run repeats one unit
 * of work; every unit of a workload is identical in configuration and
 * seed and starts from empty modelled caches, so unit times are
 * comparable samples and every unit has the same output digest.
 *
 * A unit has three phases: prepare() builds what the unit needs (not
 * timed), run() is the timed region, and check() verifies the outputs
 * (not timed) and digests them.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/** Knobs the self-tests turn; the benchmark uses the defaults. */
struct WorkloadOptions
{
    /** Added to the CacheSpec seed of campaign-faulted's random-chooser
     *  cache (the one cache whose seed shapes its results). */
    std::uint64_t perturbCacheSeed = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** What one unit of work counts ("refs", "jobs", "states"). */
    virtual const char *workName() const = 0;

    /** Build the next unit's inputs (not timed). */
    virtual void prepare() = 0;
    /** The timed region of one unit. */
    virtual void run() = 0;
    /** Verify, digest and count the work of the unit just run (not
     *  timed); `unit` is its index in the run, 0 being the warm-up. */
    virtual UnitResult check(std::uint64_t unit) = 0;

    /**
     * Traced-run extras: per-layer counts of the last checked unit
     * plus the alternative-configuration re-runs.  Fills `out` with
     * this workload's per-layer metrics; spans go to tracer().
     */
    virtual void layers(Metrics &out) = 0;
};

/** The workload names: the BENCHMARK.json ones, in its order, then
 *  sharing-mixed, which fbbench runs but the benchmark does not. */
const std::vector<std::string> &workloadNames();

/** Build a workload (this is the benchmark's set-up); null when the
 *  name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const WorkloadOptions &opts = {});

/** Per-layer metric names, in BENCHMARK.json order. */
const std::vector<std::string> &perLayerNames();

/** The per-layer metrics that are simulation counts: fixed for a seed
 *  and unmoved by a pure performance change. */
const std::vector<std::string> &perLayerCountNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
