/**
 * @file
 * Timed simulation over a multi-bus hierarchy.
 *
 * Unlike sim/Engine (one bus = one server), a hierarchy has several
 * contended resources: each leaf bus and the root bus.  HierEngine
 * schedules one reference at a time (globally, in readiness order) and
 * charges each involved bus its measured occupancy for that access:
 * the buses' stats deltas attribute the work, and an access starts
 * only when every bus it ends up touching is free.  Cluster-local
 * traffic therefore proceeds in parallel across clusters, which is the
 * throughput argument for the section 6 hierarchy.
 *
 * Approximation: bus involvement is known after functional execution,
 * so the start time uses the requester's leaf bus and the root; a
 * remote leaf reached by a down-forward is charged from the same start
 * (its possible extra queueing is folded into the conservative
 * single-reference-in-flight rule).
 */

#ifndef FBSIM_HIER_HIER_ENGINE_H_
#define FBSIM_HIER_HIER_ENGINE_H_

#include <vector>

#include "hier/hier_system.h"
#include "sim/engine.h"
#include "trace/ref_stream.h"

namespace fbsim {

/** Timed results for a hierarchical run. */
struct HierEngineResult
{
    Cycles elapsed = 0;
    std::vector<ProcTiming> procs;
    Cycles rootBusy = 0;
    std::vector<Cycles> leafBusy;   ///< per cluster

    // Resilience ladder summary (all zero in fault-free runs).
    std::uint64_t faultedRefs = 0;      ///< accesses that gave up
    std::uint64_t watchdogTrips = 0;
    std::uint64_t quarantines = 0;      ///< leaf segments pulled
    std::uint64_t reintegrations = 0;   ///< leaf segments rejoined
    std::uint64_t scrubDivergence = 0;  ///< filter entries repaired

    /** Sum of per-processor utilizations. */
    double systemPower() const;

    /** Mean processor utilization. */
    double meanUtilization() const;

    /** Root bus utilization in [0,1]. */
    double
    rootUtilization() const
    {
        return elapsed == 0 ? 0.0
                            : static_cast<double>(rootBusy) /
                                  static_cast<double>(elapsed);
    }
};

/** Drives per-processor reference streams through a HierSystem. */
class HierEngine
{
  public:
    HierEngine(HierSystem &system, const EngineConfig &config);

    /** Run every stream for refs_per_proc references; streams[i]
     *  feeds HierSystem client i. */
    HierEngineResult run(const std::vector<RefStream *> &streams,
                         std::uint64_t refs_per_proc);

  private:
    HierSystem &system_;
    EngineConfig config_;
};

} // namespace fbsim

#endif // FBSIM_HIER_HIER_ENGINE_H_
