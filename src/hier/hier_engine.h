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
 *
 * run() returns the flat engine's EngineResult: busBusy is the root
 * bus's occupancy over the run, and each leaf's occupancy is that leaf
 * bus's BusStats::busyCycles (HierSystem::leafBus).  The ladder
 * counters come from the system; a RunControl cancels the run
 * cooperatively, marking the result cancelled.
 */

#ifndef FBSIM_HIER_HIER_ENGINE_H_
#define FBSIM_HIER_HIER_ENGINE_H_

#include <vector>

#include "hier/hier_system.h"
#include "sim/engine.h"
#include "trace/ref_stream.h"

namespace fbsim {

/** Drives per-processor reference streams through a HierSystem. */
class HierEngine
{
  public:
    HierEngine(HierSystem &system, const EngineConfig &config);

    /**
     * Run every stream for refs_per_proc references; streams[i] feeds
     * HierSystem client i.  A non-null `control` is polled every
     * checkEveryRefs references, as in Engine::run.
     */
    EngineResult run(const std::vector<RefStream *> &streams,
                     std::uint64_t refs_per_proc,
                     const RunControl *control = nullptr);

  private:
    HierSystem &system_;
    EngineConfig config_;
};

} // namespace fbsim

#endif // FBSIM_HIER_HIER_ENGINE_H_
