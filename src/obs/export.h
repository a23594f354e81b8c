/**
 * @file
 * Standard metric exports: fold the simulator's existing aggregate
 * statistics (BusStats, CacheStats, FaultStats, EngineResult) into a
 * MetricRegistry under stable dotted names, so campaign jobs produce
 * uniform, mergeable snapshots without every call site hand-rolling
 * the mapping.
 */

#ifndef FBSIM_OBS_EXPORT_H_
#define FBSIM_OBS_EXPORT_H_

#include "obs/metrics.h"

namespace fbsim {

class System;
class HierSystem;
struct EngineResult;

/** bus.* / snoop.* / cache.* / fault.* / sys.* counters. */
void exportSystemMetrics(MetricRegistry &reg, const System &system);

/**
 * Hierarchical counterpart of exportSystemMetrics: root-bus counters
 * under hier.root.*, per-cluster leaf-bus and bridge counters under
 * hier.cluster<k>.*, the cache.* / fault.* / sys.* counters flat
 * systems export (bar cache.abortPushes: leaf caches never abort-push),
 * and sys.scrubDivergence.  Non-const because HierSystem exposes its
 * buses and bridges mutably; nothing is modified.
 */
void exportHierMetrics(MetricRegistry &reg, HierSystem &system);

/** engine.* counters and gauges (elapsed, busBusy, refs, ...). */
void exportEngineMetrics(MetricRegistry &reg,
                         const EngineResult &result);

/**
 * Process-wide log counters (log.warn.emitted / log.warn.suppressed).
 * These are *process* scope, not job scope: worker threads interleave
 * warnings nondeterministically, so they belong in a process metrics
 * section, never in per-job campaign snapshots.
 */
void exportProcessMetrics(MetricRegistry &reg);

} // namespace fbsim

#endif // FBSIM_OBS_EXPORT_H_
