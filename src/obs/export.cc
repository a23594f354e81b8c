#include "obs/export.h"

#include "common/logging.h"
#include "hier/hier_system.h"
#include "sim/engine.h"
#include "sim/system.h"

namespace fbsim {

namespace {

/**
 * The counters both topologies export: cache.* totals (all but
 * abortPushes), fault.* when an injector is armed, and the ladder's
 * sys.watchdogTrips / quarantines / reintegrations / violations.
 */
void
exportFabricMetrics(MetricRegistry &reg, const Fabric &system)
{
    const CacheStats totals = system.cacheTotals();
    reg.counter("cache.reads").add(totals.reads);
    reg.counter("cache.writes").add(totals.writes);
    reg.counter("cache.readMisses").add(totals.readMisses);
    reg.counter("cache.writeMisses").add(totals.writeMisses);
    reg.counter("cache.writebacks").add(totals.writebacks);
    reg.counter("cache.invalidationsRecv").add(totals.invalidationsRecv);
    reg.counter("cache.updatesRecv").add(totals.updatesRecv);
    reg.counter("cache.faultedAccesses").add(totals.faultedAccesses);

    if (const FaultInjector *fi = system.faultInjector()) {
        const FaultStats &f = fi->stats();
        reg.counter("fault.spuriousAborts").add(f.spuriousAborts);
        reg.counter("fault.stormAborts").add(f.stormAborts);
        reg.counter("fault.memoryDelays").add(f.memoryDelays);
        reg.counter("fault.memoryDrops").add(f.memoryDrops);
        reg.counter("fault.dataFlips").add(f.dataFlips);
        reg.counter("fault.responseFlips").add(f.responseFlips);
        reg.counter("fault.snooperMutes").add(f.snooperMutes);
    }

    reg.counter("sys.watchdogTrips").add(system.watchdogTrips());
    reg.counter("sys.quarantines").add(system.quarantineCount());
    reg.counter("sys.reintegrations").add(system.reintegrationCount());
    reg.counter("sys.violations").add(system.violations().size());
}

/** The bus.*-shaped counters of one bus, under `prefix`. */
void
exportBusCounters(MetricRegistry &reg, const std::string &prefix,
                  const BusStats &b)
{
    reg.counter(prefix + "transactions").add(b.transactions);
    reg.counter(prefix + "invalidates").add(b.invalidates);
    reg.counter(prefix + "interventions").add(b.interventions);
    reg.counter(prefix + "aborts").add(b.aborts);
    reg.counter(prefix + "retryExhausted").add(b.retryExhausted);
    reg.counter(prefix + "addressCycles").add(b.addressCycles);
    reg.counter(prefix + "dataWords").add(b.dataWords);
    reg.counter(prefix + "busyCycles").add(b.busyCycles);
    reg.counter(prefix + "backoffCycles").add(b.backoffCycles);
}

} // namespace

void
exportSystemMetrics(MetricRegistry &reg, const System &system)
{
    const BusStats &b = system.bus().stats();
    reg.counter("bus.transactions").add(b.transactions);
    reg.counter("bus.reads").add(b.reads);
    reg.counter("bus.readsForModify").add(b.readsForModify);
    reg.counter("bus.wordWrites").add(b.wordWrites);
    reg.counter("bus.broadcastWrites").add(b.broadcastWrites);
    reg.counter("bus.linePushes").add(b.linePushes);
    reg.counter("bus.invalidates").add(b.invalidates);
    reg.counter("bus.syncs").add(b.syncs);
    reg.counter("bus.interventions").add(b.interventions);
    reg.counter("bus.writeCaptures").add(b.writeCaptures);
    reg.counter("bus.aborts").add(b.aborts);
    reg.counter("bus.spuriousAborts").add(b.spuriousAborts);
    reg.counter("bus.droppedResponses").add(b.droppedResponses);
    reg.counter("bus.retryExhausted").add(b.retryExhausted);
    reg.counter("bus.responseConflicts").add(b.responseConflicts);
    reg.counter("bus.addressCycles").add(b.addressCycles);
    reg.counter("bus.dataWords").add(b.dataWords);
    reg.counter("bus.busyCycles").add(b.busyCycles);
    reg.counter("bus.backoffCycles").add(b.backoffCycles);

    const SnoopFilterStats &sf = system.bus().filterStats();
    reg.counter("snoop.invoked").add(sf.snoopsInvoked);
    reg.counter("snoop.suppressed").add(sf.snoopsSuppressed);

    exportFabricMetrics(reg, system);
    reg.counter("cache.abortPushes")
        .add(system.cacheTotals().abortPushes);
}

void
exportHierMetrics(MetricRegistry &reg, HierSystem &system)
{
    exportBusCounters(reg, "hier.root.", system.rootBus().stats());
    for (std::size_t k = 0; k < system.numClusters(); ++k) {
        const std::string p = strprintf("hier.cluster%zu.", k);
        exportBusCounters(reg, p + "leaf.",
                          system.leafBus(k).stats());

        const BridgeStats &s = system.bridge(k).stats();
        reg.counter(p + "bridge.upForwards").add(s.upForwards);
        reg.counter(p + "bridge.upFiltered").add(s.upFiltered);
        reg.counter(p + "bridge.downForwards").add(s.downForwards);
        reg.counter(p + "bridge.downFiltered").add(s.downFiltered);
        reg.counter(p + "bridge.remoteInterventions")
            .add(s.remoteInterventions);
        reg.counter(p + "bridge.forwardRetries").add(s.forwardRetries);
        reg.counter(p + "bridge.forwardBackoffCycles")
            .add(s.forwardBackoffCycles);
        reg.counter(p + "bridge.forwardExhausted")
            .add(s.forwardExhausted);
        reg.counter(p + "bridge.dupForwards").add(s.dupForwards);
        reg.counter(p + "bridge.delayedForwards")
            .add(s.delayedForwards);
        reg.counter(p + "bridge.stallWindows").add(s.stallWindows);
        reg.counter(p + "bridge.stallDrops").add(s.stallDrops);
        reg.counter(p + "bridge.downAborts").add(s.downAborts);
        reg.counter(p + "bridge.staleFilterSkips")
            .add(s.staleFilterSkips);
        reg.counter(p + "bridge.watchdogTrips").add(s.watchdogTrips);
        reg.counter(p + "bridge.scrubbedEntries")
            .add(s.scrubbedEntries);
        reg.counter(p + "bridge.salvagedLines").add(s.salvagedLines);
        reg.counter(p + "bridge.salvageServes").add(s.salvageServes);
        reg.gauge(p + "quarantined")
            .set(system.clusterQuarantined(k) ? 1 : 0);
    }

    exportFabricMetrics(reg, system);
    reg.counter("sys.scrubDivergence").add(system.scrubDivergence());
}

void
exportEngineMetrics(MetricRegistry &reg, const EngineResult &result)
{
    reg.gauge("engine.elapsed").set(result.elapsed);
    reg.counter("engine.busBusy").add(result.busBusy);
    std::uint64_t refs = 0;
    for (const ProcTiming &p : result.procs)
        refs += p.refs;
    reg.counter("engine.refs").add(refs);
    reg.counter("engine.faultedRefs").add(result.faultedRefs);
    reg.gauge("engine.procs").set(result.procs.size());
    reg.gauge("engine.cancelled").set(result.cancelled ? 1 : 0);
}

void
exportProcessMetrics(MetricRegistry &reg)
{
    WarnStats w = warnStats();
    reg.counter("log.warn.emitted").add(w.emitted);
    reg.counter("log.warn.suppressed").add(w.suppressed);
}

} // namespace fbsim
