#include "hier/hier_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace fbsim {

HierEngine::HierEngine(HierSystem &system, const EngineConfig &config)
    : system_(system), config_(config)
{
}

EngineResult
HierEngine::run(const std::vector<RefStream *> &streams,
                std::uint64_t refs_per_proc, const RunControl *control)
{
    std::size_t n = streams.size();
    fbsim_assert(n == system_.numClients());
    fbsim_assert(n > 0);
    std::size_t clusters = system_.numClusters();

    struct ProcState
    {
        Cycles readyAt = 0;
        std::uint64_t done = 0;
        bool hasRef = false;
        ProcRef ref;
    };
    std::vector<ProcState> procs(n);
    EngineResult result;
    result.procs.resize(n);

    std::vector<Cycles> leaf_free(clusters, 0);
    Cycles root_free = 0;

    auto fetch = [&](std::size_t i) {
        if (!procs[i].hasRef && procs[i].done < refs_per_proc) {
            procs[i].ref = streams[i]->next();
            procs[i].hasRef = true;
        }
    };
    for (std::size_t i = 0; i < n; ++i)
        fetch(i);

    std::vector<std::uint64_t> seq(n, 0);
    auto leaf_busy = [&](std::size_t c) {
        return system_.leafBus(c).stats().busyCycles;
    };

    // Leaf occupancies before each access, to attribute its deltas.
    std::vector<Cycles> before(clusters);
    std::uint64_t untilCheck =
        control ? std::max<std::uint64_t>(1, control->checkEveryRefs)
                : 0;
    std::uint64_t executed = 0;

    for (;;) {
        if (control && ++executed >= untilCheck) {
            executed = 0;
            if (control->shouldStop()) {
                result.cancelled = true;
                break;
            }
        }
        std::size_t imin = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (procs[i].hasRef &&
                (imin == n || procs[i].readyAt < procs[imin].readyAt)) {
                imin = i;
            }
        }
        if (imin == n)
            break;

        ProcState &p = procs[imin];
        std::size_t home = system_.clusterOf(imin);
        ProcTiming &timing = result.procs[imin];
        bool needs_bus = system_.wouldUseBus(
            static_cast<MasterId>(imin), p.ref.write, p.ref.addr);

        Cycles start = p.readyAt;
        if (needs_bus) {
            // Wait for the home leaf bus and, pessimistically, the
            // root (cross-cluster involvement is unknown pre-access;
            // waiting only on the home leaf would let two clusters
            // overlap on the root).
            start = std::max(start, leaf_free[home]);
        }

        // Snapshot bus occupancies, execute, attribute the deltas.
        for (std::size_t c = 0; c < clusters; ++c)
            before[c] = leaf_busy(c);
        Cycles root_before = system_.rootBus().stats().busyCycles;

        if (p.ref.write) {
            Word value = Engine::writeValue(imin, ++seq[imin]);
            AccessOutcome o = system_.write(
                static_cast<MasterId>(imin), p.ref.addr, value);
            if (o.faulted)
                ++result.faultedRefs;
        } else {
            AccessOutcome o =
                system_.read(static_cast<MasterId>(imin), p.ref.addr);
            if (o.faulted)
                ++result.faultedRefs;
        }

        Cycles root_delta =
            system_.rootBus().stats().busyCycles - root_before;
        if (root_delta > 0)
            start = std::max(start, root_free);
        Cycles my_leaf_delta = 0;
        for (std::size_t c = 0; c < clusters; ++c) {
            Cycles delta = leaf_busy(c) - before[c];
            if (delta == 0)
                continue;
            leaf_free[c] = std::max(leaf_free[c], start + delta);
            if (c == home)
                my_leaf_delta = delta;
        }
        if (root_delta > 0) {
            root_free = start + root_delta;
            result.busBusy += root_delta;
        }

        timing.refs += 1;
        timing.execCycles += kHitCycles;
        if (my_leaf_delta > 0 || root_delta > 0) {
            timing.busWaitCycles += start - p.readyAt;
            timing.busServiceCycles += my_leaf_delta;
            p.readyAt = start + std::max(my_leaf_delta, root_delta) +
                        kHitCycles;
        } else {
            p.readyAt += kHitCycles;
        }
        timing.finishTime = p.readyAt;
        p.hasRef = false;
        p.done += 1;
        fetch(imin);
    }

    for (const ProcTiming &p : result.procs)
        result.elapsed = std::max(result.elapsed, p.finishTime);
    result.watchdogTrips = system_.watchdogTrips();
    result.quarantines = system_.quarantineCount();
    result.reintegrations = system_.reintegrationCount();
    return result;
}

} // namespace fbsim
