/**
 * @file
 * Extension experiment E2 (section 6: "multiple buses ... and still
 * maintain consistency"): a two-level hierarchy of Futurebuses.
 *
 * Demonstrates (a) global consistency across clusters under the same
 * checker as the single-bus system, and (b) the scaling argument for
 * hierarchy: when sharing is mostly cluster-local, the bridges'
 * conservative filters keep coherence traffic off the root bus, so
 * aggregate bus capacity grows with the number of clusters; when
 * sharing is uniform, everything crosses the root and the hierarchy
 * degenerates to a single bus (plus bridge latency).
 */

#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "hier/hier_engine.h"

using namespace fbsim;
using namespace fbsim::bench;

namespace {

struct HierMetrics
{
    double rootPerAccess = 0;       ///< root bus cycles per access
    double leafPerAccess = 0;       ///< mean leaf bus cycles per access
    std::uint64_t upFiltered = 0;
    std::uint64_t downFiltered = 0;
    bool consistent = true;
};

/**
 * Run a sharing workload over `clusters` clusters of 4 caches.
 * @param cluster_local fraction of shared traffic confined to lines
 *        shared only within the accessor's own cluster.
 */
HierMetrics
run(std::size_t clusters, double cluster_local, std::uint64_t accesses)
{
    HierConfig config;
    HierSystem sys(config, clusters);
    std::vector<std::vector<MasterId>> members(clusters);
    for (std::size_t c = 0; c < clusters; ++c) {
        for (int i = 0; i < 4; ++i) {
            CacheSpec spec;
            spec.numSets = 32;
            spec.assoc = 2;
            spec.seed = c * 10 + i + 1;
            members[c].push_back(sys.addCache(c, spec));
        }
    }

    Rng rng(7);
    for (std::uint64_t i = 0; i < accesses; ++i) {
        std::size_t c = rng.below(clusters);
        MasterId who = members[c][rng.below(4)];
        Addr addr;
        if (rng.chance(cluster_local)) {
            // Lines shared only within cluster c.
            addr = (0x10000ull * (c + 1)) + rng.below(8 * 4) * 8;
        } else {
            // Globally shared lines.
            addr = rng.below(8 * 4) * 8;
        }
        if (rng.chance(0.4))
            sys.write(who, addr, rng.next());
        else
            sys.read(who, addr);
    }

    HierMetrics m;
    m.rootPerAccess =
        static_cast<double>(sys.rootBus().stats().busyCycles) / accesses;
    Cycles leaf_total = 0;
    for (std::size_t c = 0; c < clusters; ++c) {
        leaf_total += sys.leafBus(c).stats().busyCycles;
        m.upFiltered += sys.bridge(c).stats().upFiltered;
        m.downFiltered += sys.bridge(c).stats().downFiltered;
    }
    m.leafPerAccess = static_cast<double>(leaf_total) / accesses;
    m.consistent = sys.checkNow().empty() && sys.violations().empty();
    return m;
}

} // namespace

int
main()
{
    std::printf("=== E2: multi-bus hierarchy (section 6 future work) "
                "===\n\n");

    const std::uint64_t kAccesses = 40000;
    bool ok = true;

    std::printf("cluster-local sharing (95%% of shared traffic stays "
                "in-cluster):\n");
    std::printf("%-10s %16s %16s %12s %12s %12s\n", "clusters",
                "root cyc/acc", "leaf cyc/acc", "up-filt",
                "down-filt", "consistent");
    HierMetrics local4;
    for (std::size_t clusters : {1, 2, 4}) {
        HierMetrics m = run(clusters, 0.95, kAccesses);
        if (clusters == 4)
            local4 = m;
        std::printf("%-10zu %16.3f %16.3f %12llu %12llu %12s\n",
                    clusters, m.rootPerAccess, m.leafPerAccess,
                    static_cast<unsigned long long>(m.upFiltered),
                    static_cast<unsigned long long>(m.downFiltered),
                    m.consistent ? "yes" : "NO");
        ok = ok && m.consistent;
    }

    std::printf("\nuniform global sharing (everything crosses the "
                "root):\n");
    std::printf("%-10s %16s %16s %12s\n", "clusters", "root cyc/acc",
                "leaf cyc/acc", "consistent");
    double root_uniform = 0;
    for (std::size_t clusters : {1, 2, 4}) {
        HierMetrics m = run(clusters, 0.0, kAccesses);
        if (clusters == 4)
            root_uniform = m.rootPerAccess;
        std::printf("%-10zu %16.3f %16.3f %12s\n", clusters,
                    m.rootPerAccess, m.leafPerAccess,
                    m.consistent ? "yes" : "NO");
        ok = ok && m.consistent;
    }

    // Shape: at 4 clusters, cluster-local sharing keeps the root bus
    // nearly idle - a small fraction of the uniform-sharing root load
    // and of the leaf-bus work - so aggregate bus capacity scales
    // with the cluster count.
    ok = ok && local4.rootPerAccess < 0.2 * root_uniform;
    ok = ok && local4.rootPerAccess < 0.25 * local4.leafPerAccess;
    // Timed scaling: the same 8 processors, sharing locally within
    // their cluster, split over 1 / 2 / 4 leaf buses.
    std::printf("\ntimed scaling (8 processors, cluster-local "
                "sharing, HierEngine):\n");
    std::printf("%-10s %16s %16s\n", "clusters", "system power",
                "root util");
    double power1 = 0, power4 = 0;
    for (std::size_t clusters : {1, 2, 4}) {
        HierConfig config;
        HierSystem sys(config, clusters);
        std::vector<std::unique_ptr<RefStream>> streams;
        std::vector<RefStream *> raw;
        for (std::size_t i = 0; i < 8; ++i) {
            std::size_t c = i % clusters;
            CacheSpec spec;
            spec.numSets = 32;
            spec.assoc = 2;
            spec.seed = i + 1;
            sys.addCache(c, spec);
            struct Shift : RefStream
            {
                Shift(std::size_t cluster, std::uint64_t seed)
                    : inner(32, 8, 0.4, seed),
                      base(0x100000 * (cluster + 1))
                {
                }
                ProcRef
                next() override
                {
                    ProcRef r = inner.next();
                    r.addr += base;
                    return r;
                }
                ReadMostlyWorkload inner;
                Addr base;
            };
            streams.push_back(std::make_unique<Shift>(c, 50 + i));
            raw.push_back(streams.back().get());
        }
        HierEngine engine(sys, {});
        EngineResult r = engine.run(raw, 6000);
        std::printf("%-10zu %16.2f %16.3f\n", clusters,
                    r.systemPower(), r.busUtilization());
        ok = ok && sys.checkNow().empty();
        if (clusters == 1)
            power1 = r.systemPower();
        if (clusters == 4)
            power4 = r.systemPower();
    }
    ok = ok && power4 > power1 * 1.5;
    std::printf("4 leaf buses deliver %.1fx the single-bus system "
                "power on cluster-local sharing\n",
                power4 / power1);

    std::printf("\nshape: at 4 clusters the root carries %.3f "
                "cyc/access under local sharing vs %.3f under uniform "
                "sharing (%.0fx isolation), and %.0f%% of all bus "
                "work stays on the leaf buses: %s\n",
                local4.rootPerAccess, root_uniform,
                root_uniform / local4.rootPerAccess,
                100.0 * local4.leafPerAccess /
                    (local4.leafPerAccess + local4.rootPerAccess),
                ok ? "holds" : "VIOLATED");
    std::printf("the same MOESI invariants hold globally; the checker "
                "audits all clusters against the single root memory.\n");
    return verdict(ok, "E2 multi-bus hierarchy");
}
