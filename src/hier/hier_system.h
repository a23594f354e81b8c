/**
 * @file
 * Two-level multi-bus system (the paper's section 6 future work): a
 * root Futurebus hosting main memory, and any number of leaf buses
 * ("clusters") of caches, coupled by BusBridges.
 *
 * Consistency is maintained hierarchically: the MOESI invariants hold
 * globally (the same CoherenceChecker audits all clusters against the
 * single root memory), while the bridges' conservative filters keep
 * cluster-private coherence traffic off the root bus.
 *
 * Restrictions: leaf caches must run MOESI-class protocols (no BS
 * abort protocols - an abort cannot propagate across a bridge), and
 * Sync commands do not cross bridges.
 */

#ifndef FBSIM_HIER_HIER_SYSTEM_H_
#define FBSIM_HIER_HIER_SYSTEM_H_

#include <memory>
#include <vector>

#include "hier/bridge.h"
#include "sim/fabric.h"

namespace fbsim {

/** Configuration of a hierarchical system: the shared settings plus
 *  the bridge filters' scrub cadence.  One injector serves the whole
 *  fabric: root bus, root memory slave, every leaf bus, and the
 *  bridges' own fault sites ("bridge<k>.drop" etc., keyed by cluster
 *  index so assembly order never shifts a schedule). */
struct HierConfig : FabricConfig
{
    /**
     * Audit-and-scrub cadence: every N accesses, recompute the exact
     * per-cluster presence sets from the leaf TagStores and repair
     * every bridge filter to them, counting the divergence.  0 =
     * never (scrubFilters() can still be called by hand).
     */
    std::uint64_t scrubEveryAccesses = 0;
};

/**
 * A root bus plus clusters of caches behind bridges.  Each bridge and
 * its leaf segment is one board of the fabric's ladder: master and
 * bridge watchdog trips are charged to the cluster, and a pull takes
 * the whole board-bus out (quarantineAfterTrips counts trips per
 * cluster; reintegrateAfterCycles runs on the root bus's clock).
 */
class HierSystem : public Fabric
{
  public:
    /** @param clusters number of leaf buses (>= 1). */
    HierSystem(const HierConfig &config, std::size_t clusters);
    ~HierSystem() override;

    std::size_t numClusters() const { return clusters_.size(); }

    /**
     * Add a cache to a cluster; returns a system-wide client id.
     * The protocol must be a MOESI-class member (MOESI, Berkeley,
     * Dragon; write-through via spec.writeThrough).
     */
    MasterId addCache(std::size_t cluster, const CacheSpec &spec);

    /** Add a non-caching master to a cluster. */
    MasterId addNonCachingMaster(std::size_t cluster,
                                 bool broadcast_writes);

    /** Cluster a client was added to. */
    std::size_t clusterOf(MasterId id) const { return boardOf(id); }

    Bus &leafBus(std::size_t cluster);
    BusBridge &bridge(std::size_t cluster);

    /** Observe bus transactions and fault/recovery instants on every
     *  bus (Perfetto etc.). */
    void attachTrace(TraceSink *sink) override;

    /**
     * Pull one leaf segment (P896 live removal of a board-bus): every
     * cache in the cluster is flushed and isolated, the bridge is
     * suspended from the root bus, and the cluster's filter checks are
     * detached.  The flushes run under the injector's quiesced window
     * (no fault site fires, the bridge's stall window freezes), so
     * owned data provably drains to memory.  Returns false when
     * already quarantined (or no fault machinery is armed).
     */
    bool quarantineCluster(std::size_t cluster)
    { return quarantineBoard(cluster); }

    /**
     * Rejoin a quarantined segment: caches rejoin cold (all lines
     * invalid), the bridge's filters are scrubbed to the *exact*
     * recomputed presence sets before it resumes snooping, and the
     * cluster's H1/H2 checks re-attach.  Returns false when not
     * quarantined.
     */
    bool reintegrateCluster(std::size_t cluster)
    { return reintegrateBoard(cluster); }

    bool clusterQuarantined(std::size_t cluster) const
    { return boardPulled(cluster); }

    /**
     * Audit-and-scrub every active bridge's filters against the exact
     * presence sets recomputed from the leaf TagStores; repairs are
     * applied and the total divergence (stale + missing entries) is
     * returned and accumulated into scrubDivergence().
     */
    std::uint64_t scrubFilters();

    std::uint64_t scrubDivergence() const { return scrubDivergence_; }

  private:
    struct Cluster
    {
        std::unique_ptr<BusBridge> bridge;
        std::unique_ptr<Bus> bus;
        MasterId nextLeafId = 0;
    };

    void pullBoard(std::size_t cluster) override;
    std::string rejoinBoard(std::size_t cluster) override;

    /** The bridges' forward watchdogs and the scrub cadence. */
    void afterWatchdog() override;

    /** Re-attach cluster `k`'s H1/H2 probes to its bridge. */
    void attachFilterChecks(std::size_t k);

    /** Exact per-cluster presence sets from the leaf TagStores. */
    std::vector<LineSet> presence() const;

    /** Audit cluster `k`'s bridge filters against `held` (from
     *  presence()) and repair them; the divergence is added to
     *  scrubDivergence(). */
    FilterAudit scrubBridge(std::size_t k,
                            const std::vector<LineSet> &held);

    HierConfig config_;
    std::vector<Cluster> clusters_;
    std::vector<std::uint64_t> bridgeTripsSeen_; ///< polled bridge trips
    std::uint64_t scrubDivergence_ = 0;
    std::uint64_t accessCount_ = 0;   ///< fault-armed accesses
};

} // namespace fbsim

#endif // FBSIM_HIER_HIER_SYSTEM_H_
