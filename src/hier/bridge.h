/**
 * @file
 * Inter-bus bridge for the multi-bus hierarchy (the paper's section 6:
 * "how one might implement a system with multiple buses and still
 * maintain consistency" - flagged there as future work; fbsim's answer
 * follows the hierarchical-snooping approach).
 *
 * A BusBridge couples one leaf bus (a cluster of caches) to the root
 * bus (which hosts main memory and the other clusters):
 *
 *   - On the leaf side, the bridge IS the bus's memory slave: every
 *     leaf transaction that needs memory or cross-cluster visibility
 *     is forwarded up as a root transaction, and the root responses
 *     (CH from remote caches, DI from remote owners, data) flow back
 *     into the leaf transaction.
 *   - On the root side, the bridge is a snooper: a transaction by
 *     another root master is forwarded down into the leaf bus (marked
 *     fromBridge, so the leaf slave stays out of it), and the cluster's
 *     aggregated responses - including an owning cache's intervention
 *     data - are presented on the root bus.
 *
 * Two conservative filters give the hierarchy its point (locality):
 *
 *   - remoteShared: lines that may be cached outside this cluster.
 *     Maintained from observed root traffic; invalidating forwards
 *     clear it.  Up-forwards that exist only to maintain remote copies
 *     (CH gathering on locally-served reads, invalidations) are
 *     skipped when the line cannot be remote.
 *   - localHeld: lines that may be cached inside this cluster
 *     (inclusion set; silent drops leave stale entries, which is safe).
 *     Down-forwards are skipped when the cluster cannot hold the line.
 *
 * Restrictions (checked): the hierarchy supports MOESI-class caches
 * (no BS abort protocols on leaf buses below a shared line - aborts
 * cannot propagate across buses) and no Sync commands across bridges.
 */

#ifndef FBSIM_HIER_BRIDGE_H_
#define FBSIM_HIER_BRIDGE_H_

#include <vector>

#include "bus/bus.h"
#include "common/flat_map.h"
#include "fault/fault_injector.h"

namespace fbsim {

/**
 * A set of line addresses (the mapped byte is unused).  Inserts
 * allocate only when the table grows and erases shift back, so steady
 * filter traffic allocates nothing.
 */
using LineSet = FlatMap64<std::uint8_t>;

/** Statistics of one bridge. */
struct BridgeStats
{
    std::uint64_t upForwards = 0;      ///< leaf -> root transactions
    std::uint64_t upFiltered = 0;      ///< skipped by remoteShared
    std::uint64_t downForwards = 0;    ///< root -> leaf transactions
    std::uint64_t downFiltered = 0;    ///< skipped by localHeld
    std::uint64_t remoteInterventions = 0; ///< data served from cluster
    // Resilience counters (all zero in fault-free runs).
    std::uint64_t forwardRetries = 0;  ///< dropped forwards re-sent
    std::uint64_t forwardBackoffCycles = 0; ///< backoff charged
    std::uint64_t forwardExhausted = 0; ///< forwards given up (the
                                        ///< leaf bus re-drives them)
    std::uint64_t dupForwards = 0;     ///< duplicated deliveries
    std::uint64_t delayedForwards = 0; ///< forwards with extra latency
    std::uint64_t stallWindows = 0;    ///< leaf-stall windows opened
    std::uint64_t stallDrops = 0;      ///< forwards lost to stalls
    std::uint64_t downAborts = 0;      ///< failed down-forwards that
                                       ///< BS-aborted the root bus
    std::uint64_t staleFilterSkips = 0; ///< filter erases suppressed
    std::uint64_t watchdogTrips = 0;   ///< consecutive-exhaust trips
    std::uint64_t scrubbedEntries = 0; ///< filter divergence repaired
    std::uint64_t salvagedLines = 0;   ///< dirty lines latched against
                                       ///< a root abort (im forwards)
    std::uint64_t salvageServes = 0;   ///< retries served from the
                                       ///< salvage buffer

    bool operator==(const BridgeStats &) const = default;
};

/**
 * One filter audit's findings, split by direction.  "Stale" entries
 * (present in the filter, absent from the TagStores) are the safe,
 * wasteful direction silent drops and injected filterStale faults
 * produce; "missing" entries would be unsafe (a skipped forward that
 * was needed) and must stay zero outside quarantine windows - the
 * hierarchical checker's H1/H2 invariants enforce exactly that.
 */
struct FilterAudit
{
    std::uint64_t staleLocal = 0;    ///< localHeld entries not held
    std::uint64_t missingLocal = 0;  ///< held lines absent from filter
    std::uint64_t staleRemote = 0;   ///< remoteShared entries not held
    std::uint64_t missingRemote = 0; ///< remote lines absent from filter

    std::uint64_t
    total() const
    {
        return staleLocal + missingLocal + staleRemote + missingRemote;
    }

    FilterAudit &
    operator+=(const FilterAudit &o)
    {
        staleLocal += o.staleLocal;
        missingLocal += o.missingLocal;
        staleRemote += o.staleRemote;
        missingRemote += o.missingRemote;
        return *this;
    }
};

/** Couples a leaf bus to the root bus. */
class BusBridge : public MemorySlave, public Snooper
{
  public:
    /**
     * @param root_id this bridge's master id on the root bus.
     * @param leaf_id this bridge's master id on the leaf bus (for
     *        down-forwarded transactions).
     * @param root the root bus (attach() this bridge separately).
     * @param words_per_line system line size in words.
     */
    BusBridge(MasterId root_id, MasterId leaf_id, Bus &root,
              std::size_t words_per_line);

    /** Late-bind the leaf bus (constructed after the bridge, since the
     *  leaf Bus needs this bridge as its slave). */
    void setLeafBus(Bus *leaf);

    // MemorySlave (leaf side).
    std::size_t wordsPerLine() const override { return wordsPerLine_; }
    SlaveResult transact(const BusRequest &req, bool local_owner,
                         bool local_ch,
                         std::span<Word> read_out) override;

    /**
     * Conservative CH mode for hierarchies with more than two
     * clusters: down-forwarded transactions resolve CH conditionals as
     * if remote sharers existed (a legal note 9/10 weakening), since a
     * third cluster's CH is not yet known during this bus's address
     * phase.
     */
    void setConservativeCh(bool on) { conservativeCh_ = on; }

    // Snooper (root side).
    MasterId snooperId() const override { return rootId_; }
    SnoopReply snoop(const BusRequest &req) override;
    void supplyLine(const BusRequest &req, std::span<Word> out) override;
    void commit(const BusRequest &req, bool others_ch) override;
    void performAbortPush(const BusRequest &req) override;

    BridgeStats &stats() { return stats_; }
    const BridgeStats &stats() const { return stats_; }

    /** Conservative test: may the line be cached in this cluster? */
    bool mayBeLocal(LineAddr la) const
    { return localHeld_.find(la) != nullptr; }

    /** Conservative test: may the line be cached outside it? */
    bool mayBeRemote(LineAddr la) const
    { return remoteShared_.find(la) != nullptr; }

    /**
     * Arm this bridge's fault sites.  `cluster` keys the site names
     * ("bridge<cluster>.drop" etc.), so every bridge draws from its
     * own name-derived streams and assembling additional clusters
     * never shifts an existing bridge's schedule.  Null disarms.
     */
    void setFaultInjector(FaultInjector *faults, std::size_t cluster);

    /**
     * Cross-bus forward retry policy: a dropped/stalled forward is
     * re-sent up to kForwardRetries times, charging kBackoffBase << k
     * cycles before retry k; after that the forward is reported
     * dropped and the leaf bus's own retry machinery re-drives the
     * whole transaction.
     */
    static constexpr unsigned kForwardRetries = 4;
    static constexpr Cycles kBackoffBase = 2;

    /** Consecutive forward exhaustions before the per-bridge livelock
     *  watchdog trips (stats().watchdogTrips). */
    static constexpr unsigned kWatchdogThreshold = 4;

    /**
     * Audit (and with `repair` fix) both filters against the exact
     * per-cluster presence sets recomputed from the leaf TagStores:
     * `local` = lines valid inside this cluster, `remote` = lines
     * valid in any other cluster.  Returns the divergence found;
     * repairs count into stats().scrubbedEntries.
     */
    FilterAudit auditFilters(const LineSet &local, const LineSet &remote,
                             bool repair);

  private:
    /** Forward a leaf transaction up to the root bus. */
    SlaveResult forwardUp(const BusRequest &req, BusCmd cmd,
                          MasterSignals sig, bool local_ch,
                          std::span<Word> read_out,
                          std::span<const Word> wline);

    /** Is this forward attempt lost (injected drop or stall)? */
    bool forwardLost();

    /** Filter erases, routed through the filterStale fault site. */
    void eraseRemoteShared(LineAddr la);
    void eraseLocalHeld(LineAddr la);

    MasterId rootId_;
    MasterId leafId_;
    Bus &root_;
    Bus *leaf_ = nullptr;
    std::size_t wordsPerLine_;
    BridgeStats stats_;

    bool conservativeCh_ = false;
    LineSet remoteShared_;
    LineSet localHeld_;

    // Fault plumbing (null/idle in fault-free runs: forwards pay one
    // branch on faults_ and nothing else).
    FaultInjector *faults_ = nullptr;
    FaultSite *dropSite_ = nullptr;
    FaultSite *delaySite_ = nullptr;
    FaultSite *dupSite_ = nullptr;
    FaultSite *staleSite_ = nullptr;
    FaultSite *stallSite_ = nullptr;
    std::size_t cluster_ = 0;
    unsigned stallRemaining_ = 0;   ///< forwards left in the window
    unsigned exhaustStreak_ = 0;    ///< consecutive exhausted forwards

    /** Line data fetched from the cluster between snoop and supply. */
    std::vector<Word> pendingLine_;
    bool pendingValid_ = false;

    /**
     * Dirty data captured by an invalidating down-forward, retained
     * until a root transaction actually delivers the line.  The
     * down-forward commits the cluster during the root SNOOP phase:
     * if the root attempt then aborts (spurious-abort injection draws
     * after the snoops), the supplying owner is already invalidated
     * and this buffer is the only copy anywhere.  The bridge stays
     * the line's owner of record, serving retries with DI from here;
     * commit() of a Read on the line releases it.
     */
    std::vector<Word> salvagedLine_;
    LineAddr salvagedAddr_ = 0;
    bool salvagedValid_ = false;
};

} // namespace fbsim

#endif // FBSIM_HIER_BRIDGE_H_
