/**
 * @file
 * Deterministic fault injection for the bus, memory slave and caches.
 *
 * The paper's compatibility claim (section 3.4) is that any mix of
 * legal protocol choices keeps the memory image consistent, and its BS
 * abort-push-retry mechanism (section 4) is the class's only recovery
 * path.  Neither earns trust until exercised under adverse conditions,
 * so fbsim can inject faults at the points where real Futurebus
 * systems fail:
 *
 *  - spurious BS aborts (a glitch on the open-collector busy line),
 *    optionally escalating into an abort storm on one line;
 *  - delayed or dropped memory-slave responses (the address handshake
 *    times out and the master retries);
 *  - single-bit flips in cached line data (array soft errors) and in
 *    the snooped response signals CH/DI/SL (wired-OR glitches);
 *  - intermittently unresponsive snoopers (a module that misses an
 *    address cycle entirely).
 *
 * The two-level fabric (src/hier) adds bridge fault sites: dropped,
 * delayed or duplicated cross-bus forwards, stale snoop-filter bits
 * (a scheduled remoteShared/localHeld erase that never lands - the
 * conservative, safe direction of filter decay), and a stalled leaf
 * segment whose up-forwards all time out, modeling a partitioned
 * board bus that cannot win backbone arbitration.
 *
 * Every fault site is schedulable independently: by per-opportunity
 * probability, by a transaction window, or by an explicit script of
 * transaction indices.  All draws come from per-site xoshiro streams
 * whose seeds are derived from the *site name* (never a registration
 * index), so a campaign is reproducible from the seed alone, enabling
 * one site never perturbs another's schedule, and - crucially for the
 * hierarchy - assembling extra clusters, bridges or caches never
 * shifts the schedule of a site that already existed.
 *
 * The injector only *injects*; recovery and detection live elsewhere
 * (bounded retry with backoff in bus/, the livelock watchdog and cache
 * quarantine in sim/, the CoherenceChecker as oracle).  The contract a
 * fault campaign verifies is: every injected fault is either recovered
 * (the shared image stays consistent) or detected (a checker violation
 * or watchdog trip carrying this injector's seed) - never silent.
 */

#ifndef FBSIM_FAULT_FAULT_INJECTOR_H_
#define FBSIM_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "core/events.h"

namespace fbsim {

/**
 * When one fault site fires.  A site is active when `probability` is
 * positive or `scriptAt` is non-empty.  The clock is the 1-based index
 * of top-level bus transactions (nested abort pushes share their outer
 * transaction's tick).
 */
struct FaultSchedule
{
    /** Chance of firing per opportunity (per attempt, per response). */
    double probability = 0.0;

    /** Probabilistic firing is confined to [windowStart, windowEnd). */
    std::uint64_t windowStart = 0;
    std::uint64_t windowEnd = ~std::uint64_t{0};

    /** Explicit transaction indices (ascending); each fires once, at
     *  the site's first opportunity in that transaction. */
    std::vector<std::uint64_t> scriptAt;

    bool enabled() const
    { return probability > 0.0 || !scriptAt.empty(); }
};

/** Full configuration of a fault campaign. */
struct FaultConfig
{
    /** Master seed; all per-site streams derive from it. */
    std::uint64_t seed = 1;

    /** Spurious BS abort of a transaction attempt (no owner push). */
    FaultSchedule spuriousAbort;
    /** Chance a spurious abort escalates into a storm: the next
     *  `abortStormLength` attempts on that line all abort. */
    double abortStormProb = 0.0;
    unsigned abortStormLength = 8;

    /** Memory-slave response delayed by `memoryDelayCycles`. */
    FaultSchedule memoryDelay;
    Cycles memoryDelayCycles = 32;

    /** Memory-slave read response lost; the attempt times out and the
     *  master retries (bounded by the bus's maxRetries). */
    FaultSchedule memoryDrop;

    /** Single-bit flip in one random valid cached line. */
    FaultSchedule dataFlip;

    /** One of CH/DI/SL inverted in the wired-OR snoop response. */
    FaultSchedule responseFlip;

    /** A snooping cache misses an address cycle entirely. */
    FaultSchedule snooperMute;

    /**
     * Bridge sites (two-level fabric only; flat systems never draw
     * from them).  Each bridge owns a private stream per site, keyed
     * by "bridge<cluster>.<site>", so one bridge's faults never
     * perturb another's schedule.
     */
    /** A cross-bus forward is lost before reaching the root bus; the
     *  bridge retries with backoff (bounded by maxForwardRetries). */
    FaultSchedule bridgeDrop;
    /** A cross-bus forward is delayed by `bridgeDelayCycles`. */
    FaultSchedule bridgeDelay;
    Cycles bridgeDelayCycles = 16;
    /** A non-fill forward (invalidate/write-through/copyback) is
     *  delivered twice.  Fill reads are never duplicated: re-reading
     *  memory after a remote owner invalidated without updating it
     *  would manufacture stale data rather than a timing fault. */
    FaultSchedule bridgeDup;
    /** A scheduled snoop-filter erase is skipped, leaving a stale
     *  remoteShared/localHeld entry.  Deliberately only the safe
     *  (conservative, wasteful) direction: stale presence bits cost
     *  forwards, never correctness.  Scrub finds and repairs them. */
    FaultSchedule filterStale;
    /** A leaf segment partitions: the next `leafStallForwards`
     *  up-forwards from the drawn bridge are all lost, driving the
     *  retry -> watchdog -> segment-quarantine ladder. */
    FaultSchedule leafStall;
    unsigned leafStallForwards = 12;

    bool
    anyEnabled() const
    {
        return spuriousAbort.enabled() || memoryDelay.enabled() ||
               memoryDrop.enabled() || dataFlip.enabled() ||
               responseFlip.enabled() || snooperMute.enabled() ||
               anyBridgeEnabled();
    }

    /** True when any bridge-level site is armed. */
    bool
    anyBridgeEnabled() const
    {
        return bridgeDrop.enabled() || bridgeDelay.enabled() ||
               bridgeDup.enabled() || filterStale.enabled() ||
               leafStall.enabled();
    }
};

/** Injection counters, one per fault site. */
struct FaultStats
{
    std::uint64_t spuriousAborts = 0;  ///< injected abort rounds
    std::uint64_t stormAborts = 0;     ///< of which storm follow-ups
    std::uint64_t memoryDelays = 0;
    std::uint64_t memoryDrops = 0;
    std::uint64_t dataFlips = 0;
    std::uint64_t responseFlips = 0;
    std::uint64_t snooperMutes = 0;
    std::uint64_t bridgeDrops = 0;
    std::uint64_t bridgeDelays = 0;
    std::uint64_t bridgeDups = 0;
    std::uint64_t filterStales = 0;  ///< suppressed filter erases
    std::uint64_t leafStalls = 0;    ///< stall windows opened

    bool operator==(const FaultStats &) const = default;

    /** Total faults injected. */
    std::uint64_t
    injected() const
    {
        return spuriousAborts + stormAborts + memoryDelays +
               memoryDrops + dataFlips + responseFlips + snooperMutes +
               bridgeDrops + bridgeDelays + bridgeDups + filterStales +
               leafStalls;
    }

    /**
     * Faults that can perturb the memory image (and must therefore be
     * caught by the checker or watchdog).  Aborts, delays, drops and
     * the bridge timing sites are pure timing faults: the retry
     * machinery recovers them with no state divergence.  Stale filter
     * bits decay only in the conservative direction (extra forwards),
     * so they cost cycles - counted and repaired by the scrub - but
     * never corrupt the image.
     */
    std::uint64_t
    corrupting() const
    {
        return dataFlips + responseFlips + snooperMutes;
    }
};

/**
 * One named fault site's private draw state: an xoshiro stream seeded
 * from (campaign seed, site name) plus the site's script cursor.  The
 * injector holds the six flat sites; bridge sites are created on
 * demand by FaultInjector::site() and stay valid for the injector's
 * lifetime, so bridges resolve theirs once at arming time and draw
 * through the handle afterwards.  Every site fires through
 * FaultInjector::fireAt().
 */
class FaultSite
{
  public:
    const std::string &name() const { return name_; }

  private:
    friend class FaultInjector;
    FaultSite(std::string name, std::uint64_t seed)
        : name_(std::move(name)), rng_(seed)
    {
    }

    std::string name_;
    Rng rng_;
    std::size_t cursor_ = 0;
};

/**
 * One injector serves one bus/system; not thread-safe.  Enforced, not
 * just documented: the type is non-copyable, so an injector cannot be
 * duplicated into (or aliased across) several systems or campaign
 * workers.  Campaigns hand out per-job FaultConfig values instead
 * (CampaignSpec::faultFactory / the fault axis) and each job's System
 * constructs its own injector from them.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &config);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Advance the schedule clock (called by the bus once per
     *  top-level transaction, before the first attempt). */
    void beginTransaction() { ++txn_; }

    /** Current 1-based top-level transaction index. */
    std::uint64_t transactionIndex() const { return txn_; }

    /** Should this attempt on `line` draw a spurious BS abort? */
    bool fireSpuriousAbort(LineAddr line);

    /** Should snooper `id` miss this address cycle? */
    bool fireMute(MasterId id);

    /** Possibly invert one of CH/DI/SL in the wired-OR response. */
    ResponseSignals corruptResponse(ResponseSignals resp);

    /** Extra slave latency for this transaction (0 = none). */
    Cycles fireMemoryDelay();

    /** Should the slave's read response be lost? */
    bool fireMemoryDrop();

    /** Is a cached-line bit flip due?  The caller (System) picks the
     *  victim cache/line with dataFlipRng(), applies the flip, and
     *  calls noteDataFlip() - so the flip is counted only when a
     *  valid line actually existed. */
    bool shouldFlipData();

    /** Stream for victim cache/line/bit selection. */
    Rng &dataFlipRng() { return dataFlip_.rng_; }

    /** Count one applied data flip. */
    void noteDataFlip() { ++stats_.dataFlips; }

    /**
     * Resolve (creating on first use) the named site's draw state.
     * The stream seed is a pure function of (config.seed, name), so
     * resolution order - and therefore system assembly order - cannot
     * shift any site's schedule.  The reference stays valid for the
     * injector's lifetime.
     */
    FaultSite &site(std::string_view name);

    /** Schedule test for a named site (consumes at most one draw from
     *  that site's private stream). */
    bool fireAt(FaultSite &site, const FaultSchedule &sched);

    /** Should this cross-bus forward be dropped at `site`? */
    bool fireBridgeDrop(FaultSite &site);

    /** Extra forward latency at `site` (0 = none). */
    Cycles fireBridgeDelay(FaultSite &site);

    /** Should this non-fill forward be delivered twice at `site`? */
    bool fireBridgeDup(FaultSite &site);

    /** Should this scheduled filter erase be skipped at `site`? */
    bool fireFilterStale(FaultSite &site);

    /** Should a leaf-stall window open at `site`?  The bridge owns
     *  the countdown; this only draws the window's start. */
    bool fireLeafStall(FaultSite &site);

    /** Seed of the private stream for `name` under `seed` (exposed so
     *  determinism tests can pin the derivation). */
    static std::uint64_t siteSeed(std::uint64_t seed,
                                  std::string_view name);

    /**
     * P896 maintenance window: while quiesced no site fires and no
     * stream or script entry is consumed.  Quarantine and
     * reintegration flushes run under it (live removal holds the
     * backplane quiesced), so recovery traffic provably converges
     * instead of racing the campaign it is recovering from.
     */
    void setQuiesced(bool on) { quiesced_ = on; }
    bool quiesced() const { return quiesced_; }

    const FaultConfig &config() const { return config_; }
    const FaultStats &stats() const { return stats_; }

    /**
     * Reproduction tag emitted with every failure message (checker
     * violations, watchdog trips, bus give-ups): the seed and active
     * schedule, plus the transaction index at which the message was
     * generated.  "[fault seed=0x2a txn=317 abort(p=0.01,storm=0.2x8)
     * flip(p=0.001)]" plus the campaign's code are enough to replay
     * the identical run.
     */
    std::string describe() const;

  private:
    /** fireAt(), counting a hit in `counter`. */
    bool counted(FaultSite &site, const FaultSchedule &sched,
                 std::uint64_t &counter);

    FaultConfig config_;
    /** The flat sites, on the streams of their stable names. */
    FaultSite abort_, memoryDelay_, memoryDrop_, dataFlip_,
        responseFlip_, mute_;
    std::uint64_t txn_ = 0;
    bool quiesced_ = false;
    LineAddr stormLine_ = 0;
    unsigned stormRemaining_ = 0;
    FaultStats stats_;
    std::string siteSummary_;   ///< precomputed schedule description
    /** Named-site pool; deque so site() references never invalidate. */
    std::deque<FaultSite> namedSites_;
};

/**
 * Human-readable summary of a config's armed sites ("abort(p=0.01)
 * bdrop(p=0.02,w=[5,90))"); the schedule half of the replay tag, and
 * the rendering of a shrinker's minimal schedule.
 */
std::string summarizeFaultSites(const FaultConfig &config);

} // namespace fbsim

#endif // FBSIM_FAULT_FAULT_INJECTOR_H_
