/**
 * @file
 * System assembly: memory + bus + any mix of bus clients, with an
 * optional always-on coherence checker.
 *
 * This is the functional layer: accesses execute atomically in call
 * order (the bus serializes everything).  The timed layer (Engine)
 * adds arbitration and cycle accounting on top.
 */

#ifndef FBSIM_SIM_SYSTEM_H_
#define FBSIM_SIM_SYSTEM_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/bus.h"
#include "bus/transaction_log.h"
#include "checker/coherence_checker.h"
#include "fault/fault_injector.h"
#include "memory/main_memory.h"
#include "protocols/bus_client.h"
#include "protocols/factory.h"
#include "protocols/non_caching.h"
#include "cache/sector_store.h"
#include "protocols/snooping_cache.h"

namespace fbsim {

/** System-wide configuration. */
struct SystemConfig
{
    /** The standard line size (section 5.1) every cache must use. */
    std::size_t lineBytes = 32;
    BusCostModel cost;
    unsigned maxBusRetries = 16;
    /** Run the invariant check after every access (slow; tests). */
    bool checkEveryAccess = false;
    /**
     * Snoop-filter fast path: only snoop caches whose presence bit
     * says they may hold the line.  Off = the paper's literal
     * broadcast to every module.  Behaviour (final states, checker
     * verdicts, BusStats) is identical either way; only snoop fan-out
     * differs.
     */
    bool snoopFilter = true;
    /** Debug: assert the filter never suppresses a holder. */
    bool snoopFilterCrossCheck = false;
    /**
     * checkEveryAccess re-verifies only lines dirtied since the last
     * check (incremental).  Off = full universe scan per access.
     * checkNow() always scans the full universe.
     */
    bool incrementalCheck = true;
    /**
     * Fault campaign (nullopt = fault-free).  When any site is
     * enabled the system builds a FaultInjector, wires it into the
     * bus and memory slave, and arms the recovery machinery below.
     */
    std::optional<FaultConfig> faults;
    /**
     * Livelock/starvation watchdog: a master whose accesses come back
     * faulted (retry-exhausted) this many times consecutively has made
     * no forward progress; the trip is recorded and - with
     * quarantineOnWatchdog - its cache is quarantined.
     */
    unsigned watchdogRounds = 8;
    bool quarantineOnWatchdog = true;
    /**
     * Escalation ladder, middle rung: with quarantineOnWatchdog the
     * cache is only quarantined on its Nth watchdog trip since the
     * last (re)integration.  1 = quarantine on the first trip, the
     * pre-ladder behaviour; higher values give a persistent fault more
     * retry rounds before the board is pulled.
     */
    unsigned quarantineAfterTrips = 1;
    /**
     * Escalation ladder, top rung (P896 hot swap): schedule every
     * quarantined cache for reintegration this many bus-busy cycles
     * after it was pulled.  0 = never - quarantine stays permanent.
     * The functional layer has no clock of its own, so bus occupancy
     * (BusStats::busyCycles) serves as the monotonic cycle source.
     */
    Cycles reintegrateAfterCycles = 0;
    /**
     * Quarantine a cache whose read returns a value that differs from
     * the oracle while it holds the line valid (a failed data
     * integrity check, e.g. after an injected bit flip).
     */
    bool quarantineOnIntegrity = false;
    /**
     * Capacity of the built-in TransactionLog ring buffer (most
     * recent bus transactions, formatted).  0 = no log (the default;
     * the formatting work stays off the hot path entirely).
     */
    std::size_t transactionLogCapacity = 0;
    /**
     * Assembly-time compatibility guard override.  The paper's
     * compatibility claim (section 4) does not extend to mixing
     * Write-Once with the ownership (O-state) protocols on one bus:
     * Write-Once's first write goes through to memory while believing
     * it gained ownership, so a remote O-state owner and the
     * write-through collide on who holds the line's latest data (the
     * pinned WriteOnceOwnerCollision data-loss class).  addCache()
     * therefore refuses such a mix with a fatal naming both
     * protocols; set this to assemble one deliberately (checker
     * studies of the known-incompatible pair).
     */
    bool allowIncompatibleMix = false;
};

/** Everything needed to add one cache to the system. */
struct CacheSpec
{
    ProtocolKind protocol = ProtocolKind::Moesi;
    ChooserKind chooser = ChooserKind::Preferred;
    MoesiPolicy policy;                  ///< used when chooser == Policy
    std::size_t numSets = 64;
    std::size_t assoc = 4;
    ReplacementKind replacement = ReplacementKind::LRU;
    bool writeThrough = false;           ///< "*" client (MOESI only)
    bool discardNearReplacement = false; ///< section 5.2 refinement
    std::uint64_t seed = 1;
    /**
     * Explicit protocol table overriding `protocol` (testing: deliber-
     * ately perturbed tables for counterexample studies).  Must outlive
     * the system.  Null = the stock table for `protocol`.
     */
    const ProtocolTable *table = nullptr;
    /**
     * Explicit chooser overriding `chooser`/`policy` (a SequenceChooser
     * driven from a recorded script, for counterexample replay and
     * lockstep model comparison).  Called once per addCache.
     */
    std::function<std::unique_ptr<ActionChooser>()> makeChooser;
};

/** A shared-bus multiprocessor. */
class System
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Add a snooping cache; returns its master id (= client index). */
    MasterId addCache(const CacheSpec &spec);

    /**
     * Add a sector cache (section 5.1, [Hill84]): one tag per
     * `subsectors_per_sector` lines, per-subsector consistency state.
     * The protocol/chooser fields of `spec` apply; numSets/assoc are
     * sector sets/ways.
     */
    MasterId addSectorCache(const CacheSpec &spec,
                            std::size_t subsectors_per_sector);

    /** Add a non-caching master (an I/O processor). */
    MasterId addNonCachingMaster(bool broadcast_writes);

    /** Number of clients added. */
    std::size_t numClients() const { return clients_.size(); }

    /** Client by id. */
    BusClient &client(MasterId id);

    /** The snooping cache behind a client id; null for non-caching. */
    SnoopingCache *cacheOf(MasterId id);
    const SnoopingCache *cacheOf(MasterId id) const;

    /** Processor read; checker-verified when enabled. */
    AccessOutcome read(MasterId id, Addr addr);

    /** Processor write. */
    AccessOutcome write(MasterId id, Addr addr, Word value);

    /** Push a line (Pass = keep copy, Flush = discard). */
    AccessOutcome flush(MasterId id, Addr addr, bool keep_copy);

    /**
     * Multi-word read that may cross line boundaries.  Section 5.1
     * "line crossers": the processor/cache interface must treat such a
     * reference as one transaction per line involved; fbsim splits it
     * word-wise, which has exactly that effect.
     * @param out receives out.size() consecutive words from `addr`
     *            (word-aligned).
     */
    AccessOutcome readWords(MasterId id, Addr addr,
                            std::span<Word> out);

    /** Multi-word write counterpart of readWords(). */
    AccessOutcome writeWords(MasterId id, Addr addr,
                             std::span<const Word> values);

    /**
     * Issue the section 6 consistency command for the line holding
     * `addr`: force main memory to become valid (the owner, local or
     * remote, pushes its line).  With `purge` every cached copy is
     * also invalidated, after which memory is the sole owner.
     */
    AccessOutcome syncLine(MasterId id, Addr addr, bool purge = false);

    /**
     * Exact test of whether the client's next access to `addr` would
     * use the bus (used by the timed engine for arbitration).
     */
    bool wouldUseBus(MasterId id, bool is_write, Addr addr) const;

    /**
     * True when read()/write() reduce to the bare client access plus
     * oracle bookkeeping: no fault injector (so no watchdog, no
     * integrity quarantine, no RNG draws), no per-access invariant
     * check, no scheduled reintegrations.  The timed engine's drain
     * phases then call the clients directly and replay the oracle
     * bookkeeping at the next serialization point; this predicate
     * gates that.
     */
    bool plainAccessPath() const
    {
        return faults_ == nullptr && !config_.checkEveryAccess &&
               scheduledReintegrations_ == 0;
    }

    /**
     * Record an oracle mismatch observed by an engine drain that
     * reads the cache directly: same bookkeeping as a failed read()
     * verification (quarantineOnIntegrity cannot be armed here - it
     * requires a fault injector, which plainAccessPath() excludes).
     */
    void recordReadMismatch(Addr addr, Word value);

    /** Run the invariant check now; returns violations. */
    std::vector<std::string> checkNow() const;

    /** All violations recorded so far (per-access checking). */
    const std::vector<std::string> &violations() const
    { return violations_; }

    /**
     * Quarantine a cache: flush owned lines to memory, invalidate the
     * rest, and route its processor's accesses straight to the bus
     * from then on.  Returns false for non-caching masters and caches
     * already quarantined.  Invoked automatically by the watchdog /
     * integrity machinery; callable directly for tests and manual
     * isolation.
     */
    bool quarantine(MasterId id);

    /**
     * Reintegrate a quarantined cache: every line is forced to state I
     * (a cache with nothing valid is trivially compatible with any
     * running bus), the cache re-registers with the snoop filter and
     * the checker oracle, and its processor's accesses go back through
     * the cache - the first ones as cold I-state misses.  Returns
     * false for non-caching masters and caches not quarantined.
     * Invoked automatically when reintegrateAfterCycles elapses;
     * callable directly for tests and manual hot swap.
     */
    bool reintegrate(MasterId id);

    /** The fault injector, or null in a fault-free system. */
    FaultInjector *faultInjector() { return faults_.get(); }
    const FaultInjector *faultInjector() const { return faults_.get(); }

    /** Log of watchdog trips, quarantines and data-flip injections
     *  (each entry carries the injector's reproduction tag). */
    const std::vector<std::string> &faultEvents() const
    { return faultEvents_; }

    std::uint64_t watchdogTrips() const { return watchdogTrips_; }
    std::uint64_t quarantineCount() const { return quarantines_; }
    std::uint64_t reintegrationCount() const { return reintegrations_; }

    const SystemConfig &config() const { return config_; }
    Bus &bus() { return *bus_; }
    const Bus &bus() const { return *bus_; }
    MainMemory &memory() { return *memory_; }
    CoherenceChecker &checker() { return *checker_; }

    /**
     * Attach a trace sink: it sees every committed bus transaction and
     * the fault-ladder instants (watchdog trip, quarantine,
     * reintegration, injected corruption), each carrying the
     * injector's reproduction tag.  Must outlive the system.
     */
    void attachTrace(TraceSink *sink);

    /** The built-in transaction log, or null when capacity is 0. */
    const TransactionLog *transactionLog() const { return txnLog_.get(); }

  private:
    void afterAccess();

    /** Assembly-time compatibility guard (see allowIncompatibleMix):
     *  record a stock protocol joining the bus, fatal on a
     *  Write-Once x O-state mix unless overridden. */
    void checkProtocolMix(ProtocolKind kind);

    /** Per-access fault bookkeeping: watchdog progress counting and
     *  scheduled cache-array bit flips, then the configured checks. */
    void postAccess(MasterId id, const AccessOutcome &outcome);

    /** Fire a scheduled data flip into a random valid cached line. */
    void maybeCorruptCache();

    void recordFaultEvent(std::string event);

    /** Fire any scheduled reintegrations whose due cycle has passed. */
    void serviceReintegrations();

    SystemConfig config_;
    std::unique_ptr<MainMemory> memory_;
    std::unique_ptr<MainMemorySlave> slave_;
    std::unique_ptr<Bus> bus_;
    std::unique_ptr<CoherenceChecker> checker_;
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<TransactionLog> txnLog_;
    TraceSink *trace_ = nullptr;
    std::vector<std::unique_ptr<BusClient>> clients_;
    std::vector<SnoopingCache *> caches_;   ///< indexed by id; may be null
    std::vector<std::string> violations_;
    /** Consecutive faulted accesses per master (watchdog state). */
    std::vector<unsigned> noProgress_;
    /** Watchdog trips per master since its last (re)integration. */
    std::vector<unsigned> tripsSinceJoin_;
    /** Bus-busy cycle at which to reintegrate; kNeverDue = none. */
    std::vector<Cycles> reintegrateDue_;
    /** Entries of reintegrateDue_ not equal to kNeverDue. */
    std::size_t scheduledReintegrations_ = 0;
    /** Stock protocols assembled so far (compatibility guard). */
    std::vector<ProtocolKind> stockKinds_;
    std::vector<std::string> faultEvents_;
    std::uint64_t watchdogTrips_ = 0;
    std::uint64_t quarantines_ = 0;
    std::uint64_t reintegrations_ = 0;
};

} // namespace fbsim

#endif // FBSIM_SIM_SYSTEM_H_
