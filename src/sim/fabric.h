/**
 * @file
 * The core every fbsim system is built on: root memory and root bus,
 * the coherence checker and the fault injector; CacheSpec ->
 * SnoopingCache assembly; the oracle-checked access path; and the
 * fault ladder (watchdog -> trip -> pull -> scheduled rejoin).
 *
 * The ladder's unit is a *board* on the root bus - the module P896
 * live removal takes out and puts back.  In a flat System a board is
 * one cache; in a HierSystem it is a bridge plus its whole leaf
 * segment.  A topology registers its boards and masters and supplies
 * only what differs: how a board is pulled and rejoined, and (through
 * the optional hooks) the hierarchy's bridge-watchdog poll and scrub
 * cadence and the flat system's integrity quarantine.
 */

#ifndef FBSIM_SIM_FABRIC_H_
#define FBSIM_SIM_FABRIC_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/bus.h"
#include "checker/coherence_checker.h"
#include "fault/fault_injector.h"
#include "memory/main_memory.h"
#include "protocols/bus_client.h"
#include "protocols/factory.h"
#include "protocols/snooping_cache.h"

namespace fbsim {

/** The settings the flat and the hierarchical system share. */
struct FabricConfig
{
    /** The standard line size (section 5.1) every cache must use. */
    std::size_t lineBytes = 32;
    /** Bus timing of the root bus and of every leaf bus. */
    BusCostModel cost;
    unsigned maxBusRetries = 16;
    /** Run the invariant check after every access (slow; tests). */
    bool checkEveryAccess = false;
    /**
     * Snoop-filter fast path on every bus: only snoop caches whose
     * presence bit says they may hold the line.  Off = the paper's
     * literal broadcast to every module.  Behaviour (final states,
     * checker verdicts, BusStats) is identical either way; only snoop
     * fan-out differs.
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
     * enabled the system builds one FaultInjector, wires it into every
     * bus, memory slave and bridge, and arms the ladder below.
     */
    std::optional<FaultConfig> faults;
    /**
     * Livelock/starvation watchdog: a master whose accesses come back
     * faulted (retry-exhausted) this many times consecutively has made
     * no forward progress; the trip is charged to its board.
     */
    unsigned watchdogRounds = 8;
    bool quarantineOnWatchdog = true;
    /**
     * Escalation ladder, middle rung: with quarantineOnWatchdog a
     * board is only pulled on its Nth watchdog trip since the last
     * (re)integration.  1 = pull on the first trip; higher values give
     * a persistent fault more retry rounds before the board is pulled.
     */
    unsigned quarantineAfterTrips = 1;
    /**
     * Escalation ladder, top rung (P896 hot swap): schedule every
     * pulled board for reintegration this many root-bus busy cycles
     * after it was pulled.  0 = never - quarantine stays permanent.
     * The functional layer has no clock of its own, so root-bus
     * occupancy (BusStats::busyCycles) is the monotonic cycle source.
     */
    Cycles reintegrateAfterCycles = 0;
};

/** Everything needed to add one cache to a system. */
struct CacheSpec
{
    ProtocolKind protocol = ProtocolKind::Moesi;
    ChooserKind chooser = ChooserKind::Preferred;
    MoesiPolicy policy;                  ///< used when chooser == Policy
    std::size_t numSets = 64;
    std::size_t assoc = 4;
    bool writeThrough = false;           ///< "*" client (MOESI only)
    bool discardNearReplacement = false; ///< section 5.2 refinement
    std::uint64_t seed = 1;              ///< seeds the Random chooser
    /**
     * Explicit protocol table overriding `protocol` (testing: deliber-
     * ately perturbed tables for counterexample studies).  Must outlive
     * the system.  Null = the stock table for `protocol`.
     */
    const ProtocolTable *table = nullptr;
    /**
     * Explicit chooser overriding `chooser`/`policy` (a SequenceChooser
     * driven from a recorded script, for counterexample replay and
     * lockstep model comparison).  Called once per added cache.
     */
    std::function<std::unique_ptr<ActionChooser>()> makeChooser;
};

/** A root bus with memory, its masters, and their boards' ladder. */
class Fabric
{
  public:
    virtual ~Fabric();

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** Number of masters added (system-wide ids 0..n-1). */
    std::size_t numClients() const { return clients_.size(); }

    /** Client by id. */
    BusClient &client(MasterId id);

    /** The snooping cache behind a client id; null for non-caching. */
    SnoopingCache *cacheOf(MasterId id);
    const SnoopingCache *cacheOf(MasterId id) const;

    /** Statistics summed over every cache. */
    CacheStats cacheTotals() const;

    /** Processor read; the value is verified against the oracle. */
    AccessOutcome read(MasterId id, Addr addr);

    /** Processor write. */
    AccessOutcome write(MasterId id, Addr addr, Word value);

    /** Push a line (Pass = keep copy, Flush = discard). */
    AccessOutcome flush(MasterId id, Addr addr, bool keep_copy);

    /**
     * Exact test of whether the client's next access to `addr` would
     * use a bus (used by the timed engines for arbitration).
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
    bool
    plainAccessPath() const
    {
        return faults_ == nullptr && !config_.checkEveryAccess &&
               scheduledRejoins_ == 0;
    }

    /**
     * Record an oracle mismatch observed by an engine drain that
     * reads a cache directly: the same bookkeeping as a failed read()
     * verification.
     */
    void recordReadMismatch(Addr addr, Word value);

    /** Run the invariant check now; returns violations. */
    std::vector<std::string> checkNow() const;

    /** All violations recorded so far (capped). */
    const std::vector<std::string> &violations() const
    { return violations_; }

    /** The fault injector, or null in a fault-free system. */
    FaultInjector *faultInjector() { return faults_.get(); }
    const FaultInjector *faultInjector() const { return faults_.get(); }

    /** Log of watchdog trips, pulls, rejoins and data-flip injections
     *  (each entry carries the injector's reproduction tag; capped). */
    const std::vector<std::string> &faultEvents() const
    { return faultEvents_; }

    std::uint64_t watchdogTrips() const { return watchdogTrips_; }
    std::uint64_t quarantineCount() const { return quarantines_; }
    std::uint64_t reintegrationCount() const { return reintegrations_; }

    Bus &rootBus() { return *bus_; }
    const Bus &rootBus() const { return *bus_; }
    MainMemory &memory() { return *memory_; }
    CoherenceChecker &checker() { return *checker_; }

    /**
     * Attach a trace sink: it sees every committed bus transaction and
     * the fault-ladder instants (watchdog trip, quarantine,
     * reintegration, injected corruption), each carrying the
     * injector's reproduction tag.  Must outlive the system.
     */
    virtual void attachTrace(TraceSink *sink);

  protected:
    /** Builds the root memory, root bus, checker and injector. */
    explicit Fabric(const FabricConfig &config);

    /**
     * Register a board on the root bus; returns its index.  `name`
     * appears in pull and rejoin messages, `trip_tag` prefixes its
     * watchdog messages; only `pullable` boards can be quarantined.
     */
    std::size_t addBoard(std::string name, std::string trip_tag,
                         bool pullable);

    /** Build `spec`'s cache, with `lines_per_sector` lines per frame,
     *  as client `bus_id` of `bus`, attach it to that bus and the
     *  checker, and register it on `board`. */
    MasterId addCacheOn(Bus &bus, MasterId bus_id, std::size_t board,
                        const CacheSpec &spec,
                        std::size_t lines_per_sector = 1);

    /** Register a master on `board`; returns its system-wide id. */
    MasterId addMaster(std::unique_ptr<BusClient> client,
                       SnoopingCache *cache, std::size_t board);

    std::size_t boardOf(MasterId id) const;
    bool boardPulled(std::size_t board) const;

    /** Charge one watchdog trip to a board's ladder (fault-armed
     *  systems only: the message carries the injector's tag). */
    void tripBoard(std::size_t board, const std::string &why);

    /** Pull a board; false when not pullable or already out. */
    bool quarantineBoard(std::size_t board);

    /** Rejoin a pulled board; false when it is not out. */
    bool reintegrateBoard(std::size_t board);

    /** Reset the no-progress count of every master on `board`. */
    void clearProgress(std::size_t board);

    /** Watchdog, data flips, scheduled rejoins and the per-access
     *  check, after every access. */
    void postAccess(MasterId id, const AccessOutcome &outcome);

    TraceSink *trace() const { return trace_; }

  private:
    /** Board::rejoinDue sentinel: no rejoin scheduled. */
    static constexpr Cycles kNeverDue = ~Cycles{0};

    /** Take the board's caches out of the fabric (flushing them). */
    virtual void pullBoard(std::size_t board) = 0;

    /** Put the board's caches back; returns how, for the message. */
    virtual std::string rejoinBoard(std::size_t board) = 0;

    /** Fault-armed work after the master watchdog, before data flips
     *  (the hierarchy's bridge-watchdog poll and scrub cadence). */
    virtual void afterWatchdog() {}

    /** A read by `id` returned a value the oracle did not expect. */
    virtual void onReadMismatch(MasterId, Addr) {}

    /** One ladder rung: its trace instant and its fault-event record. */
    void ladderEvent(const char *kind, std::size_t track,
                     std::string msg);

    /** " " + the injector's reproduction tag, or "" when fault-free. */
    std::string replayTag() const;

    void serviceRejoins();
    void maybeFlipData();
    void checkAfterAccess();

    struct Board
    {
        std::string name;
        std::string tripTag;
        bool pullable = false;
        bool pulled = false;
        /** Watchdog trips since the last (re)integration. */
        unsigned trips = 0;
        /** Root busy cycle at which to rejoin; kNeverDue = none. */
        Cycles rejoinDue = kNeverDue;
    };

    FabricConfig config_;
    std::unique_ptr<MainMemory> memory_;
    std::unique_ptr<MainMemorySlave> slave_;
    std::unique_ptr<Bus> bus_;
    std::unique_ptr<CoherenceChecker> checker_;
    std::unique_ptr<FaultInjector> faults_;
    TraceSink *trace_ = nullptr;
    std::vector<std::unique_ptr<BusClient>> clients_;
    std::vector<SnoopingCache *> caches_;   ///< by id; may be null
    std::vector<std::size_t> masterBoard_;  ///< by id
    /** Consecutive faulted accesses per master (watchdog state). */
    std::vector<unsigned> noProgress_;
    std::vector<Board> boards_;
    /** Boards with a rejoin scheduled. */
    std::size_t scheduledRejoins_ = 0;
    std::vector<std::string> violations_;
    std::vector<std::string> faultEvents_;
    std::uint64_t watchdogTrips_ = 0;
    std::uint64_t quarantines_ = 0;
    std::uint64_t reintegrations_ = 0;
};

} // namespace fbsim

#endif // FBSIM_SIM_FABRIC_H_
