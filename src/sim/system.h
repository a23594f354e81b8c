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

#include <span>
#include <string>
#include <vector>

#include "protocols/non_caching.h"
#include "sim/fabric.h"

namespace fbsim {

/** System-wide configuration: the shared settings plus the flat
 *  system's integrity quarantine and compatibility-guard override. */
struct SystemConfig : FabricConfig
{
    /**
     * Quarantine a cache whose read returns a value that differs from
     * the oracle while it holds the line valid (a failed data
     * integrity check, e.g. after an injected bit flip).
     */
    bool quarantineOnIntegrity = false;
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

/**
 * A shared-bus multiprocessor: the fabric core with every master on
 * the root bus, each cache its own board.
 */
class System : public Fabric
{
  public:
    explicit System(const SystemConfig &config);

    /** Add a snooping cache; returns its master id (= client index). */
    MasterId addCache(const CacheSpec &spec);

    /**
     * Add a sector cache (section 5.1, [Hill84]): one tag per
     * `subsectors_per_sector` lines (a power of two), per-subsector
     * consistency state.  The protocol/chooser fields of `spec` apply;
     * numSets/assoc are sector sets/ways.
     */
    MasterId addSectorCache(const CacheSpec &spec,
                            std::size_t subsectors_per_sector);

    /** Add a non-caching master (an I/O processor). */
    MasterId addNonCachingMaster(bool broadcast_writes);

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
     * Quarantine a cache: flush owned lines to memory, invalidate the
     * rest, and route its processor's accesses straight to the bus
     * from then on.  Returns false for non-caching masters and caches
     * already quarantined.  Invoked automatically by the watchdog /
     * integrity machinery; callable directly for tests and manual
     * isolation.
     */
    bool quarantine(MasterId id) { return quarantineBoard(id); }

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
    bool reintegrate(MasterId id) { return reintegrateBoard(id); }

    const SystemConfig &config() const { return config_; }
    Bus &bus() { return rootBus(); }
    const Bus &bus() const { return rootBus(); }

  private:
    /** Assembly-time compatibility guard (see allowIncompatibleMix):
     *  record a stock protocol joining the bus, fatal on a
     *  Write-Once x O-state mix unless overridden. */
    void checkProtocolMix(ProtocolKind kind);

    /** A new board for the master about to be added (board = id). */
    std::size_t nextBoard(bool caching);

    void pullBoard(std::size_t board) override;
    std::string rejoinBoard(std::size_t board) override;
    void onReadMismatch(MasterId id, Addr addr) override;

    SystemConfig config_;
    /** Stock protocols assembled so far (compatibility guard). */
    std::vector<ProtocolKind> stockKinds_;
};

} // namespace fbsim

#endif // FBSIM_SIM_SYSTEM_H_
