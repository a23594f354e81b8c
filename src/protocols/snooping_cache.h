/**
 * @file
 * Table-driven snooping cache controller.
 *
 * One controller class interprets any ProtocolTable - MOESI itself or
 * any of the paper's Tables 3-7 - with the choice points delegated to
 * an ActionChooser.  This is the design that makes section 3.4 literal:
 * a cache can be "MOESI preferred", "Berkeley", "random member of the
 * class", etc., purely by configuration, and mixed systems follow.
 *
 * The same class also implements the write-through cache of the paper
 * by restricting itself to the "*" alternatives of Tables 1/2 (its V
 * state is S); see ClientKind.
 */

#ifndef FBSIM_PROTOCOLS_SNOOPING_CACHE_H_
#define FBSIM_PROTOCOLS_SNOOPING_CACHE_H_

#include <memory>
#include <optional>
#include <string>

#include "bus/bus.h"
#include "cache/tag_store.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/policy.h"
#include "core/protocol_table.h"
#include "protocols/bus_client.h"
#include "protocols/cache_stats.h"
#include "protocols/transition_coverage.h"

namespace fbsim {

/** Configuration of one snooping cache. */
struct SnoopingCacheConfig
{
    /** Shape; linesPerSector > 1 makes a section 5.1 sector cache. */
    CacheGeometry geometry;
    /** CopyBack or WriteThrough (NonCaching uses NonCachingMaster). */
    ClientKind kind = ClientKind::CopyBack;
    /**
     * Section 5.2 refinement: when a broadcast-written line is nearing
     * replacement, discard it instead of updating it (requires the
     * chosen table cell to offer an invalidate alternative).
     */
    bool discardNearReplacement = false;
};

/**
 * One speculation-conflict record: a snooped commit (or abort push)
 * mutated cache `id`'s copy of `line`.  `word` >= 0 narrows the
 * mutation to a single captured word (a foreign write absorbed or
 * snarfed with the consistency state unchanged), so speculation on
 * the line's other words stays valid; -1 means the whole line (any
 * state change).
 */
struct SpecConflict
{
    MasterId id = 0;
    LineAddr line = 0;
    std::int32_t word = -1;
};

/** A snooping cache: processor port + bus snooper. */
class SnoopingCache : public BusClient, public Snooper
{
  public:
    /**
     * @param id bus module id.
     * @param bus the shared bus (must outlive the cache).
     * @param table protocol definition (must outlive the cache).
     * @param chooser action selection strategy (owned).
     * @param config geometry etc.
     */
    SnoopingCache(MasterId id, Bus &bus, const ProtocolTable &table,
                  std::unique_ptr<ActionChooser> chooser,
                  const SnoopingCacheConfig &config);

    // BusClient interface.
    MasterId clientId() const override { return id_; }
    const char *protocolName() const override;
    AccessOutcome read(Addr addr) override;
    AccessOutcome write(Addr addr, Word value) override;
    AccessOutcome flush(Addr addr, bool keep_copy) override;

    // Snooper interface.  A cache's snoop() is a pure function of its
    // held lines, so it opts into the bus's snoop filter and keeps the
    // filter's presence bitmask current via setLineState().
    MasterId snooperId() const override { return id_; }
    bool filterable() const override { return true; }
    bool holdsLine(LineAddr la) const override
    { return peekLine(la) != nullptr; }
    SnoopReply snoop(const BusRequest &req) override;
    void supplyLine(const BusRequest &req, std::span<Word> out) override;
    void commit(const BusRequest &req, bool others_ch) override;
    void performAbortPush(const BusRequest &req) override;

    // Inspection (tests, checker, explorer).
    const ProtocolTable &table() const { return table_; }
    const TagStore &store() const { return store_; }
    std::size_t lineBytes() const { return lineBytes_; }
    ClientKind kind() const { return kind_; }

    /** Valid line holding `la`, or null (checker access). */
    const CacheLine *
    peekLine(LineAddr la) const
    {
        return store_.peek(la);
    }

    /** Visit every valid line (checker access). */
    void
    forEachValidLine(
        const std::function<void(const CacheLine &)> &fn) const
    {
        store_.forEachValidLine(fn);
    }
    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

    /** Attach a coverage recorder (not owned; null detaches). */
    void setCoverage(TransitionCoverage *coverage)
    {
        coverage_ = coverage;
        updateFastPath();
    }

    /**
     * Graceful degradation: flush every owned line to memory (via the
     * table's legal Flush actions), invalidate all copies, and bypass
     * the cache from then on - reads and writes go straight to the bus
     * like a non-caching master's, so the processor keeps running
     * coherently, just slower.  Called by the system layer when this
     * cache trips the livelock watchdog or fails a data-integrity
     * check.  Returns the bus traffic of the flush sweep; if a flush
     * push itself fails to converge the line is force-invalidated with
     * a warning (loud data loss beats silent corruption).
     */
    AccessOutcome quarantine();
    bool quarantined() const { return quarantined_; }

    /**
     * Hot-swap rejoin, the inverse of quarantine(): the paper's
     * compatibility argument (section 3.4) makes a cache whose every
     * line is in state I trivially compatible with any running bus, so
     * a quarantined cache may resume service at any time by ensuring
     * exactly that.  Invalidates any residual copies to I (keeping the
     * bus's snoop-filter presence bitmask exact), drops latched snoop
     * state, and clears the bypass flag; the next accesses behave as
     * cold I-state misses.  Returns false when not quarantined.  The
     * system layer (System::reintegrate) re-registers the cache with
     * the checker oracle and un-suspends its bus snooping around this.
     */
    bool reintegrate();

    /**
     * Fault injection: flip one random bit in one random valid line's
     * data (victim chosen via `rng`).  Returns the corrupted line's
     * address, or nullopt if the cache holds no valid line.  Does NOT
     * count the injection - the caller owns the FaultStats.
     */
    std::optional<LineAddr> corruptRandomBit(Rng &rng);

    /** Current state of the line containing `addr` (I if absent).
     *  Answered from the store's packed tag/state arrays: the timed
     *  engine classifies every reference through here, so the probe
     *  must not touch CacheLine objects. */
    State lineState(Addr addr) const
    {
        return store_.stateOf(lineOf(addr));
    }

    /**
     * True when the engine may run this cache speculatively: the
     * devirtualized hit path is armed, snoop behaviour is independent
     * of replacement recency (no near-replacement discard, so the LRU
     * touches can be deferred to commit), and bus-free writes need an
     * exclusive (M/E) copy.  The last is what makes a speculated write
     * invisible until the next bus transaction on its line: a table
     * that writes S or O without the bus fails the gate and runs
     * interleaved.
     */
    bool specEligible() const { return fastLocal_ && specSafe_; }

    /**
     * What a speculated write overwrote, handed back by
     * specLocalWrite() and restored by specRestore() on rollback.  The
     * line pointer stays exact across the engine's window: no frame is
     * installed or evicted while speculation is outstanding (local
     * hits never allocate, snooped transactions never install, and a
     * cache executes a bus access only with an empty window).
     */
    struct SpecUndo
    {
        CacheLine *line = nullptr;
        Word prevWord = 0;          ///< overwritten word
        std::uint32_t wordIdx = 0;  ///< word within the line
        State prevState = State::I; ///< pre-access state
    };

    /**
     * Speculative local accesses for the timed engine: a pure local
     * hit executes with read()/write()'s fast-path semantics minus
     * the replacement touch - the hit's frame index goes to `frame`
     * and specCommit() replays the touches in order - and returns
     * true; anything else (miss, bus-bound cell, conditional
     * transition) returns false having changed nothing.  A false
     * return coincides with wouldUseBus() for every table in the
     * suite, because the pure hit plans cover exactly the bus-free
     * cells.  Hit counters are NOT bumped here - the engine batches
     * them through specCountHits() once per drained run.  Callers
     * must check specEligible() first.
     */
    bool
    specLocalRead(Addr addr, Word &out, std::uint32_t &frame)
    {
        State next = State::I;
        CacheLine *l = pureHit(addr, false, next);
        if (l == nullptr)
            return false;
        out = l->data[wordIndexOf(addr)];
        frame = store_.frameOf(*l);
        return true;
    }

    /** Write counterpart of specLocalRead(); a write also fills
     *  `undo`, the caller's one record of what it overwrote. */
    bool
    specLocalWrite(Addr addr, Word value, std::uint32_t &frame,
                   SpecUndo &undo)
    {
        State next = State::I;
        CacheLine *l = pureHit(addr, true, next);
        if (l == nullptr)
            return false;
        std::size_t w = wordIndexOf(addr);
        undo = {l, l->data[w], static_cast<std::uint32_t>(w), l->state};
        l->data[w] = value;
        if (next != l->state)
            store_.setState(*l, next);
        frame = store_.frameOf(*l);
        return true;
    }

    /**
     * Bulk stats for a run of speculated hits.  specLocalRead and
     * specLocalWrite leave the hit counters alone so the drain loop
     * pays no per-reference increments; the engine adds a drained
     * run's totals here once, and takes rolled-back hits back out
     * with negative counts.
     */
    void
    specCountHits(std::int64_t reads, std::int64_t writes)
    {
        // Modular adds: a negative count subtracts exactly.
        stats_.reads += static_cast<std::uint64_t>(reads);
        stats_.readHits += static_cast<std::uint64_t>(reads);
        stats_.writes += static_cast<std::uint64_t>(writes);
        stats_.writeHits += static_cast<std::uint64_t>(writes);
    }

    /**
     * Roll back one speculated write: restore its word and
     * consistency state.  The engine restores a window's writes
     * newest first; their touches were never applied, so a replay
     * reproduces byte-identical cache state.
     */
    void
    specRestore(const SpecUndo &u)
    {
        // A speculated write required M/E, so no snooped transaction
        // can have touched the line since (exclusivity - any snoop hit
        // would have rolled this write back first); the restore target
        // is exactly as the write left it.
        fbsim_assert(u.line->valid());
        u.line->data[u.wordIdx] = u.prevWord;
        if (u.prevState != u.line->state)
            store_.setState(*u.line, u.prevState);
    }

    /**
     * Make the oldest outstanding speculated accesses permanent: apply
     * the replacement touches of `count` accesses, whose frames are
     * given in access order.  Called at each serialization point for
     * the committed prefix.
     */
    void
    specCommit(const std::uint32_t *frames, std::size_t count)
    {
        store_.touchFrames(frames, count);
    }

    /**
     * Speculation-conflict sink (not owned; null detaches).  While
     * set, every snooped commit or abort push that *mutates* this
     * cache's observable copy of a line - a state change or a data
     * capture - appends one record; no-op commits (a sharer answering
     * CH and keeping its copy) stay silent.  The speculative engine
     * sets it on each of its caches and drains it after each
     * transaction to decide which pending hit runs must roll back.
     */
    void setSpecConflictLog(std::vector<SpecConflict> *log)
    { specLog_ = log; }

  private:
    /** Dispatch one local event on the line's current state. */
    AccessOutcome dispatchLocal(LocalEvent ev, Addr addr, Word value,
                                int depth);

    /**
     * The two resolvers of a table cell, one per table half.  Under a
     * deterministic chooser they return the memoized action; otherwise
     * a fresh choice written to the caller's `slot` (callers own the
     * slot, so a nested dispatch - the read inside a read-then-write,
     * the eviction inside a fill - keeps its own).  Null for an empty
     * cell.  snoopAction() also applies the section 5.2
     * near-replacement discard.
     */
    const LocalAction *localAction(State s, LocalEvent ev,
                                   LocalAction &slot);
    const SnoopAction *snoopAction(const CacheLine &line, BusEvent ev,
                                   SnoopAction &slot);

    /** One chooser draw over the kind-filtered cell; null if empty. */
    const LocalAction *chooseLocal(State s, LocalEvent ev,
                                   LocalAction &slot);
    /** One chooser draw over the snoop cell, plus the cell's
     *  invalidate alternative (`discard`, null when it has none);
     *  null if the cell is empty. */
    const SnoopAction *chooseSnoop(State s, BusEvent ev, SnoopAction &slot,
                                   const SnoopAction *&discard);

    /** Execute a chosen local action on `line` (the resident line for
     *  `addr`, or null when the address misses). */
    AccessOutcome executeLocal(const LocalAction &action, LocalEvent ev,
                               Addr addr, Word value, int depth,
                               CacheLine *line);

    /** Evict (flushing if owned) to make room, and install `la`.
     *  Null if a victim's writeback failed to converge (fault
     *  injection): the victim keeps its state and the access fails. */
    CacheLine *allocateFor(LineAddr la, AccessOutcome &outcome);

    /** Issue the victim's Flush per the table.  False if its push did
     *  not converge (the victim keeps its state and data). */
    bool evict(CacheLine &victim, AccessOutcome &outcome);

    /**
     * A snooped bus event with no table cell for the line's state: the
     * protocol never generates it, so an injected fault (divergent
     * double ownership from a muted invalidate) or a broken table
     * (CacheSpec::table) has already diverged the system.  Count it,
     * warn once, and respond as if the address cycle was missed (empty
     * reply, no latched action); the checker reports the divergence.
     */
    SnoopReply ignoredIllegalSnoop(State s, BusEvent ev, LineAddr la);

    /**
     * Every consistency-state change funnels through here so the
     * bus's snoop-filter presence bitmask tracks valid<->invalid
     * transitions exactly.
     */
    void setLineState(CacheLine &line, State next);

    /**
     * Candidates of a cell filtered by this client's kind.  Returns a
     * reference to a per-cache scratch vector (valid until the next
     * call; callers copy their chosen action before any recursion).
     */
    const std::vector<LocalAction> &kindFiltered(const LocalCell &cell);

    /**
     * Memoized action resolution.  With a deterministic chooser the
     * resolved action is a pure function of (state, event) - the
     * table, kind and policy are fixed at construction - so the first
     * resolution of each pair is cached and the hot path skips the
     * kind filter, table walk and virtual chooser dispatch.  Stateful
     * choosers (random action selection) disable memoization.
     */
    struct LocalMemo
    {
        bool filled = false;
        bool empty = false;    ///< "--" cell: no legal action
        LocalAction action;
    };
    struct SnoopMemo
    {
        bool filled = false;
        bool empty = false;    ///< no cell: an illegal snoop
        SnoopAction action;
        /** Invalidate alternative for the section 5.2 near-replacement
         *  discard, if the cell offers one (points into the table). */
        const SnoopAction *discardAlt = nullptr;
    };

    /**
     * Pre-resolved hit plan for the devirtualized fast path: for a
     * (state, Read/Write) pair whose memoized action completes purely
     * locally with an unconditional valid next state, read()/write()
     * skip dispatch entirely - one packed-tag lookup, the data word,
     * a state-mirror update when the state moves (E->M) and the
     * replacement touch.  Anything else falls through to the generic
     * table-driven path.
     */
    struct HitPlan
    {
        bool filled = false;
        bool pure = false;
        State next = State::I;
    };
    void fillHitPlan(HitPlan &p, bool is_write, State s);

    /** The hit plan of a read or write in state `s`, filled on first
     *  use (it requires the memoized resolver). */
    const HitPlan &
    hitPlan(bool is_write, State s)
    {
        HitPlan &p = (is_write ? writeHit_ : readHit_)[static_cast<int>(s)];
        if (!p.filled)
            fillHitPlan(p, is_write, s);
        return p;
    }

    /** True when a snooped state change to `ns` is invisible to an
     *  outstanding run of speculated read hits: the line stays valid,
     *  data is untouched by the caller, and the table still serves a
     *  pure (stateless, busless) read hit from `ns`. */
    bool readTransparent(State ns)
    { return isValid(ns) && hitPlan(false, ns).pure; }

    /**
     * The one hit probe behind read()/write()'s fast path and
     * specLocalRead/specLocalWrite: the line `addr` hits in when its
     * state's plan for this access is a pure local hit (`next` gets
     * the plan's next state: a read keeps it, a write moves M->M or
     * E->M, valid to valid, so no presence update is due), else null.
     * Changes no line or counter; requires the devirtualized hit path
     * (fastLocal_ or specEligible()).
     */
    CacheLine *
    pureHit(Addr addr, bool is_write, State &next)
    {
        CacheLine *l = findLine(lineOf(addr));
        if (l == nullptr)
            return nullptr;
        const HitPlan &p = hitPlan(is_write, l->state);
        if (!p.pure)
            return nullptr;
        next = p.next;
        return l;
    }

    /** Recompute fastLocal_ from chooser/store/coverage/quarantine. */
    void updateFastPath();

    /** Valid line holding `la`, or null; the store's find() keeps
     *  the one-entry lookup memo. */
    CacheLine *findLine(LineAddr la) { return store_.find(la); }

    // lineBytes_ is a power of two (the store's geometry validates
    // it), so per-access address splitting is shift/mask.
    LineAddr lineOf(Addr addr) const { return addr >> lineShift_; }
    std::size_t wordIndexOf(Addr addr) const
    { return (addr & (lineBytes_ - 1)) / kWordBytes; }

    MasterId id_;
    Bus &bus_;
    const ProtocolTable &table_;
    std::unique_ptr<ActionChooser> chooser_;
    ClientKind kind_;
    bool discardNearReplacement_;
    std::size_t lineBytes_;
    unsigned lineShift_ = 0;
    TagStore store_;
    /** True when the devirtualized hit path may run: deterministic
     *  chooser (plans are pure), no coverage recorder, not
     *  quarantined. */
    bool fastLocal_ = false;
    CacheStats stats_;
    bool quarantined_ = false;
    bool warnedIllegalSnoop_ = false;   ///< one warning per cache
    TransitionCoverage *coverage_ = nullptr;
    std::string name_;
    std::vector<LocalAction> candScratch_;   ///< kindFiltered() reuse
    std::vector<CacheLine *> victims_;       ///< allocateFor() reuse
    bool memoize_ = false;   ///< chooser_->deterministic()
    LocalMemo localMemo_[kNumStates][kNumLocalEvents];
    SnoopMemo snoopMemo_[kNumStates][kNumBusEvents];
    HitPlan readHit_[kNumStates];
    HitPlan writeHit_[kNumStates];

    /** Latched snoop decision between snoop() and commit(). */
    struct Pending
    {
        bool active = false;
        bool isPush = false;       ///< CH-only response to a push
        SnoopAction action;
        CacheLine *line = nullptr;
    };
    Pending pending_;

    /** specEligible()'s configuration half, fixed at construction. */
    bool specSafe_ = false;
    /** Speculation-conflict sink (set by the engine; not owned). */
    std::vector<SpecConflict> *specLog_ = nullptr;
};

} // namespace fbsim

#endif // FBSIM_PROTOCOLS_SNOOPING_CACHE_H_
