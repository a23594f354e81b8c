#include "mc/executor.h"

#include <bit>
#include <cstdarg>

#include "common/logging.h"
#include "mc/hier_model.h"

namespace fbsim {
namespace mc {

namespace {

/** Boards are numbered caches first: cache c is board c, and cluster
 *  k's bridge is board kBridge + k. */
constexpr std::size_t kBridge = kMaxCaches;

/** Buses are numbered leaves first: cluster k's leaf bus is bus k. */
constexpr std::size_t kRoot = kMaxClusters;

constexpr std::uint32_t
boardBit(std::size_t board)
{
    return std::uint32_t{1} << board;
}

/** The model's BusRequest: one transaction on one bus of the tree. */
struct Request
{
    std::size_t bus;
    std::size_t master;    ///< a board
    std::size_t line;
    BusCmd cmd;
    MasterSignals sig;
    Word wdata;            ///< WriteWord/WriteLine data
    bool chHint = false;   ///< CH asserted beyond this bus
};

/** What a transaction returns to its master, and what one snooper or
 *  slave answers within it. */
struct Reply
{
    bool ch = false;   ///< CH (a transaction's: as its master observes it)
    bool di = false;   ///< an owner intervened
    Word data = 0;     ///< read data
};

/** One processor event's executor (see executor.h). */
class Executor
{
  public:
    /** The one-bus tree: every cache snoops the root. */
    Executor(const ModelConfig &cfg, ModelState &st, ChoiceFeed &feed,
             std::vector<ChoiceRecord> *log)
        : cfg_(cfg), st_(st), feed_(feed), log_(log)
    {
        snoopers_[kRoot] = boardBit(cfg.numCaches()) - 1;
    }

    /** The two-level tree: each cluster's caches snoop its leaf bus,
     *  and the bridges snoop the root. */
    Executor(const HierModelConfig &cfg, HierModelState &st,
             ChoiceFeed &feed, std::vector<ChoiceRecord> *log)
        : cfg_(cfg.base), st_(st.flat), hier_(&cfg), filters_(&st),
          feed_(feed), log_(log)
    {
        // Built once per step: the address cycle walks these masks
        // instead of looking up each snooper's cluster.
        for (std::size_t c = 0; c < cfg_.numCaches(); ++c)
            snoopers_[cfg.clusterOf[c]] |= boardBit(c);
        const std::size_t clusters = cfg.numClusters();
        for (std::size_t k = 0; k < clusters; ++k)
            snoopers_[kRoot] |= boardBit(kBridge + k);
        conservativeCh_ = cfg.conservativeCh();
    }

    StepResult
    run(const ModelEvent &ev)
    {
        if (ev.ev == LocalEvent::Write) {
            // Advance the shared image first (System::write updates
            // the oracle from the same value the access carries).
            wval_ = nextWriteValue(st_, ev.line);
            st_.image[ev.line] = wval_;
        }
        result_.value = dispatchLocal(ev.cache, ev.line, ev.ev, 0);
        return std::move(result_);
    }

  private:
    std::size_t
    pick(std::size_t cache, std::size_t n)
    {
        std::size_t idx = feed_.pick(cache, n);
        fbsim_assert(idx < n);
        if (log_) {
            log_->push_back({static_cast<std::uint8_t>(cache),
                             static_cast<std::uint8_t>(n),
                             static_cast<std::uint8_t>(idx)});
        }
        return idx;
    }

    /** Fail the step with "<tag>: <message><state render>". */
    __attribute__((format(printf, 2, 3))) void
    fail(const char *fmt, ...)
    {
        std::string why = hier_ ? "MC-hier: " : "MC: ";
        va_list ap;
        va_start(ap, fmt);
        why += vstrprintf(fmt, ap);
        va_end(ap);
        why += renderStateVector(cfg_, st_);
        if (hier_)
            why += renderHierFilters(*hier_, *filters_);
        result_.ok = false;
        result_.violations.push_back(std::move(why));
    }

    ModelCopy &cp(std::size_t c, std::size_t l)
    { return copyAt(cfg_, st_, c, l); }

    const char *tableName(std::size_t c) const
    { return cfg_.tables[c]->name().c_str(); }

    std::uint8_t &localHeld(std::size_t k, std::size_t l)
    { return filters_->localHeld[k * cfg_.lines + l]; }

    std::uint8_t &remoteShared(std::size_t k, std::size_t l)
    { return filters_->remoteShared[k * cfg_.lines + l]; }

    // ---- Processor half ----

    /** Mirror of SnoopingCache::dispatchLocal: the picked alternative
     *  is the k-th copy-back one of the cell, taken in place. */
    Word
    dispatchLocal(std::size_t c, std::size_t l, LocalEvent ev, int depth)
    {
        fbsim_assert(depth < 3);
        const State s = cp(c, l).s;
        const LocalCell &cell = cfg_.tables[c]->local(s, ev);
        const std::size_t n = copyBackAlternatives(cell);
        if (n == 0) {
            // The paper's "--" cells: Pass/Flush of an unheld (or
            // silently droppable) line is a no-op at the API level.
            if (ev == LocalEvent::Pass || ev == LocalEvent::Flush)
                return 0;
            fail("%s cache %zu: no legal action for state %s on local %s",
                 tableName(c), c, std::string(stateName(s)).c_str(),
                 std::string(localEventName(ev)).c_str());
            return 0;
        }
        std::size_t k = pick(c, n);
        for (const LocalAction &action : cell) {
            if (copyBackMayPick(action) && k-- == 0)
                return executeLocal(c, l, action, ev, depth);
        }
        fbsim_panic("copy-back alternative count changed mid-dispatch");
    }

    /** Mirror of SnoopingCache::executeLocal. */
    Word
    executeLocal(std::size_t c, std::size_t l, const LocalAction &action,
                 LocalEvent ev, int depth)
    {
        if (action.readThenWrite) {
            fbsim_assert(ev == LocalEvent::Write);
            dispatchLocal(c, l, LocalEvent::Read, depth + 1);
            if (!result_.ok)
                return 0;
            return dispatchLocal(c, l, LocalEvent::Write, depth + 1);
        }

        ModelCopy &copy = cp(c, l);

        if (!action.usesBus) {
            // Purely local transition: the engine asserts the line is
            // resident (dispatchLocal located it).
            if (copy.s == State::I) {
                fail("%s cache %zu: purely local action on an invalid "
                     "line (local %s)",
                     tableName(c), c,
                     std::string(localEventName(ev)).c_str());
                return 0;
            }
            if (ev == LocalEvent::Write)
                copy.value = wval_;
            Word out = copy.value;
            copy.s = action.next.resolve(false);
            return out;
        }

        // The command goes out on the master's own bus.
        Request rq{hier_ ? hier_->clusterOf[c] : kRoot, c, l, action.cmd,
                   {action.ca, action.im, action.bc}, 0};
        switch (action.cmd) {
          case BusCmd::Read: {
            // Fill (read miss or read-for-ownership).  The enumerated
            // geometry is eviction-free, so allocateFor reduces to the
            // install.
            Reply r = attempt(rq);
            if (!result_.ok)
                return 0;
            copy.value = r.data;
            copy.s = action.next.resolve(r.ch);
            if (ev == LocalEvent::Write && isValid(copy.s))
                copy.value = wval_;
            return copy.value;
          }

          case BusCmd::WriteWord: {
            rq.wdata = wval_;
            Reply r = attempt(rq);
            if (!result_.ok)
                return 0;
            if (copy.s != State::I) {
                copy.value = wval_;
                copy.s = action.next.resolve(r.ch);
            }
            return wval_;
          }

          case BusCmd::WriteLine: {
            // Push (Pass keeps the copy, Flush discards it).
            fbsim_assert(copy.s != State::I);
            rq.wdata = copy.value;
            Reply r = attempt(rq);
            if (!result_.ok)
                return 0;
            Word out = copy.value;
            copy.s = action.next.resolve(r.ch);
            return out;
          }

          case BusCmd::AddrOnly: {
            // Pure invalidate; no data phase.
            fbsim_assert(copy.s != State::I);
            Reply r = attempt(rq);
            if (!result_.ok)
                return 0;
            if (ev == LocalEvent::Write)
                copy.value = wval_;
            copy.s = action.next.resolve(r.ch);
            return copy.value;
          }

          case BusCmd::Sync:
            break;
        }
        fail("protocol table issued an unmodelled bus command");
        return 0;
    }

    // ---- Bus half ----

    /**
     * Mirror of Bus::execute/attempt on any bus of the tree.  The
     * snoopers answer in board order: the bus's caches by id (only
     * valid holders respond, an absent line being the engine's null
     * line lookup), then the root's bridges in cluster order.  A busy
     * owner's BS aborts the attempt; the owner pushes and the master
     * retries.  In the data phase an intervening owner supplies a read
     * and the bus's slave takes part - memory on the root, the
     * cluster's bridge on a leaf, none for a down-forward.  At commit
     * each snooper resolves CH conditionals against the OR of the
     * *other* modules' CH and the external CH: the slave's response or
     * the request's chHint.
     */
    Reply
    attempt(const Request &rq)
    {
        Reply out;
        const bool leaf = rq.bus != kRoot;
        const bool bridged = rq.master >= kBridge;
        const std::optional<BusEvent> ev = classifyBusEvent(rq.cmd, rq.sig);
        if (!ev) {
            fail("%s issued signals no class protocol emits",
                 bridged ? "bridge" : "table");
            return out;
        }

        const std::size_t l = rq.line;
        const std::uint32_t snoopers =
            snoopers_[rq.bus] & ~boardBit(rq.master);
        for (unsigned round = 0; round <= cfg_.maxBusRetries; ++round) {
            // Phase 1: address cycle; choices are consumed in snooper
            // order.
            std::array<SnoopAction, kMaxCaches> latched;
            std::uint32_t committers = 0;
            unsigned ch_count = 0;
            int di = -1;
            int bs = -1;
            Word di_data = 0;
            for (std::uint32_t m = snoopers; m != 0; m &= m - 1) {
                const auto d = static_cast<std::size_t>(std::countr_zero(m));
                const SnoopAction *a = nullptr;
                Reply r;
                if (d >= kBridge) {
                    r = bridgeSnoop(d - kBridge, rq);
                    if (!result_.ok)
                        return out;
                } else {
                    const ModelCopy &copy = cp(d, l);
                    if (copy.s == State::I)
                        continue;
                    if (*ev == BusEvent::Push) {
                        // Holders signal retention; no state change,
                        // no chooser consultation.
                        ++ch_count;
                        continue;
                    }
                    const SnoopCell &cell =
                        cfg_.tables[d]->snoop(copy.s, *ev);
                    if (cell.empty()) {
                        fail("%s cache %zu: illegal bus event col %d on "
                             "line %zu in state %s",
                             tableName(d), d, busEventColumn(*ev), l,
                             std::string(stateName(copy.s)).c_str());
                        return out;
                    }
                    a = &cell[pick(d, cell.size())];
                    if (a->bs && leaf) {
                        // An abort cannot propagate across buses, so
                        // the hierarchy (and this model) keeps BS
                        // protocols off the leaves.
                        fail("%s cache %zu asserted BS %s", tableName(d), d,
                             bridged ? "under a bridge"
                                     : "on a leaf bus (aborts cannot "
                                       "cross a bridge)");
                        return out;
                    }
                    r = {a->ch == Tri::Assert, a->di, copy.value};
                    latched[d] = *a;
                    committers |= boardBit(d);
                }
                const std::size_t id = d >= kBridge ? d - kBridge : d;
                if (r.di) {
                    if (di >= 0) {
                        fail("%s %d and %zu both intervened on line %zu",
                             d >= kBridge ? "clusters" : "caches", di, id,
                             l);
                        return out;
                    }
                    di = static_cast<int>(id);
                    di_data = r.data;
                }
                if (a && a->bs) {
                    if (bs >= 0) {
                        fail("caches %d and %zu both asserted BS on line "
                             "%zu",
                             bs, d, l);
                        return out;
                    }
                    bs = static_cast<int>(d);
                }
                if (r.ch)
                    ++ch_count;
            }

            // Phase 2: abort-push-retry.  The owner's nested WriteLine
            // push raises only CH from the other holders (no choices,
            // no state changes); memory captures the line.
            if (bs >= 0) {
                ModelCopy &owner = cp(static_cast<std::size_t>(bs), l);
                st_.mem[l] = owner.value;
                owner.s = latched[bs].pushState;
                continue;
            }

            // Phase 3: data transfer.
            out.di = di >= 0;
            Reply slave;
            if (!leaf)
                slave = memory(rq, out.di);
            else if (!bridged)
                slave = bridgeTransact(rq, out.di, ch_count > 0);
            if (!result_.ok)
                return out;
            if (rq.cmd == BusCmd::Read)
                out.data = out.di ? di_data : slave.data;

            // Phase 4: commit.
            const bool external_ch = slave.ch || rq.chHint;
            for (std::uint32_t m = committers; m != 0; m &= m - 1) {
                const auto d = static_cast<std::size_t>(std::countr_zero(m));
                const SnoopAction &a = latched[d];
                ModelCopy &copy = cp(d, l);
                if (rq.cmd == BusCmd::WriteWord && (a.di || a.sl))
                    copy.value = rq.wdata;
                copy.s = a.next.resolve(
                    external_ch ||
                    ch_count > (a.ch == Tri::Assert ? 1u : 0u));
            }
            out.ch = ch_count > 0 || slave.ch;
            return out;
        }
        fail("transaction on line %zu did not converge after %u retries",
             l, cfg_.maxBusRetries);
        return out;
    }

    /** Mirror of MainMemorySlave::transact, the root's slave. */
    Reply
    memory(const Request &rq, bool local_owner)
    {
        Reply r;
        Word &mem = st_.mem[rq.line];
        switch (rq.cmd) {
          case BusCmd::Read:
            r.data = mem;   // unused when an owner intervenes
            break;
          case BusCmd::WriteWord:
            // Broadcasts update memory; otherwise the owner captures
            // and memory stays stale.
            if (rq.sig.bc || !local_owner)
                mem = rq.wdata;
            break;
          case BusCmd::WriteLine:
            mem = rq.wdata;
            break;
          case BusCmd::AddrOnly:
          case BusCmd::Sync:
            break;
        }
        return r;
    }

    /** Mirror of BusBridge::forwardUp: the leaf request re-issued on
     *  the root, carrying the leaf's CH up as chHint. */
    Reply
    forwardUp(const Request &rq, BusCmd cmd, const MasterSignals &sig,
              bool local_ch)
    {
        return attempt({kRoot, kBridge + rq.bus, rq.line, cmd, sig,
                        rq.wdata, rq.chHint || local_ch});
    }

    /** An invalidation forwarded up; afterwards no remote copy remains. */
    Reply
    invalidateRemote(const Request &rq, const MasterSignals &sig,
                     bool local_ch)
    {
        Reply r = forwardUp(rq, BusCmd::AddrOnly, sig, local_ch);
        if (result_.ok)
            remoteShared(rq.bus, rq.line) = 0;
        return r;
    }

    /** Mirror of BusBridge::transact, a leaf bus's slave (fault-free:
     *  no drops). */
    Reply
    bridgeTransact(const Request &rq, bool local_owner, bool local_ch)
    {
        const std::size_t k = rq.bus;
        const std::size_t l = rq.line;
        // The canonical invalidation used when a locally-absorbed
        // write must still kill remote copies.
        const MasterSignals kInvalidate{true, true, false};

        switch (rq.cmd) {
          case BusCmd::Read:
            if (!local_owner) {
                // Fill: the data authority is above this bus.
                Reply r = forwardUp(rq, BusCmd::Read, rq.sig, local_ch);
                if (result_.ok && rq.sig.ca)
                    localHeld(k, l) = 1;
                if (result_.ok && rq.sig.im)
                    remoteShared(k, l) = 0;
                return r;
            }
            if (!remoteShared(k, l))
                return {};
            if (rq.sig.im)
                return invalidateRemote(rq, kInvalidate, local_ch);
            // CH gather for the cluster owner; fill data discarded.
            return forwardUp(rq, BusCmd::Read, rq.sig, local_ch);

          case BusCmd::WriteWord:
            if (rq.sig.bc) {
                if (rq.sig.ca && !remoteShared(k, l)) {
                    localHeld(k, l) = 1;
                    return {};
                }
                Reply r = forwardUp(rq, BusCmd::WriteWord, rq.sig, local_ch);
                if (result_.ok && rq.sig.ca)
                    localHeld(k, l) = 1;
                return r;
            }
            if (local_owner) {
                if (!remoteShared(k, l))
                    return {};
                return invalidateRemote(rq, kInvalidate, local_ch);
            }
            // Write-through (a remote owner may capture via DI).
            return forwardUp(rq, BusCmd::WriteWord, rq.sig, local_ch);

          case BusCmd::WriteLine:
            return forwardUp(rq, BusCmd::WriteLine, rq.sig, local_ch);

          case BusCmd::AddrOnly:
            if (!remoteShared(k, l))
                return {};
            return invalidateRemote(rq, rq.sig, local_ch);

          case BusCmd::Sync:
            break;
        }
        fail("Sync commands do not cross bus bridges");
        return {};
    }

    /**
     * Mirror of BusBridge::snoop, cluster j's bridge on the root.  A
     * line the cluster may hold is forwarded down: a nested attempt on
     * the leaf, mastered by the bridge, whose chHint is the root's CH
     * (forced beyond two clusters).  The cluster commits, and the
     * filters are updated, before the next bridge is snooped.
     */
    Reply
    bridgeSnoop(std::size_t j, const Request &rq)
    {
        const std::size_t l = rq.line;
        Reply r;
        if (localHeld(j, l)) {
            Request down = rq;
            down.bus = j;
            down.master = kBridge + j;
            down.chHint = rq.chHint || conservativeCh_;
            r = attempt(down);
            if (!result_.ok)
                return r;
            // Did the down-forward clear the cluster?  A
            // read-for-modify or invalidate kills every copy; a plain
            // write leaves a capturing owner alive.
            if ((rq.sig.im && !rq.sig.bc && !r.di) ||
                rq.cmd == BusCmd::AddrOnly ||
                (rq.cmd == BusCmd::Read && rq.sig.im))
                localHeld(j, l) = 0;
        }
        // Any transaction whose master asserts CA leaves a retained
        // copy somewhere remote.
        if (rq.sig.ca)
            remoteShared(j, l) = 1;
        return r;
    }

    const ModelConfig &cfg_;
    ModelState &st_;
    /** The hierarchy and its filter bits; null for the one-bus tree. */
    const HierModelConfig *hier_ = nullptr;
    HierModelState *filters_ = nullptr;
    ChoiceFeed &feed_;
    std::vector<ChoiceRecord> *log_;
    /** Snooper boards per bus, indexed by bus. */
    std::array<std::uint32_t, kRoot + 1> snoopers_{};
    bool conservativeCh_ = false;
    StepResult result_;
    Word wval_ = 0;
};

} // namespace

StepResult
stepModel(const ModelConfig &cfg, ModelState &st, const ModelEvent &ev,
          ChoiceFeed &feed, std::vector<ChoiceRecord> *log)
{
    return Executor(cfg, st, feed, log).run(ev);
}

StepResult
stepHierModel(const HierModelConfig &cfg, HierModelState &st,
              const ModelEvent &ev, ChoiceFeed &feed,
              std::vector<ChoiceRecord> *log)
{
    return Executor(cfg, st, feed, log).run(ev);
}

} // namespace mc
} // namespace fbsim
