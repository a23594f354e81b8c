#include "hier/bridge.h"

#include <algorithm>

#include "common/logging.h"

namespace fbsim {

BusBridge::BusBridge(MasterId root_id, MasterId leaf_id, Bus &root,
                     std::size_t words_per_line)
    : rootId_(root_id), leafId_(leaf_id), root_(root),
      wordsPerLine_(words_per_line)
{
    fbsim_assert(words_per_line == root.wordsPerLine());
}

void
BusBridge::setLeafBus(Bus *leaf)
{
    fbsim_assert(leaf_ == nullptr && leaf != nullptr);
    fbsim_assert(leaf->wordsPerLine() == wordsPerLine_);
    leaf_ = leaf;
}

void
BusBridge::setFaultInjector(FaultInjector *faults, std::size_t cluster)
{
    faults_ = faults;
    cluster_ = cluster;
    if (!faults_) {
        dropSite_ = delaySite_ = dupSite_ = staleSite_ = stallSite_ =
            nullptr;
        return;
    }
    // Site names are keyed by the cluster index, a stable property of
    // the topology - never by attach order - so each bridge's streams
    // are a pure function of (seed, cluster).
    const std::string base = strprintf("bridge%zu.", cluster);
    dropSite_ = &faults_->site(base + "drop");
    delaySite_ = &faults_->site(base + "delay");
    dupSite_ = &faults_->site(base + "dup");
    staleSite_ = &faults_->site(base + "stale");
    stallSite_ = &faults_->site(base + "stall");
}

bool
BusBridge::forwardLost()
{
    // A quiesced window (a board pull) also freezes an open stall.
    if (!faults_ || faults_->quiesced())
        return false;
    if (stallRemaining_ == 0 && faults_->fireLeafStall(*stallSite_)) {
        stallRemaining_ = faults_->config().leafStallForwards;
        ++stats_.stallWindows;
        fbsim_warn("bridge %zu: leaf segment partitioned, next %u "
                   "forwards lost %s",
                   cluster_, stallRemaining_,
                   faults_->describe().c_str());
    }
    if (stallRemaining_ > 0) {
        --stallRemaining_;
        ++stats_.stallDrops;
        return true;
    }
    return faults_->fireBridgeDrop(*dropSite_);
}

void
BusBridge::eraseRemoteShared(LineAddr la)
{
    // The filterStale site only ever *suppresses* erases: the filter
    // decays in the conservative direction (stale presence costs
    // forwards), never the unsafe one (a missing bit would skip a
    // required invalidation).  Draw only when the erase would land.
    if (faults_ && mayBeRemote(la) &&
        faults_->fireFilterStale(*staleSite_)) {
        ++stats_.staleFilterSkips;
        return;
    }
    remoteShared_.erase(la);
}

void
BusBridge::eraseLocalHeld(LineAddr la)
{
    if (faults_ && mayBeLocal(la) &&
        faults_->fireFilterStale(*staleSite_)) {
        ++stats_.staleFilterSkips;
        return;
    }
    localHeld_.erase(la);
}

FilterAudit
BusBridge::auditFilters(const LineSet &local, const LineSet &remote,
                        bool repair)
{
    // Entries of `from` absent from `in`.
    auto missing = [](const LineSet &from, const LineSet &in) {
        std::uint64_t n = 0;
        from.forEach([&](LineAddr la, std::uint8_t) {
            n += in.find(la) == nullptr ? 1 : 0;
        });
        return n;
    };
    FilterAudit a;
    a.staleLocal = missing(localHeld_, local);
    a.missingLocal = missing(local, localHeld_);
    a.staleRemote = missing(remoteShared_, remote);
    a.missingRemote = missing(remote, remoteShared_);
    if (repair && a.total() != 0) {
        localHeld_ = local;
        remoteShared_ = remote;
        stats_.scrubbedEntries += a.total();
    }
    return a;
}

SlaveResult
BusBridge::forwardUp(const BusRequest &req, BusCmd cmd,
                     MasterSignals sig, bool local_ch,
                     std::span<Word> read_out,
                     std::span<const Word> wline)
{
    BusRequest up;
    up.master = rootId_;
    up.cmd = cmd;
    up.sig = sig;
    up.line = req.line;
    up.wordIdx = req.wordIdx;
    up.wdata = req.wdata;
    up.wline = wline;
    // Carry the requesting bus's CH upward so snooper-side CH
    // conditionals in other clusters resolve against it.
    up.chHint = req.chHint || local_ch;

    ++stats_.upForwards;
    Cycles extra = 0;

    // Give up on this forward: report it dropped so the leaf bus's
    // own abort-retry machinery re-drives the whole transaction, and
    // feed the per-bridge livelock watchdog.
    auto exhausted = [&]() {
        ++stats_.forwardExhausted;
        if (++exhaustStreak_ >= kWatchdogThreshold) {
            ++stats_.watchdogTrips;
            exhaustStreak_ = 0;
            fbsim_warn("bridge %zu: forward watchdog tripped after %u "
                       "consecutive exhausted forwards %s",
                       cluster_, kWatchdogThreshold,
                       faults_ ? faults_->describe().c_str() : "");
        }
        SlaveResult out;
        out.dropped = true;
        out.extraDelay = extra;
        return out;
    };

    for (unsigned attempt = 0;; ++attempt) {
        if (forwardLost()) {
            if (attempt >= kForwardRetries)
                return exhausted();
            // Exponential backoff before the re-send; the cycles are
            // charged to the leaf transaction via extraDelay.
            ++stats_.forwardRetries;
            const Cycles b = kBackoffBase << std::min(attempt, 6u);
            stats_.forwardBackoffCycles += b;
            extra += b;
            continue;
        }
        BusResult r = root_.execute(up);
        if (!r.converged) {
            // The root bus itself gave up under faults; same contract
            // as a lost forward, minus further in-place retries (the
            // root already burned its own budget).
            if (!r.line.empty())
                root_.recycleLineBuffer(std::move(r.line));
            extra += r.cost;
            return exhausted();
        }
        exhaustStreak_ = 0;
        if (cmd == BusCmd::Read && !read_out.empty()) {
            fbsim_assert(r.line.size() == read_out.size());
            std::copy(r.line.begin(), r.line.end(), read_out.begin());
        }
        if (!r.line.empty())
            root_.recycleLineBuffer(std::move(r.line));
        if (faults_) {
            // Duplicate delivery, only for non-fill forwards: every
            // such command is value-idempotent at the root (the same
            // invalidation, write-through or copyback lands twice).
            // A duplicated fill Read would instead re-read memory the
            // remote owner never updated - stale data, not a timing
            // fault - so fills are exempt by construction.
            if (cmd != BusCmd::Read &&
                faults_->fireBridgeDup(*dupSite_)) {
                ++stats_.dupForwards;
                BusResult r2 = root_.execute(up);
                if (!r2.line.empty())
                    root_.recycleLineBuffer(std::move(r2.line));
                r.cost += r2.cost;
            }
            if (const Cycles d =
                    faults_->fireBridgeDelay(*delaySite_)) {
                ++stats_.delayedForwards;
                extra += d;
            }
        }
        SlaveResult out;
        out.resp = r.resp;
        out.cost = r.cost;
        out.extraDelay = extra;
        return out;
    }
}

SlaveResult
BusBridge::transact(const BusRequest &req, bool local_owner,
                    bool local_ch,
                    std::span<Word> read_out)
{
    fbsim_assert(leaf_ != nullptr);
    if (req.cmd == BusCmd::Sync)
        fbsim_fatal("Sync commands do not propagate across bus bridges");

    // The canonical invalidation used when a locally-absorbed write
    // must still kill remote copies.
    const MasterSignals kInvalidate{true, true, false};

    switch (req.cmd) {
      case BusCmd::Read:
        if (!local_owner) {
            // Fill: the data authority is above this bus.
            SlaveResult res =
                forwardUp(req, BusCmd::Read, req.sig, local_ch, read_out, {});
            // A dropped forward never ran at the root: the fill did
            // not happen and - critically - remote copies were NOT
            // invalidated, so neither filter may change.  (Recording
            // the erase anyway would be the unsafe direction.)
            if (!res.dropped) {
                if (req.sig.ca)
                    localHeld_[req.line] = 1;
                if (req.sig.im)
                    eraseRemoteShared(req.line);
            }
            return res;
        }
        // Served by a cluster owner.  Remote copies only matter if
        // they may exist: a read-for-ownership must invalidate them; a
        // plain read must gather their CH (for the owner's CH:O/M).
        if (!mayBeRemote(req.line)) {
            ++stats_.upFiltered;
            return {};
        }
        if (req.sig.im) {
            SlaveResult res =
                forwardUp(req, BusCmd::AddrOnly, kInvalidate, local_ch, {}, {});
            if (!res.dropped)
                eraseRemoteShared(req.line);
            return res;
        }
        return forwardUp(req, BusCmd::Read, req.sig, local_ch, {}, {});

      case BusCmd::WriteWord:
        if (req.sig.bc) {
            if (req.sig.ca) {
                // A broadcasting cache master ends the transaction as
                // the line's owner (CH:O/M), so root memory need not
                // see the write when no remote copy may exist - the
                // ownership invariant covers the stale memory.
                if (!mayBeRemote(req.line)) {
                    localHeld_[req.line] = 1;
                    ++stats_.upFiltered;
                    return {};
                }
            }
            // Otherwise (remote copies possible, or a non-owning
            // col-10 broadcast) the write must reach the root.
            {
                SlaveResult res = forwardUp(req, BusCmd::WriteWord,
                                            req.sig, local_ch, {}, {});
                if (req.sig.ca && !res.dropped)
                    localHeld_[req.line] = 1;
                return res;
            }
        }
        if (local_owner) {
            // Captured by the cluster owner; invalidate remote copies.
            if (!mayBeRemote(req.line)) {
                ++stats_.upFiltered;
                return {};
            }
            SlaveResult res =
                forwardUp(req, BusCmd::AddrOnly, kInvalidate, local_ch, {}, {});
            if (!res.dropped)
                eraseRemoteShared(req.line);
            return res;
        }
        // Write-through to memory (a remote owner may capture via DI).
        return forwardUp(req, BusCmd::WriteWord, req.sig, local_ch, {}, {});

      case BusCmd::WriteLine:
        // Pushes always update root memory; remote holders respond CH
        // (resolving a Pass's CH:S/E).
        return forwardUp(req, BusCmd::WriteLine, req.sig, local_ch, {},
                         req.wline);

      case BusCmd::AddrOnly:
        if (!mayBeRemote(req.line)) {
            ++stats_.upFiltered;
            return {};
        }
        {
            SlaveResult res =
                forwardUp(req, BusCmd::AddrOnly, req.sig, local_ch, {},
                          {});
            if (!res.dropped)
                eraseRemoteShared(req.line);
            return res;
        }

      case BusCmd::Sync:
        break;
    }
    fbsim_panic("unreachable");
}

SnoopReply
BusBridge::snoop(const BusRequest &req)
{
    fbsim_assert(leaf_ != nullptr);
    pendingValid_ = false;
    SnoopReply reply;
    if (req.cmd == BusCmd::Sync)
        fbsim_fatal("Sync commands do not propagate across bus bridges");

    // Track what the rest of the system caches: any transaction whose
    // master asserts CA leaves a retained copy somewhere remote.
    bool will_retain_remote = req.sig.ca;

    if (salvagedValid_ && req.line == salvagedAddr_) {
        // A prior invalidating down-forward emptied this cluster of
        // the line, then the root attempt aborted after the leaf had
        // committed (spurious-abort injection): the bridge holds the
        // only copy.  Serve from the salvage buffer instead of
        // re-forwarding into the now-empty cluster.
        if (req.cmd == BusCmd::Read) {
            pendingLine_ = salvagedLine_;
            pendingValid_ = true;
            reply.resp.di = true;
            ++stats_.salvageServes;
        } else if (req.cmd == BusCmd::WriteWord) {
            // Snarf the word so the buffer stays the newest copy
            // (root memory's other words are still stale).
            salvagedLine_[req.wordIdx] = req.wdata;
        } else if (req.cmd == BusCmd::WriteLine) {
            // A full-line push makes root memory current again.
            salvagedValid_ = false;
        }
        if (will_retain_remote)
            remoteShared_[req.line] = 1;
        return reply;
    }

    if (!mayBeLocal(req.line)) {
        ++stats_.downFiltered;
        if (will_retain_remote)
            remoteShared_[req.line] = 1;
        return reply;
    }

    BusRequest down = req;
    down.master = leafId_;
    down.fromBridge = true;
    if (conservativeCh_)
        down.chHint = true;
    ++stats_.downForwards;
    BusResult r = leaf_->execute(down);
    if (!r.converged) {
        // The cluster was NOT serviced (every leaf attempt aborted
        // before commit, so no state changed below).  Completing the
        // root transaction anyway would let an invalidation count as
        // delivered while stale copies survive down here - so assert
        // BS: the root bus abort-retries the whole transaction, which
        // re-drives every cluster (idempotent for MOESI-class leaves).
        // Only reachable under fault injection; fault-free leaf
        // executes always converge.
        if (!r.line.empty())
            leaf_->recycleLineBuffer(std::move(r.line));
        ++stats_.downAborts;
        reply.resp.bs = true;
        return reply;
    }

    if (req.cmd == BusCmd::Read && r.resp.di) {
        pendingLine_.swap(r.line);
        pendingValid_ = true;
        ++stats_.remoteInterventions;
        if (req.sig.im) {
            // The down-forward invalidated the owner that supplied
            // this data; if the root attempt aborts from here on, the
            // buffer below is the only copy anywhere.  Latch it until
            // a root Read on the line commits.
            salvagedLine_ = pendingLine_;
            salvagedAddr_ = req.line;
            salvagedValid_ = true;
            ++stats_.salvagedLines;
        }
    }
    if (!r.line.empty())
        leaf_->recycleLineBuffer(std::move(r.line));

    // Did the down-forward clear the cluster?  A read-for-modify or
    // invalidate kills every copy; a plain (col 9) write leaves a
    // capturing owner alive.
    if (req.sig.im && !req.sig.bc && !r.resp.di)
        eraseLocalHeld(req.line);
    if (req.cmd == BusCmd::AddrOnly ||
        (req.cmd == BusCmd::Read && req.sig.im)) {
        eraseLocalHeld(req.line);
    }

    if (will_retain_remote)
        remoteShared_[req.line] = 1;

    reply.resp.ch = r.resp.ch;
    reply.resp.di = r.resp.di;
    reply.resp.sl = r.resp.sl;
    fbsim_assert(!r.resp.bs);
    return reply;
}

void
BusBridge::supplyLine(const BusRequest &req, std::span<Word> out)
{
    fbsim_assert(pendingValid_);
    fbsim_assert(out.size() == pendingLine_.size());
    (void)req;
    std::copy(pendingLine_.begin(), pendingLine_.end(), out.begin());
}

void
BusBridge::commit(const BusRequest &req, bool)
{
    // The cluster already committed during the down-forward.
    if (salvagedValid_ && req.line == salvagedAddr_ &&
        req.cmd == BusCmd::Read) {
        // The line reached a new owner of record (the requester, via
        // our DI supply on the non-aborted attempt).
        salvagedValid_ = false;
    }
    pendingValid_ = false;
}

void
BusBridge::performAbortPush(const BusRequest &)
{
    // A bridge's BS is a pure busy-abort (a down-forward failed under
    // faults); there is no dirty line to push.  The root master simply
    // retries.
}

} // namespace fbsim
