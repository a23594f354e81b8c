#include "mc/hier_model.h"

#include "mc/local_exec.h"

namespace fbsim {
namespace mc {

namespace {

/**
 * Engine-faithful transition executor for one processor event through
 * the two-level fabric.  The local dispatch is LocalExec's
 * (local_exec.h); the bus transaction mirrors the composite hierarchy
 * path instead of the flat bus:
 *
 *   leafTransact   = leaf Bus::attempt (address cycle over the
 *                    master's cluster, bridge as the slave, commit)
 *   bridgeTransact = BusBridge::transact (filter decisions, command
 *                    rewrites, filter maintenance)
 *   rootTransact   = root Bus::attempt (bridges snooped in cluster
 *                    order, MainMemorySlave data phase)
 *   downForward    = BusBridge::snoop + nested leaf Bus::attempt with
 *                    fromBridge (no slave, chHint carries the
 *                    originating cluster's CH)
 */
class HierExec : public LocalExec<HierExec>
{
  public:
    static constexpr const char *kTag = "MC-hier";

    HierExec(const HierModelConfig &cfg, HierModelState &st,
             ChoiceFeed &feed, std::vector<ChoiceRecord> *log)
        : LocalExec(cfg.base, st.flat, feed, log), hcfg_(cfg), hst_(st)
    {
    }

  private:
    friend class LocalExec<HierExec>;

    std::string
    render() const
    {
        return renderStateVector(cfg_, st_) +
               renderHierFilters(hcfg_, hst_);
    }

    std::uint8_t &lheld(std::size_t k, std::size_t l)
    { return hst_.localHeld[k * cfg_.lines + l]; }

    std::uint8_t &rshared(std::size_t k, std::size_t l)
    { return hst_.remoteShared[k * cfg_.lines + l]; }

    BusOutcome
    transact(std::size_t master, std::size_t l, BusCmd cmd,
             const MasterSignals &sig, Word wdata)
    {
        return leafTransact(master, l, cmd, sig, wdata);
    }

    /** What comes back over the bridge into the leaf transaction. */
    struct RemoteOutcome
    {
        bool ch = false;   ///< aggregated remote CH
        bool di = false;   ///< a remote cluster's owner intervened
        Word data = 0;     ///< fill data (root memory or remote owner)
    };

    /** Leaf-j responses to a down-forwarded root transaction. */
    struct DownOutcome
    {
        bool ch = false;
        bool di = false;
        Word data = 0;
    };

    /**
     * Mirror of the originating leaf Bus::attempt: address cycle over
     * the master's cluster, the bridge as the memory slave, commit
     * resolving CH against both the cluster's count and the bridge's
     * response (external CH).
     */
    BusOutcome
    leafTransact(std::size_t master, std::size_t l, BusCmd cmd,
                 const MasterSignals &sig, Word wdata)
    {
        BusOutcome out;
        std::optional<BusEvent> ev = classifyBusEvent(cmd, sig);
        if (!ev) {
            fail("table issued signals no class protocol emits");
            return out;
        }

        const std::size_t n = cfg_.numCaches();
        const std::size_t home = hcfg_.clusterOf[master];

        // Phase 1: address cycle over the master's cluster, in id
        // order (= leaf attach order).
        std::array<SnoopAction, kMaxCaches> latched;
        std::array<std::uint8_t, kMaxCaches> part{};
        unsigned ch_count = 0;
        int di = -1;
        for (std::size_t d = 0; d < n; ++d) {
            if (d == master || hcfg_.clusterOf[d] != home)
                continue;
            const ModelCopy &copy = cp(d, l);
            if (copy.s == State::I)
                continue;
            if (*ev == BusEvent::Push) {
                ++ch_count;
                part[d] = 2;
                continue;
            }
            const SnoopCell &cell =
                cfg_.tables[d]->snoop(copy.s, *ev);
            if (cell.empty()) {
                fail("%s cache %zu: illegal bus event col %d on line %zu "
                     "in state %s",
                     cfg_.tables[d]->name().c_str(), d,
                     busEventColumn(*ev), l,
                     std::string(stateName(copy.s)).c_str());
                return out;
            }
            const SnoopAction &a = cell[pick(d, cell.size())];
            if (a.bs) {
                // MOESI-class only below a bridge: an abort could not
                // propagate across buses, so the hierarchy (and this
                // model) excludes BS protocols from leaves.
                fail("%s cache %zu asserted BS on a leaf bus (aborts "
                     "cannot cross a bridge)",
                     cfg_.tables[d]->name().c_str(), d);
                return out;
            }
            if (a.di) {
                if (di >= 0) {
                    fail("caches %d and %zu both intervened on line %zu",
                         di, d, l);
                    return out;
                }
                di = static_cast<int>(d);
            }
            if (a.ch == Tri::Assert)
                ++ch_count;
            latched[d] = a;
            part[d] = 1;
        }

        // Phase 3 (no phase 2: nothing here asserts BS): data
        // transfer through the bridge, which may run a root
        // transaction - including every remote cluster's snoop-commit
        // and the root memory's data phase - before this leaf commits.
        RemoteOutcome rem = bridgeTransact(home, l, cmd, sig, di >= 0,
                                           ch_count > 0, wdata);
        if (!result_.ok)
            return out;
        if (cmd == BusCmd::Read) {
            out.data = di >= 0 ? cp(static_cast<std::size_t>(di), l)
                                     .value
                               : rem.data;
        }

        // Phase 4: commit.  The bridge's response is the external CH
        // (Bus::attempt's `sres.resp.ch`); processor-originated
        // requests carry no chHint.
        for (std::size_t d = 0; d < n; ++d) {
            if (part[d] != 1)
                continue;
            const SnoopAction &a = latched[d];
            ModelCopy &copy = cp(d, l);
            if (cmd == BusCmd::WriteWord && (a.di || a.sl))
                copy.value = wdata;
            bool others_ch =
                rem.ch ||
                ch_count > (a.ch == Tri::Assert ? 1u : 0u);
            copy.s = a.next.resolve(others_ch);
        }
        out.ch = ch_count > 0 || rem.ch;
        return out;
    }

    /** Mirror of BusBridge::transact (fault-free: no drops). */
    RemoteOutcome
    bridgeTransact(std::size_t k, std::size_t l, BusCmd cmd,
                   const MasterSignals &sig, bool local_owner,
                   bool local_ch, Word wdata)
    {
        // The canonical invalidation used when a locally-absorbed
        // write must still kill remote copies.
        const MasterSignals kInvalidate{true, true, false};

        switch (cmd) {
          case BusCmd::Read:
            if (!local_owner) {
                // Fill: the data authority is above this bus.
                RemoteOutcome r = rootTransact(k, l, BusCmd::Read, sig,
                                               local_ch, 0);
                if (!result_.ok)
                    return r;
                if (sig.ca)
                    lheld(k, l) = 1;
                if (sig.im)
                    rshared(k, l) = 0;
                return r;
            }
            if (!rshared(k, l))
                return {};
            if (sig.im) {
                RemoteOutcome r = rootTransact(
                    k, l, BusCmd::AddrOnly, kInvalidate, local_ch, 0);
                if (result_.ok)
                    rshared(k, l) = 0;
                return r;
            }
            // CH gather for the cluster owner; fill data discarded.
            return rootTransact(k, l, BusCmd::Read, sig, local_ch, 0);

          case BusCmd::WriteWord:
            if (sig.bc) {
                if (sig.ca && !rshared(k, l)) {
                    lheld(k, l) = 1;
                    return {};
                }
                RemoteOutcome r = rootTransact(
                    k, l, BusCmd::WriteWord, sig, local_ch, wdata);
                if (result_.ok && sig.ca)
                    lheld(k, l) = 1;
                return r;
            }
            if (local_owner) {
                if (!rshared(k, l))
                    return {};
                RemoteOutcome r = rootTransact(
                    k, l, BusCmd::AddrOnly, kInvalidate, local_ch, 0);
                if (result_.ok)
                    rshared(k, l) = 0;
                return r;
            }
            // Write-through (a remote owner may capture via DI).
            return rootTransact(k, l, BusCmd::WriteWord, sig, local_ch,
                                wdata);

          case BusCmd::WriteLine:
            return rootTransact(k, l, BusCmd::WriteLine, sig, local_ch,
                                wdata);

          case BusCmd::AddrOnly: {
            if (!rshared(k, l))
                return {};
            RemoteOutcome r = rootTransact(k, l, BusCmd::AddrOnly, sig,
                                           local_ch, 0);
            if (result_.ok)
                rshared(k, l) = 0;
            return r;
          }

          case BusCmd::Sync:
            break;
        }
        fail("Sync commands do not cross bus bridges");
        return {};
    }

    /**
     * Mirror of root Bus::attempt + MainMemorySlave::transact: the
     * other clusters' bridges are snooped in cluster order (each
     * down-forward runs to completion, committing its cluster, before
     * the next bridge is snooped), then memory moves the data.
     */
    RemoteOutcome
    rootTransact(std::size_t origin, std::size_t l, BusCmd cmd,
                 const MasterSignals &sig, bool ch_hint, Word wdata)
    {
        RemoteOutcome out;
        std::optional<BusEvent> ev = classifyBusEvent(cmd, sig);
        if (!ev) {
            fail("bridge issued signals no class protocol emits");
            return out;
        }

        unsigned root_ch = 0;
        int di_cluster = -1;
        Word di_data = 0;
        for (std::size_t j = 0; j < hcfg_.numClusters(); ++j) {
            if (j == origin)
                continue;
            // Mirror of BusBridge::snoop: any transaction whose master
            // asserts CA leaves a retained copy somewhere remote.
            const bool will_retain_remote = sig.ca;
            if (!lheld(j, l)) {
                if (will_retain_remote)
                    rshared(j, l) = 1;
                continue;
            }
            DownOutcome d = downForward(j, l, *ev, cmd, ch_hint, wdata);
            if (!result_.ok)
                return out;
            // Did the down-forward clear the cluster?  A
            // read-for-modify or invalidate kills every copy; a plain
            // write leaves a capturing owner alive.
            if (sig.im && !sig.bc && !d.di)
                lheld(j, l) = 0;
            if (cmd == BusCmd::AddrOnly ||
                (cmd == BusCmd::Read && sig.im)) {
                lheld(j, l) = 0;
            }
            if (will_retain_remote)
                rshared(j, l) = 1;
            if (d.ch)
                ++root_ch;
            if (d.di) {
                if (di_cluster >= 0) {
                    fail("clusters %d and %zu both intervened on line %zu",
                         di_cluster, j, l);
                    return out;
                }
                di_cluster = static_cast<int>(j);
                di_data = d.data;
            }
        }

        out.ch = root_ch > 0;
        out.di = di_cluster >= 0;
        switch (cmd) {
          case BusCmd::Read:
            // Intervention inhibits the (stale) memory.
            out.data = out.di ? di_data : st_.mem[l];
            break;
          case BusCmd::WriteWord:
            // Broadcasts update memory; otherwise a remote owner
            // captures and memory stays stale.
            if (sig.bc || !out.di)
                st_.mem[l] = wdata;
            break;
          case BusCmd::WriteLine:
            st_.mem[l] = wdata;
            break;
          case BusCmd::AddrOnly:
          case BusCmd::Sync:
            break;
        }
        // Root commit: the bridges' commit is a no-op (every cluster
        // already committed during its down-forward).
        return out;
    }

    /**
     * Mirror of BusBridge::snoop's nested leaf transaction: cluster
     * j's holders snoop and commit with the originating cluster's CH
     * carried in as chHint (plus the conservative-CH weakening beyond
     * two clusters).  No slave participates (fromBridge).
     */
    DownOutcome
    downForward(std::size_t j, std::size_t l, BusEvent ev, BusCmd cmd,
                bool ch_hint, Word wdata)
    {
        DownOutcome out;
        const std::size_t n = cfg_.numCaches();
        std::array<SnoopAction, kMaxCaches> latched;
        std::array<std::uint8_t, kMaxCaches> part{};
        unsigned ch_count = 0;
        int di = -1;
        for (std::size_t d = 0; d < n; ++d) {
            if (hcfg_.clusterOf[d] != j)
                continue;
            const ModelCopy &copy = cp(d, l);
            if (copy.s == State::I)
                continue;
            if (ev == BusEvent::Push) {
                ++ch_count;
                part[d] = 2;
                continue;
            }
            const SnoopCell &cell =
                cfg_.tables[d]->snoop(copy.s, ev);
            if (cell.empty()) {
                fail("%s cache %zu: illegal bus event col %d on line %zu "
                     "in state %s",
                     cfg_.tables[d]->name().c_str(), d, busEventColumn(ev),
                     l, std::string(stateName(copy.s)).c_str());
                return out;
            }
            const SnoopAction &a = cell[pick(d, cell.size())];
            if (a.bs) {
                fail("%s cache %zu asserted BS under a bridge",
                     cfg_.tables[d]->name().c_str(), d);
                return out;
            }
            if (a.di) {
                if (di >= 0) {
                    fail("caches %d and %zu both intervened on line %zu",
                         di, d, l);
                    return out;
                }
                di = static_cast<int>(d);
            }
            if (a.ch == Tri::Assert)
                ++ch_count;
            latched[d] = a;
            part[d] = 1;
        }

        // Data phase: the owner's line travels up via the bridge
        // (captured before this cluster commits); with no owner the
        // down-forward has no data phase on this bus.
        if (cmd == BusCmd::Read && di >= 0)
            out.data = cp(static_cast<std::size_t>(di), l).value;

        // Commit: external CH is the down request's chHint (the
        // originating cluster's CH), conservatively forced beyond two
        // clusters; no slave response exists on a fromBridge leg.
        const bool ext = ch_hint || hcfg_.conservativeCh();
        for (std::size_t d = 0; d < n; ++d) {
            if (part[d] != 1)
                continue;
            const SnoopAction &a = latched[d];
            ModelCopy &copy = cp(d, l);
            if (cmd == BusCmd::WriteWord && (a.di || a.sl))
                copy.value = wdata;
            bool others_ch =
                ext || ch_count > (a.ch == Tri::Assert ? 1u : 0u);
            copy.s = a.next.resolve(others_ch);
        }
        out.ch = ch_count > 0;
        out.di = di >= 0;
        return out;
    }

    const HierModelConfig &hcfg_;
    HierModelState &hst_;
};

} // namespace

HierModelState
initialHierState(const HierModelConfig &cfg)
{
    fbsim_assert(cfg.clusterOf.size() == cfg.base.numCaches());
    const std::size_t clusters = cfg.numClusters();
    fbsim_assert(clusters >= 2 && clusters <= kMaxClusters);
    fbsim_assert(cfg.base.numCaches() >= 2 &&
                 cfg.base.numCaches() <= kMaxCaches);
    fbsim_assert(cfg.base.lines >= 1 && cfg.base.lines <= kMaxLines);
    for (const ProtocolTable *t : cfg.base.tables)
        fbsim_assert(t != nullptr);
    return HierModelState{};
}

StepResult
stepHierModel(const HierModelConfig &cfg, HierModelState &st,
              const ModelEvent &ev, ChoiceFeed &feed,
              std::vector<ChoiceRecord> *log)
{
    return HierExec(cfg, st, feed, log).run(ev);
}

std::vector<ModelEvent>
legalHierEvents(const HierModelConfig &cfg, const HierModelState &st)
{
    return legalEvents(cfg.base, st.flat);
}

std::vector<std::string>
checkHierInvariants(const HierModelConfig &cfg, const HierModelState &st)
{
    std::vector<std::string> violations =
        checkInvariants(cfg.base, st.flat);
    // H1/H2: the filters' conservative direction, mirroring the
    // hierarchical CoherenceChecker's probes - a stale entry is legal
    // (it costs forwards), a missing entry would skip a required
    // forward and is a violation.
    const std::size_t clusters = cfg.numClusters();
    for (std::size_t l = 0; l < cfg.base.lines; ++l) {
        for (std::size_t k = 0; k < clusters; ++k) {
            bool inside = false;
            bool outside = false;
            for (std::size_t c = 0; c < cfg.base.numCaches(); ++c) {
                if (copyAt(cfg.base, st.flat, c, l).s == State::I)
                    continue;
                (cfg.clusterOf[c] == k ? inside : outside) = true;
            }
            if (inside && !st.localHeld[k * cfg.base.lines + l]) {
                violations.push_back(strprintf(
                    "H1: line 0x%llx is valid inside cluster %zu but "
                    "absent from its localHeld filter",
                    static_cast<unsigned long long>(l), k));
            }
            if (outside && !st.remoteShared[k * cfg.base.lines + l]) {
                violations.push_back(strprintf(
                    "H2: line 0x%llx is valid outside cluster %zu but "
                    "absent from its remoteShared filter",
                    static_cast<unsigned long long>(l), k));
            }
        }
    }
    if (!violations.empty()) {
        std::string suffix = renderHierFilters(cfg, st);
        for (std::string &v : violations) {
            if (v.find(" | flt ") == std::string::npos)
                v += suffix;
        }
    }
    return violations;
}

std::uint64_t
canonicalHierKey(const HierModelConfig &cfg, const HierModelState &st)
{
    std::uint64_t key = canonicalKey(cfg.base, st.flat);
    unsigned shift = static_cast<unsigned>(
        cfg.base.numCaches() * cfg.base.lines * 3 + cfg.base.lines);
    const std::size_t clusters = cfg.numClusters();
    for (std::size_t k = 0; k < clusters; ++k) {
        for (std::size_t l = 0; l < cfg.base.lines; ++l) {
            key |= static_cast<std::uint64_t>(
                       st.localHeld[k * cfg.base.lines + l] ? 1 : 0)
                   << shift++;
            key |= static_cast<std::uint64_t>(
                       st.remoteShared[k * cfg.base.lines + l] ? 1 : 0)
                   << shift++;
        }
    }
    fbsim_assert(shift <= 64);
    return key;
}

std::string
renderHierFilters(const HierModelConfig &cfg, const HierModelState &st)
{
    std::string out;
    const std::size_t clusters = cfg.numClusters();
    for (std::size_t l = 0; l < cfg.base.lines; ++l) {
        out += strprintf(" | flt 0x%llx:",
                         static_cast<unsigned long long>(l));
        for (std::size_t k = 0; k < clusters; ++k) {
            out += strprintf(
                " b%zu:%c%c", k,
                st.localHeld[k * cfg.base.lines + l] ? 'L' : '-',
                st.remoteShared[k * cfg.base.lines + l] ? 'R' : '-');
        }
    }
    return out;
}

std::string
renderHierStateVector(const HierModelConfig &cfg,
                      const HierModelState &st)
{
    // Caches attach to HierSystem in global order but carry leaf-local
    // master ids, and the checker labels them by that id.
    std::vector<std::size_t> localId(cfg.base.numCaches(), 0);
    std::array<std::size_t, kMaxClusters> next{};
    for (std::size_t c = 0; c < cfg.base.numCaches(); ++c)
        localId[c] = next[cfg.clusterOf[c]]++;

    std::string out;
    for (std::size_t l = 0; l < cfg.base.lines; ++l) {
        out += strprintf(" | line 0x%llx:",
                         static_cast<unsigned long long>(l));
        for (std::size_t c = 0; c < cfg.base.numCaches(); ++c) {
            const ModelCopy &copy = copyAt(cfg.base, st.flat, c, l);
            if (copy.s == State::I) {
                out += strprintf(" c%zu:I", localId[c]);
            } else {
                out += strprintf(
                    " c%zu:%s[0x%llx]", localId[c],
                    std::string(stateName(copy.s)).c_str(),
                    static_cast<unsigned long long>(copy.value));
            }
        }
        out += strprintf(
            " mem[0x%llx] image[0x%llx]",
            static_cast<unsigned long long>(st.flat.mem[l]),
            static_cast<unsigned long long>(st.flat.image[l]));
    }
    return out + renderHierFilters(cfg, st);
}

} // namespace mc
} // namespace fbsim
