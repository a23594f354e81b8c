#include "mc/model.h"

#include "mc/local_exec.h"

namespace fbsim {
namespace mc {

namespace {

/** The flat model's executor: LocalExec's processor half over one bus
 *  with memory as its slave. */
class FlatExec : public LocalExec<FlatExec>
{
  public:
    static constexpr const char *kTag = "MC";

    using LocalExec::LocalExec;

  private:
    friend class LocalExec<FlatExec>;

    std::string render() const { return renderStateVector(cfg_, st_); }

    /**
     * Mirror of Bus::execute/attempt + MainMemorySlave::transact:
     * address cycle with per-holder snoop choices in attach order, the
     * BS abort-push-retry loop, the data phase with owner intervention
     * and broadcast capture, and the commit phase resolving each
     * snooper against the OR of the *other* modules' CH.
     */
    BusOutcome
    transact(std::size_t master, std::size_t l, BusCmd cmd,
             const MasterSignals &sig, Word wdata)
    {
        BusOutcome out;
        std::optional<BusEvent> ev = classifyBusEvent(cmd, sig);
        if (!ev) {
            fail("table issued signals no class protocol emits");
            return out;
        }

        const std::size_t n = cfg_.numCaches();
        for (unsigned round = 0; round <= cfg_.maxBusRetries; ++round) {
            // Phase 1: address cycle.  Only valid holders respond (an
            // absent line is the engine's null cachedFind); choices
            // are consumed in snooper attach (= id) order.
            std::array<SnoopAction, kMaxCaches> latched;
            std::array<std::uint8_t, kMaxCaches> part{};  // 0 none,
                                                          // 1 action,
                                                          // 2 push-CH
            unsigned ch_count = 0;
            int di = -1;
            int bs = -1;
            for (std::size_t d = 0; d < n; ++d) {
                if (d == master)
                    continue;
                const ModelCopy &copy = cp(d, l);
                if (copy.s == State::I)
                    continue;
                if (*ev == BusEvent::Push) {
                    // Holders signal retention; no state change, no
                    // chooser consultation.
                    ++ch_count;
                    part[d] = 2;
                    continue;
                }
                const SnoopCell &cell =
                    cfg_.tables[d]->snoop(copy.s, *ev);
                if (cell.empty()) {
                    fail("%s cache %zu: illegal bus event col %d on line "
                         "%zu in state %s",
                         cfg_.tables[d]->name().c_str(), d,
                         busEventColumn(*ev), l,
                         std::string(stateName(copy.s)).c_str());
                    return out;
                }
                const SnoopAction &a = cell[pick(d, cell.size())];
                if (a.di) {
                    if (di >= 0) {
                        fail("caches %d and %zu both intervened on line "
                             "%zu",
                             di, d, l);
                        return out;
                    }
                    di = static_cast<int>(d);
                }
                if (a.bs) {
                    if (bs >= 0) {
                        fail("caches %d and %zu both asserted BS on line "
                             "%zu",
                             bs, d, l);
                        return out;
                    }
                    bs = static_cast<int>(d);
                }
                if (a.ch == Tri::Assert)
                    ++ch_count;
                latched[d] = a;
                part[d] = 1;
            }

            // Phase 2: abort-push-retry.  The nested WriteLine push
            // raises only CH from the other holders (no choices, no
            // state changes); memory captures the owned line.
            if (bs >= 0) {
                ModelCopy &owner = cp(static_cast<std::size_t>(bs), l);
                st_.mem[l] = owner.value;
                owner.s = latched[bs].pushState;
                continue;
            }

            // Phase 3: data transfer.
            if (cmd == BusCmd::Read) {
                out.data = di >= 0
                               ? cp(static_cast<std::size_t>(di), l)
                                     .value
                               : st_.mem[l];
            }
            switch (cmd) {
              case BusCmd::Read:
                break;   // intervention inhibits the (stale) memory
              case BusCmd::WriteWord:
                // Broadcasts update memory; otherwise the owner
                // captures and memory stays stale.
                if (sig.bc || di < 0)
                    st_.mem[l] = wdata;
                break;
              case BusCmd::WriteLine:
                st_.mem[l] = wdata;
                break;
              case BusCmd::AddrOnly:
              case BusCmd::Sync:
                break;
            }

            // Phase 4: commit.  Each snooper resolves CH-conditional
            // results against the OR of the *other* modules' CH.
            for (std::size_t d = 0; d < n; ++d) {
                if (part[d] != 1)
                    continue;
                const SnoopAction &a = latched[d];
                ModelCopy &copy = cp(d, l);
                if (cmd == BusCmd::WriteWord && (a.di || a.sl))
                    copy.value = wdata;
                bool others_ch =
                    ch_count >
                    (a.ch == Tri::Assert ? 1u : 0u);
                copy.s = a.next.resolve(others_ch);
            }
            out.ch = ch_count > 0;
            return out;
        }
        fail("transaction on line %zu did not converge after %u retries",
             l, cfg_.maxBusRetries);
        return out;
    }

};

} // namespace

ModelState
initialState(const ModelConfig &cfg)
{
    fbsim_assert(cfg.numCaches() >= 2 && cfg.numCaches() <= kMaxCaches);
    fbsim_assert(cfg.lines >= 1 && cfg.lines <= kMaxLines);
    for (const ProtocolTable *t : cfg.tables)
        fbsim_assert(t != nullptr);
    return ModelState{};
}

StepResult
stepModel(const ModelConfig &cfg, ModelState &st, const ModelEvent &ev,
          ChoiceFeed &feed, std::vector<ChoiceRecord> *log)
{
    return FlatExec(cfg, st, feed, log).run(ev);
}

std::vector<ModelEvent>
legalEvents(const ModelConfig &cfg, const ModelState &st)
{
    std::vector<ModelEvent> out;
    out.reserve(cfg.numCaches() * cfg.lines * kNumLocalEvents);
    for (std::size_t c = 0; c < cfg.numCaches(); ++c) {
        for (std::size_t l = 0; l < cfg.lines; ++l) {
            State s = copyAt(cfg, st, c, l).s;
            for (LocalEvent ev : kAllLocalEvents) {
                // Skip silent no-ops (empty kind-filtered cell).
                if ((ev == LocalEvent::Pass || ev == LocalEvent::Flush) &&
                    copyBackAlternatives(cfg.tables[c]->local(s, ev)) == 0)
                    continue;
                out.push_back({static_cast<std::uint8_t>(c),
                               static_cast<std::uint8_t>(l), ev});
            }
        }
    }
    return out;
}

std::vector<std::string>
checkInvariants(const ModelConfig &cfg, const ModelState &st)
{
    std::vector<std::string> violations;
    for (std::size_t l = 0; l < cfg.lines; ++l) {
        int exclusive_holders = 0;
        int owners = 0;
        int valid_holders = 0;
        for (std::size_t c = 0; c < cfg.numCaches(); ++c) {
            const ModelCopy &copy = copyAt(cfg, st, c, l);
            if (copy.s == State::I)
                continue;
            ++valid_holders;
            if (isExclusive(copy.s))
                ++exclusive_holders;
            if (isOwned(copy.s))
                ++owners;
            if (copy.value != st.image[l]) {
                violations.push_back(strprintf(
                    "V1: cache %zu holds line 0x%llx = 0x%llx in "
                    "state %s, shared image is 0x%llx",
                    c, static_cast<unsigned long long>(l),
                    static_cast<unsigned long long>(copy.value),
                    std::string(stateName(copy.s)).c_str(),
                    static_cast<unsigned long long>(st.image[l])));
            }
            if (copy.s == State::E && copy.value != st.mem[l]) {
                violations.push_back(strprintf(
                    "V3: cache %zu line 0x%llx in E = 0x%llx but "
                    "memory = 0x%llx",
                    c, static_cast<unsigned long long>(l),
                    static_cast<unsigned long long>(copy.value),
                    static_cast<unsigned long long>(st.mem[l])));
            }
        }
        if (exclusive_holders > 1 ||
            (exclusive_holders == 1 && valid_holders > 1)) {
            violations.push_back(strprintf(
                "U1: line 0x%llx has %d exclusive holder(s) among %d "
                "valid holder(s)",
                static_cast<unsigned long long>(l), exclusive_holders,
                valid_holders));
        }
        if (owners > 1) {
            violations.push_back(strprintf(
                "U2: line 0x%llx is owned by %d caches",
                static_cast<unsigned long long>(l), owners));
        }
        if (owners == 0 && st.mem[l] != st.image[l]) {
            violations.push_back(strprintf(
                "V2: line 0x%llx unowned; memory = 0x%llx, shared "
                "image is 0x%llx",
                static_cast<unsigned long long>(l),
                static_cast<unsigned long long>(st.mem[l]),
                static_cast<unsigned long long>(st.image[l])));
        }
    }
    if (!violations.empty()) {
        std::string suffix = renderStateVector(cfg, st);
        for (std::string &v : violations)
            v += suffix;
    }
    return violations;
}

std::uint64_t
canonicalKey(const ModelConfig &cfg, const ModelState &st)
{
    std::uint64_t key = 0;
    unsigned shift = 0;
    for (std::size_t c = 0; c < cfg.numCaches(); ++c) {
        for (std::size_t l = 0; l < cfg.lines; ++l) {
            key |= static_cast<std::uint64_t>(
                       copyAt(cfg, st, c, l).s)
                   << shift;
            shift += 3;
        }
    }
    for (std::size_t l = 0; l < cfg.lines; ++l) {
        key |= static_cast<std::uint64_t>(st.mem[l] == st.image[l])
               << shift;
        ++shift;
    }
    return key;
}

std::string
renderStateVector(const ModelConfig &cfg, const ModelState &st)
{
    // Byte-identical to CoherenceChecker::describeLine over every
    // line: the lockstep and replay harnesses compare these renders
    // against the live checker's.
    std::string out;
    for (std::size_t l = 0; l < cfg.lines; ++l) {
        out += strprintf(" | line 0x%llx:",
                         static_cast<unsigned long long>(l));
        for (std::size_t c = 0; c < cfg.numCaches(); ++c) {
            const ModelCopy &copy = copyAt(cfg, st, c, l);
            if (copy.s == State::I) {
                out += strprintf(" c%zu:I", c);
            } else {
                out += strprintf(
                    " c%zu:%s[0x%llx]", c,
                    std::string(stateName(copy.s)).c_str(),
                    static_cast<unsigned long long>(copy.value));
            }
        }
        out += strprintf(
            " mem[0x%llx] image[0x%llx]",
            static_cast<unsigned long long>(st.mem[l]),
            static_cast<unsigned long long>(st.image[l]));
    }
    return out;
}

} // namespace mc
} // namespace fbsim
