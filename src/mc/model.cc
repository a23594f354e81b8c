#include "mc/model.h"

#include "common/logging.h"
#include "mc/executor.h"

namespace fbsim {
namespace mc {

ModelState
initialState(const ModelConfig &cfg)
{
    fbsim_assert(cfg.numCaches() >= 2 && cfg.numCaches() <= kMaxCaches);
    fbsim_assert(cfg.lines >= 1 && cfg.lines <= kMaxLines);
    for (const ProtocolTable *t : cfg.tables)
        fbsim_assert(t != nullptr);
    return ModelState{};
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

LineFacts
lineFacts(const ModelConfig &cfg, const ModelState &st, std::size_t line)
{
    LineFacts f;
    f.memCurrent = st.mem[line] == st.image[line];
    for (std::size_t c = 0; c < cfg.numCaches(); ++c) {
        const ModelCopy &copy = copyAt(cfg, st, c, line);
        if (copy.s == State::I)
            continue;
        const std::uint32_t bit = std::uint32_t{1} << c;
        f.valid |= bit;
        ++f.holders;
        f.exclusive += isExclusive(copy.s);
        f.owners += isOwned(copy.s);
        if (copy.value != st.image[line])
            f.stale |= bit;
        if (copy.s == State::E && copy.value != st.mem[line])
            f.eStale |= bit;
    }
    return f;
}

std::vector<std::string>
checkInvariants(const ModelConfig &cfg, const ModelState &st)
{
    std::array<LineFacts, kMaxLines> facts;
    bool clean = true;
    for (std::size_t l = 0; l < cfg.lines; ++l) {
        facts[l] = lineFacts(cfg, st, l);
        clean = clean && facts[l].clean();
    }
    if (clean)
        return {};

    std::vector<std::string> violations;
    for (std::size_t l = 0; l < cfg.lines; ++l) {
        const LineFacts &f = facts[l];
        const auto line = static_cast<unsigned long long>(l);
        for (std::size_t c = 0; c < cfg.numCaches(); ++c) {
            const ModelCopy &copy = copyAt(cfg, st, c, l);
            const std::uint32_t bit = std::uint32_t{1} << c;
            if (f.stale & bit) {
                violations.push_back(strprintf(
                    "V1: cache %zu holds line 0x%llx = 0x%llx in "
                    "state %s, shared image is 0x%llx",
                    c, line, static_cast<unsigned long long>(copy.value),
                    std::string(stateName(copy.s)).c_str(),
                    static_cast<unsigned long long>(st.image[l])));
            }
            if (f.eStale & bit) {
                violations.push_back(strprintf(
                    "V3: cache %zu line 0x%llx in E = 0x%llx but "
                    "memory = 0x%llx",
                    c, line, static_cast<unsigned long long>(copy.value),
                    static_cast<unsigned long long>(st.mem[l])));
            }
        }
        if (f.breaksU1()) {
            violations.push_back(strprintf(
                "U1: line 0x%llx has %d exclusive holder(s) among %d "
                "valid holder(s)",
                line, f.exclusive, f.holders));
        }
        if (f.breaksU2()) {
            violations.push_back(strprintf(
                "U2: line 0x%llx is owned by %d caches", line, f.owners));
        }
        if (f.breaksV2()) {
            violations.push_back(strprintf(
                "V2: line 0x%llx unowned; memory = 0x%llx, shared "
                "image is 0x%llx",
                line, static_cast<unsigned long long>(st.mem[l]),
                static_cast<unsigned long long>(st.image[l])));
        }
    }
    std::string suffix = renderStateVector(cfg, st);
    for (std::string &v : violations)
        v += suffix;
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

std::uint64_t
lineKeyMask(const ModelConfig &cfg, std::size_t line)
{
    // canonicalKey's layout: three state bits per copy, cache outer,
    // then one memory-current bit per line.
    std::uint64_t mask = 0;
    for (std::size_t c = 0; c < cfg.numCaches(); ++c)
        mask |= std::uint64_t{7} << (3 * (c * cfg.lines + line));
    return mask |
           std::uint64_t{1} << (3 * cfg.numCaches() * cfg.lines + line);
}

std::string
renderLines(const ModelConfig &cfg, const ModelState &st,
            const std::uint8_t *cluster_of)
{
    // Byte-identical to CoherenceChecker::describeLine over every
    // line: the lockstep and replay harnesses compare these renders
    // against the live checker's.  HierSystem's checker knows each
    // cache by its leaf-local master id (its index within its
    // cluster), a flat System's by its global id.
    // (Clusters are contiguous, so a cluster index is below the cache
    // count.)
    std::array<std::size_t, kMaxCaches> id{};
    std::array<std::size_t, kMaxCaches> next{};
    for (std::size_t c = 0; c < cfg.numCaches(); ++c)
        id[c] = cluster_of ? next[cluster_of[c]]++ : c;

    std::string out;
    for (std::size_t l = 0; l < cfg.lines; ++l) {
        out += strprintf(" | line 0x%llx:",
                         static_cast<unsigned long long>(l));
        for (std::size_t c = 0; c < cfg.numCaches(); ++c) {
            const ModelCopy &copy = copyAt(cfg, st, c, l);
            if (copy.s == State::I) {
                out += strprintf(" c%zu:I", id[c]);
            } else {
                out += strprintf(
                    " c%zu:%s[0x%llx]", id[c],
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

std::string
renderStateVector(const ModelConfig &cfg, const ModelState &st)
{
    return renderLines(cfg, st, nullptr);
}

} // namespace mc
} // namespace fbsim
