#include "mc/hier_model.h"

#include "common/logging.h"
#include "mc/executor.h"

namespace fbsim {
namespace mc {

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
    return renderLines(cfg.base, st.flat, cfg.clusterOf.data()) +
           renderHierFilters(cfg, st);
}

} // namespace mc
} // namespace fbsim
