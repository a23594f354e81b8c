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
    // H1/H2: the filters' conservative direction, mirroring the
    // hierarchical CoherenceChecker's probes - a stale entry is legal
    // (it costs forwards), a missing entry would skip a required
    // forward and is a violation.  Bit k * kMaxLines + l of `h1`
    // (`h2`) marks cluster k's missing localHeld (remoteShared) bit
    // for line l.
    const std::size_t clusters = cfg.numClusters();
    std::array<std::uint32_t, kMaxClusters> members{};
    for (std::size_t c = 0; c < cfg.base.numCaches(); ++c)
        members[cfg.clusterOf[c]] |= std::uint32_t{1} << c;
    bool flat_clean = true;
    std::uint32_t h1 = 0;
    std::uint32_t h2 = 0;
    for (std::size_t l = 0; l < cfg.base.lines; ++l) {
        const LineFacts f = lineFacts(cfg.base, st.flat, l);
        flat_clean = flat_clean && f.clean();
        for (std::size_t k = 0; k < clusters; ++k) {
            const std::uint32_t bit = std::uint32_t{1}
                                      << (k * kMaxLines + l);
            if ((f.valid & members[k]) &&
                !st.localHeld[k * cfg.base.lines + l])
                h1 |= bit;
            if ((f.valid & ~members[k]) &&
                !st.remoteShared[k * cfg.base.lines + l])
                h2 |= bit;
        }
    }
    if (flat_clean && (h1 | h2) == 0)
        return {};

    std::vector<std::string> violations =
        flat_clean ? std::vector<std::string>{}
                   : checkInvariants(cfg.base, st.flat);
    for (std::size_t l = 0; l < cfg.base.lines; ++l) {
        for (std::size_t k = 0; k < clusters; ++k) {
            const std::uint32_t bit = std::uint32_t{1}
                                      << (k * kMaxLines + l);
            if (h1 & bit) {
                violations.push_back(strprintf(
                    "H1: line 0x%llx is valid inside cluster %zu but "
                    "absent from its localHeld filter",
                    static_cast<unsigned long long>(l), k));
            }
            if (h2 & bit) {
                violations.push_back(strprintf(
                    "H2: line 0x%llx is valid outside cluster %zu but "
                    "absent from its remoteShared filter",
                    static_cast<unsigned long long>(l), k));
            }
        }
    }
    std::string suffix = renderHierFilters(cfg, st);
    for (std::string &v : violations)
        v += suffix;
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

std::uint64_t
lineHierKeyMask(const HierModelConfig &cfg, std::size_t line)
{
    // canonicalHierKey's layout: canonicalKey's bits, then a
    // localHeld/remoteShared pair per (cluster, line), cluster outer.
    const std::size_t lines = cfg.base.lines;
    const std::size_t filters = cfg.base.numCaches() * lines * 3 + lines;
    std::uint64_t mask = lineKeyMask(cfg.base, line);
    for (std::size_t k = 0; k < cfg.numClusters(); ++k)
        mask |= std::uint64_t{3} << (filters + 2 * (k * lines + line));
    return mask;
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
