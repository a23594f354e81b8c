#include "checker/coherence_checker.h"

#include <set>

#include "common/logging.h"

namespace fbsim {

CoherenceChecker::CoherenceChecker(const MainMemory &memory,
                                   std::size_t line_bytes)
    : memory_(memory), lineBytes_(line_bytes),
      wordsPerLine_(line_bytes / kWordBytes)
{
    fbsim_assert(wordsPerLine_ == memory.wordsPerLine());
    fbsim_assert((line_bytes & (line_bytes - 1)) == 0);
}

void
CoherenceChecker::addCache(const SnoopingCache *cache,
                           std::size_t cluster)
{
    fbsim_assert(cache != nullptr);
    caches_.push_back({cache, cluster});
    coverCluster(cluster);
}

void
CoherenceChecker::removeCache(const SnoopingCache *cache)
{
    for (auto it = caches_.begin(); it != caches_.end(); ++it) {
        if (it->cache == cache) {
            caches_.erase(it);
            return;
        }
    }
}

void
CoherenceChecker::attachClusterFilter(
    std::size_t cluster, std::function<bool(LineAddr)> may_local,
    std::function<bool(LineAddr)> may_remote)
{
    coverCluster(cluster);
    for (ClusterFilter &f : clusterFilters_) {
        if (f.cluster == cluster) {
            f.active = true;
            f.mayLocal = std::move(may_local);
            f.mayRemote = std::move(may_remote);
            return;
        }
    }
    clusterFilters_.push_back({cluster, true, std::move(may_local),
                               std::move(may_remote)});
}

void
CoherenceChecker::detachClusterFilter(std::size_t cluster)
{
    for (ClusterFilter &f : clusterFilters_) {
        if (f.cluster == cluster)
            f.active = false;
    }
}

std::string
CoherenceChecker::noteRead(Addr addr, Word value) const
{
    Word want = expected(addr);
    if (value == want)
        return {};
    return strprintf("read of 0x%llx returned 0x%llx, expected 0x%llx",
                     static_cast<unsigned long long>(addr),
                     static_cast<unsigned long long>(value),
                     static_cast<unsigned long long>(want)) +
           describeLine(addr / lineBytes_) + annotation();
}

std::string
CoherenceChecker::describeLine(LineAddr la) const
{
    std::string out =
        strprintf(" | line 0x%llx:", static_cast<unsigned long long>(la));
    for (const Registered &r : caches_) {
        const SnoopingCache *cache = r.cache;
        const CacheLine *line = cache->peekLine(la);
        if (!line) {
            out += strprintf(" c%u:I", cache->clientId());
            continue;
        }
        out += strprintf(" c%u:%s[", cache->clientId(),
                         std::string(stateName(line->state)).c_str());
        for (std::size_t wi = 0; wi < wordsPerLine_; ++wi) {
            out += strprintf(
                wi ? " 0x%llx" : "0x%llx",
                static_cast<unsigned long long>(line->data[wi]));
        }
        out += "]";
    }
    out += " mem[";
    for (std::size_t wi = 0; wi < wordsPerLine_; ++wi) {
        out += strprintf(
            wi ? " 0x%llx" : "0x%llx",
            static_cast<unsigned long long>(memory_.peekWord(la, wi)));
    }
    out += "] image[";
    const Word *ow = expectedLine(la);
    for (std::size_t wi = 0; wi < wordsPerLine_; ++wi) {
        out += strprintf(
            wi ? " 0x%llx" : "0x%llx",
            static_cast<unsigned long long>(ow ? ow[wi] : 0));
    }
    out += "]";
    return out;
}

void
CoherenceChecker::onBusTransaction(const BusRequest &req,
                                   const BusResult &, Cycles)
{
    if (trackDirty_)
        markDirty(req.line);
}

std::vector<std::string>
CoherenceChecker::checkInvariants() const
{
    ++checksRun_;
    std::vector<std::string> violations;

    // Collect the universe of interesting lines.
    std::set<LineAddr> lines;
    for (const Registered &r : caches_) {
        r.cache->forEachValidLine(
            [&](const CacheLine &line) { lines.insert(line.addr); });
    }
    memory_.forEachLine(
        [&](LineAddr la, std::span<const Word>) { lines.insert(la); });
    oracleSlot_.forEach(
        [&](std::uint64_t la, std::uint64_t) { lines.insert(la); });

    for (LineAddr la : lines)
        checkLine(la, violations);
    return violations;
}

std::vector<std::string>
CoherenceChecker::checkDirtyLines()
{
    ++checksRun_;
    std::vector<std::string> violations;
    for (LineAddr la : dirty_)
        checkLine(la, violations);
    dirty_.clear();
    return violations;
}

void
CoherenceChecker::checkLine(LineAddr la,
                            std::vector<std::string> &violations) const
{
    const std::size_t first = violations.size();
    int exclusive_holders = 0;
    int owners = 0;
    int valid_holders = 0;
    const SnoopingCache *exclusive_cache = nullptr;
    // H1/H2 need each cluster's holders, counted in the same walk.
    const bool hier = !clusterFilters_.empty();
    if (hier)
        std::fill(holders_.begin(), holders_.end(), 0);

    // One slab probe for the whole line; absent means never written.
    const Word *ow = expectedLine(la);
    auto expected_word = [&](std::size_t wi) {
        return ow ? ow[wi] : Word{0};
    };

    for (const Registered &r : caches_) {
        const SnoopingCache *cache = r.cache;
        const CacheLine *line = cache->peekLine(la);
        if (!line)
            continue;
        ++valid_holders;
        if (hier)
            ++holders_[r.cluster];
        if (isExclusive(line->state)) {
            ++exclusive_holders;
            exclusive_cache = cache;
        }
        if (isOwned(line->state))
            ++owners;

        // V1: every valid copy matches the shared image.
        for (std::size_t wi = 0; wi < wordsPerLine_; ++wi) {
            Word want = expected_word(wi);
            if (line->data[wi] != want) {
                violations.push_back(strprintf(
                    "V1: cache %u holds line 0x%llx word %zu = "
                    "0x%llx in state %s, shared image is 0x%llx",
                    cache->clientId(),
                    static_cast<unsigned long long>(la), wi,
                    static_cast<unsigned long long>(line->data[wi]),
                    std::string(stateName(line->state)).c_str(),
                    static_cast<unsigned long long>(want)));
            }
        }

        // V3: exclusive-unowned data matches main memory.
        if (line->state == State::E) {
            for (std::size_t wi = 0; wi < wordsPerLine_; ++wi) {
                Word mem = memory_.peekWord(la, wi);
                if (line->data[wi] != mem) {
                    violations.push_back(strprintf(
                        "V3: cache %u line 0x%llx word %zu in E = "
                        "0x%llx but memory = 0x%llx",
                        cache->clientId(),
                        static_cast<unsigned long long>(la), wi,
                        static_cast<unsigned long long>(
                            line->data[wi]),
                        static_cast<unsigned long long>(mem)));
                }
            }
        }
    }

    // U1: exclusivity.
    if (exclusive_holders > 1 ||
        (exclusive_holders == 1 && valid_holders > 1)) {
        violations.push_back(strprintf(
            "U1: line 0x%llx has %d exclusive holder(s) among %d "
            "valid holder(s)%s",
            static_cast<unsigned long long>(la), exclusive_holders,
            valid_holders,
            exclusive_cache
                ? strprintf(" (exclusive in cache %u)",
                            exclusive_cache->clientId())
                      .c_str()
                : ""));
    }

    // U2: unique ownership.
    if (owners > 1) {
        violations.push_back(strprintf(
            "U2: line 0x%llx is owned by %d caches",
            static_cast<unsigned long long>(la), owners));
    }

    // V2: memory is the default owner - when no cache owns the
    // line, memory must hold the shared image.
    if (owners == 0) {
        for (std::size_t wi = 0; wi < wordsPerLine_; ++wi) {
            Word want = expected_word(wi);
            Word mem = memory_.peekWord(la, wi);
            if (mem != want) {
                violations.push_back(strprintf(
                    "V2: line 0x%llx word %zu unowned; memory = "
                    "0x%llx, shared image is 0x%llx",
                    static_cast<unsigned long long>(la), wi,
                    static_cast<unsigned long long>(mem),
                    static_cast<unsigned long long>(want)));
            }
        }
    }

    // H1/H2: bridge-filter inclusion, only when a hierarchy attached
    // its probes and some cache holds the line.
    for (const ClusterFilter &f : clusterFilters_) {
        if (!f.active || valid_holders == 0)
            continue;
        const int inside = holders_[f.cluster];
        // H1: inclusion - the bridge may never filter a down-forward
        // its own cluster needed.
        if (inside > 0 && !f.mayLocal(la)) {
            violations.push_back(strprintf(
                "H1: bridge %zu localHeld excludes line 0x%llx held "
                "valid by %d cache(s) in its cluster",
                f.cluster, static_cast<unsigned long long>(la),
                inside));
        }
        // H2: remote visibility - the bridge may never filter an
        // invalidating up-forward that remote copies needed.
        if (valid_holders - inside > 0 && !f.mayRemote(la)) {
            violations.push_back(strprintf(
                "H2: bridge %zu remoteShared excludes line 0x%llx "
                "held valid by %d cache(s) outside its cluster",
                f.cluster, static_cast<unsigned long long>(la),
                valid_holders - inside));
        }
    }

    // Stamp the full per-cache/memory/image state vector and the
    // reproduction tag (fault seed/schedule) onto every violation this
    // line contributed, so an empirical violation reads exactly like a
    // model-checker counterexample node.
    if (violations.size() > first) {
        std::string suffix = describeLine(la) + annotation();
        for (std::size_t i = first; i < violations.size(); ++i)
            violations[i] += suffix;
    }
}

} // namespace fbsim
