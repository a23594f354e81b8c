#include "fault/fault_injector.h"

#include <algorithm>

#include "common/logging.h"

namespace fbsim {

namespace {

/** Summarize one site's schedule ("abort(p=0.010,w=[5,90))"). */
void
appendSite(std::string &out, const char *name, const FaultSchedule &s,
           const std::string &extra = {})
{
    if (!s.enabled())
        return;
    if (!out.empty())
        out += ' ';
    out += name;
    out += '(';
    bool first = true;
    if (s.probability > 0.0) {
        out += strprintf("p=%.4g", s.probability);
        first = false;
    }
    if (s.windowStart != 0 || s.windowEnd != ~std::uint64_t{0}) {
        out += strprintf("%sw=[%llu,%llu)", first ? "" : ",",
                         static_cast<unsigned long long>(s.windowStart),
                         static_cast<unsigned long long>(s.windowEnd));
        first = false;
    }
    if (!s.scriptAt.empty()) {
        out += strprintf("%sscript=%zu", first ? "" : ",",
                         s.scriptAt.size());
        first = false;
    }
    if (!extra.empty())
        out += (first ? "" : ",") + extra;
    out += ')';
}

/** FNV-1a over the site name; folded into deriveSeed so the stream is
 *  a pure function of (seed, name) - no registration order anywhere. */
std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

std::string
summarizeFaultSites(const FaultConfig &config)
{
    std::string out;
    appendSite(out, "abort", config.spuriousAbort,
               config.abortStormProb > 0.0
                   ? strprintf("storm=%.3gx%u", config.abortStormProb,
                               config.abortStormLength)
                   : std::string());
    appendSite(out, "delay", config.memoryDelay,
               strprintf("+%llu", static_cast<unsigned long long>(
                                      config.memoryDelayCycles)));
    appendSite(out, "drop", config.memoryDrop);
    appendSite(out, "flip", config.dataFlip);
    appendSite(out, "resp", config.responseFlip);
    appendSite(out, "mute", config.snooperMute);
    appendSite(out, "bdrop", config.bridgeDrop);
    appendSite(out, "bdelay", config.bridgeDelay,
               strprintf("+%llu", static_cast<unsigned long long>(
                                      config.bridgeDelayCycles)));
    appendSite(out, "bdup", config.bridgeDup);
    appendSite(out, "bstale", config.filterStale);
    appendSite(out, "bstall", config.leafStall,
               strprintf("x%u", config.leafStallForwards));
    if (out.empty())
        out = "idle";
    return out;
}

std::uint64_t
FaultInjector::siteSeed(std::uint64_t seed, std::string_view name)
{
    return Rng::deriveSeed(seed, fnv1a(name));
}

// The flat sites' names are part of the reproducibility contract:
// schedules derive from them, so they may never be renamed without
// invalidating recorded seeds.
FaultInjector::FaultInjector(const FaultConfig &config)
    : config_(config),
      abort_("abort", siteSeed(config.seed, "abort")),
      memoryDelay_("mem-delay", siteSeed(config.seed, "mem-delay")),
      memoryDrop_("mem-drop", siteSeed(config.seed, "mem-drop")),
      dataFlip_("data-flip", siteSeed(config.seed, "data-flip")),
      responseFlip_("resp-flip", siteSeed(config.seed, "resp-flip")),
      mute_("mute", siteSeed(config.seed, "mute"))
{
    // One independent stream per site, seeded from the site's stable
    // name: enabling, re-ordering or *adding* sites (hier assembly
    // registers bridge sites after the flat ones) never perturbs
    // another site's schedule, which keeps ablation campaigns (one
    // site at a time) comparable and flat schedules immune to
    // hierarchy assembly.
    for (const FaultSchedule *s :
         {&config_.spuriousAbort, &config_.memoryDelay,
          &config_.memoryDrop, &config_.dataFlip, &config_.responseFlip,
          &config_.snooperMute, &config_.bridgeDrop, &config_.bridgeDelay,
          &config_.bridgeDup, &config_.filterStale, &config_.leafStall})
        fbsim_assert(std::is_sorted(s->scriptAt.begin(), s->scriptAt.end()));
    siteSummary_ = summarizeFaultSites(config_);
}

FaultSite &
FaultInjector::site(std::string_view name)
{
    for (FaultSite &s : namedSites_) {
        if (s.name_ == name)
            return s;
    }
    namedSites_.push_back(FaultSite(
        std::string(name), siteSeed(config_.seed, name)));
    return namedSites_.back();
}

bool
FaultInjector::fireAt(FaultSite &site, const FaultSchedule &sched)
{
    // Scripted entries fire once each, at the site's first opportunity
    // in (or after) their transaction.
    if (quiesced_)
        return false;
    if (site.cursor_ < sched.scriptAt.size() &&
        sched.scriptAt[site.cursor_] <= txn_) {
        ++site.cursor_;
        return true;
    }
    if (sched.probability <= 0.0)
        return false;
    if (txn_ < sched.windowStart || txn_ >= sched.windowEnd)
        return false;
    return site.rng_.chance(sched.probability);
}

bool
FaultInjector::counted(FaultSite &site, const FaultSchedule &sched,
                       std::uint64_t &counter)
{
    if (!fireAt(site, sched))
        return false;
    ++counter;
    return true;
}

bool
FaultInjector::fireBridgeDrop(FaultSite &site)
{
    return counted(site, config_.bridgeDrop, stats_.bridgeDrops);
}

Cycles
FaultInjector::fireBridgeDelay(FaultSite &site)
{
    return counted(site, config_.bridgeDelay, stats_.bridgeDelays)
               ? config_.bridgeDelayCycles
               : 0;
}

bool
FaultInjector::fireBridgeDup(FaultSite &site)
{
    return counted(site, config_.bridgeDup, stats_.bridgeDups);
}

bool
FaultInjector::fireFilterStale(FaultSite &site)
{
    return counted(site, config_.filterStale, stats_.filterStales);
}

bool
FaultInjector::fireLeafStall(FaultSite &site)
{
    return counted(site, config_.leafStall, stats_.leafStalls);
}

bool
FaultInjector::fireSpuriousAbort(LineAddr line)
{
    if (quiesced_)
        return false;   // active storms freeze, they do not drain
    if (stormRemaining_ > 0 && line == stormLine_) {
        --stormRemaining_;
        ++stats_.stormAborts;
        return true;
    }
    if (!counted(abort_, config_.spuriousAbort, stats_.spuriousAborts))
        return false;
    if (config_.abortStormProb > 0.0 && config_.abortStormLength > 0 &&
        abort_.rng_.chance(config_.abortStormProb)) {
        stormLine_ = line;
        stormRemaining_ = config_.abortStormLength;
    }
    return true;
}

bool
FaultInjector::fireMute(MasterId /* id */)
{
    return counted(mute_, config_.snooperMute, stats_.snooperMutes);
}

ResponseSignals
FaultInjector::corruptResponse(ResponseSignals resp)
{
    if (!counted(responseFlip_, config_.responseFlip,
                 stats_.responseFlips))
        return resp;
    // BS glitches are the spurious-abort site; here only the
    // informational lines flip.  A CH flip can send a master to a
    // wrongly exclusive state (a detectable U1/V3 violation) or to a
    // needlessly shared one (harmless); DI/SL flips are visible only
    // in statistics, since data routing follows the latched owner.
    switch (responseFlip_.rng_.below(3)) {
      case 0: resp.ch = !resp.ch; break;
      case 1: resp.di = !resp.di; break;
      case 2: resp.sl = !resp.sl; break;
    }
    return resp;
}

Cycles
FaultInjector::fireMemoryDelay()
{
    return counted(memoryDelay_, config_.memoryDelay, stats_.memoryDelays)
               ? config_.memoryDelayCycles
               : 0;
}

bool
FaultInjector::fireMemoryDrop()
{
    return counted(memoryDrop_, config_.memoryDrop, stats_.memoryDrops);
}

bool
FaultInjector::shouldFlipData()
{
    return fireAt(dataFlip_, config_.dataFlip);
}

std::string
FaultInjector::describe() const
{
    return strprintf("[fault seed=0x%llx txn=%llu %s]",
                     static_cast<unsigned long long>(config_.seed),
                     static_cast<unsigned long long>(txn_),
                     siteSummary_.c_str());
}

} // namespace fbsim
