/**
 * @file
 * Shared helpers for fbsim tests: compact System builders, exact
 * fingerprints of campaign-job outcomes, and model-checker traces and
 * corrupted tables.
 */

#ifndef FBSIM_TESTS_TEST_UTIL_H_
#define FBSIM_TESTS_TEST_UTIL_H_

#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "campaign/campaign_spec.h"
#include "common/logging.h"
#include "mc/explorer.h"
#include "protocols/factory.h"
#include "sim/system.h"

namespace fbsim::test {

/** Default system config for tests: tiny lines, checker always on. */
inline SystemConfig
testConfig(std::size_t line_bytes = 32)
{
    SystemConfig cfg;
    cfg.lineBytes = line_bytes;
    cfg.checkEveryAccess = true;
    return cfg;
}

/** A cache spec with a small geometry for fast tests. */
inline CacheSpec
smallCache(ProtocolKind protocol = ProtocolKind::Moesi)
{
    CacheSpec spec;
    spec.protocol = protocol;
    spec.numSets = 4;
    spec.assoc = 2;
    return spec;
}

/** Build a system with `n` identical caches of the given protocol. */
inline std::unique_ptr<System>
homogeneousSystem(std::size_t n,
                  ProtocolKind protocol = ProtocolKind::Moesi,
                  std::size_t line_bytes = 32)
{
    auto sys = std::make_unique<System>(testConfig(line_bytes));
    for (std::size_t i = 0; i < n; ++i) {
        CacheSpec spec = smallCache(protocol);
        spec.seed = i + 1;
        sys->addCache(spec);
    }
    return sys;
}

/** 64-bit FNV-1a over a byte string. */
inline std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a of `lines` joined with newlines. */
inline std::uint64_t
fnv1a(const std::vector<std::string> &lines)
{
    std::string joined;
    for (const std::string &l : lines)
        joined += l + "\n";
    return fnv1a(joined);
}

/** FNV-1a over a sequence of 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (unsigned b = 0; b < 64; b += 8) {
            h_ ^= (v >> b) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    /** A stats block made only of 64-bit counters, in field order. */
    template <class Counters>
    void
    addCounters(const Counters &c)
    {
        static_assert(std::is_trivially_copyable_v<Counters> &&
                      sizeof(Counters) % sizeof(std::uint64_t) == 0);
        std::array<std::uint64_t, sizeof(Counters) / sizeof(std::uint64_t)>
            words;
        std::memcpy(words.data(), &c, sizeof c);
        for (std::uint64_t w : words)
            add(w);
    }

    /** Every EngineResult field, each processor's timing included. */
    void
    addResult(const EngineResult &r)
    {
        for (std::uint64_t v :
             {r.elapsed, r.busBusy, r.faultedRefs, r.watchdogTrips,
              r.quarantines, r.reintegrations,
              std::uint64_t{r.cancelled}})
            add(v);
        for (const ProcTiming &p : r.procs) {
            for (std::uint64_t v : {p.refs, p.finishTime, p.execCycles,
                                    p.busWaitCycles, p.busServiceCycles})
                add(v);
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * One line fingerprinting everything a campaign job reports about its
 * fault ladder: the fault-event log and violations (count + hash), the
 * EngineResult fields, the ladder counters, and hashes of the fault
 * report, the metric snapshot's JSON and the job's rendered trace.
 */
inline std::string
ladderPin(const CampaignResult &r, const std::string &trace)
{
    std::string procs;
    for (const ProcTiming &p : r.engine.procs) {
        procs += strprintf("%llu/%llu/%llu/%llu/%llu;",
                           static_cast<unsigned long long>(p.refs),
                           static_cast<unsigned long long>(p.finishTime),
                           static_cast<unsigned long long>(p.execCycles),
                           static_cast<unsigned long long>(p.busWaitCycles),
                           static_cast<unsigned long long>(
                               p.busServiceCycles));
    }
    auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    return strprintf(
        "events %zu %016llx | violations %zu %016llx | engine %llu %llu "
        "%llu %llu %llu %llu %d %016llx | ladder %llu %llu %llu %llu | "
        "report %016llx | metrics %016llx | trace %016llx",
        r.faultEvents.size(), u(fnv1a(r.faultEvents)),
        r.violations.size(), u(fnv1a(r.violations)),
        u(r.engine.elapsed), u(r.engine.busBusy), u(r.engine.faultedRefs),
        u(r.engine.watchdogTrips), u(r.engine.quarantines),
        u(r.engine.reintegrations), r.engine.cancelled ? 1 : 0,
        u(fnv1a(procs)), u(r.watchdogTrips), u(r.quarantines),
        u(r.reintegrations), u(r.scrubDivergence),
        u(fnv1a(r.faultReport)), u(fnv1a(renderMetricsJson(r.metrics))),
        u(fnv1a(trace)));
}

/**
 * A model-checker trace, one line per step: "cache.line Event" then
 * every choice the step drew as cCACHE:IDX/ALTS (mc_explore's trace
 * format).
 */
inline std::string
renderSteps(const std::vector<mc::TraceStep> &steps)
{
    std::string out;
    for (const mc::TraceStep &s : steps) {
        out += strprintf("%u.%u %s", s.event.cache, s.event.line,
                         std::string(localEventName(s.event.ev)).c_str());
        for (const mc::ChoiceRecord &r : s.choices)
            out += strprintf(" c%u:%u/%u", r.cache, r.idx, r.nAlts);
        out += '\n';
    }
    return out;
}

/** Everything a search returns, rendered: the graph, the cut and the
 *  counterexample in mc_explore's trace format, its final state through
 *  `render_state`. */
template <class Result, class RenderState>
std::string
renderExploreResult(const Result &r, RenderState render_state)
{
    std::string out = strprintf(
        "nodes %zu edges %zu depth %zu fp %016llx/%016llx complete %d\n",
        r.nodes, r.edges, r.depth,
        static_cast<unsigned long long>(r.nodeFingerprint),
        static_cast<unsigned long long>(r.edgeFingerprint),
        static_cast<int>(r.complete));
    if (!r.counterexample)
        return out;
    out += renderSteps(r.counterexample->steps);
    for (const std::string &v : r.counterexample->violations)
        out += v + '\n';
    return out + render_state(r.counterexample->finalState) + '\n';
}

/** MOESI whose S also intervenes on a plain read (column 5: S,CH,DI),
 *  so two sharers answer one read with DI. */
inline ProtocolTable
doubleInterventionMoesi()
{
    ProtocolTable t = moesiTable();
    SnoopAction a;
    a.next = toState(State::S);
    a.ch = Tri::Assert;
    a.di = true;
    t.setSnoop(State::S, BusEvent::ReadByCache, {a});
    return t;
}

} // namespace fbsim::test

#endif // FBSIM_TESTS_TEST_UTIL_H_
