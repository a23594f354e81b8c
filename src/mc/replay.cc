#include "mc/replay.h"

#include <deque>
#include <memory>

#include "common/logging.h"
#include "core/policy.h"
#include "mc/executor.h"
#include "sim/system.h"

namespace fbsim {
namespace mc {

ReplayResult
replayTrace(const ModelConfig &cfg,
            const std::vector<TraceStep> &steps, bool expect_violation)
{
    ReplayResult res;
    const std::size_t n = cfg.numCaches();

    // Split the global choice stream into per-cache scripts: the bus
    // serializes everything, so each cache's chooser consultations
    // happen in exactly the order the model logged picks for it.
    std::vector<std::vector<std::uint8_t>> scripts(n);
    for (const TraceStep &step : steps) {
        for (const ChoiceRecord &r : step.choices)
            scripts[r.cache].push_back(r.idx);
    }

    SystemConfig sc;
    sc.lineBytes = kWordBytes;           // one word per line
    sc.maxBusRetries = cfg.maxBusRetries;
    sc.checkEveryAccess = true;
    sc.quarantineOnWatchdog = false;
    System sys(sc);

    std::deque<ScriptChoiceSource> sources;
    for (std::size_t c = 0; c < n; ++c) {
        sources.emplace_back(scripts[c]);
        ScriptChoiceSource &src = sources.back();
        CacheSpec spec;
        spec.table = cfg.tables[c];
        spec.numSets = 1;
        spec.assoc = cfg.lines;
        spec.makeChooser = [&src] {
            return std::make_unique<SequenceChooser>(src);
        };
        sys.addCache(spec);
    }

    auto systemRender = [&] {
        std::string out;
        for (std::size_t l = 0; l < cfg.lines; ++l)
            out += sys.checker().describeLine(l);
        return out;
    };

    ModelState mst = initialState(cfg);
    std::size_t violations_seen = 0;

    for (std::size_t i = 0; i < steps.size(); ++i) {
        const TraceStep &step = steps[i];
        const Addr addr =
            static_cast<Addr>(step.event.line) * kWordBytes;
        const auto id = static_cast<MasterId>(step.event.cache);

        // Model side first (it defines the write value).
        Word wval = 0;
        if (step.event.ev == LocalEvent::Write)
            wval = nextWriteValue(mst, step.event.line);
        RecordedFeed feed(step.choices);
        StepResult mr = stepModel(cfg, mst, step.event, feed, nullptr);
        ++res.stepsRun;
        if (!feed.fullyConsumed()) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "step %zu: model consumed fewer choices than "
                "recorded", i));
        }
        if (!mr.ok) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "step %zu: trace is not engine-replayable (illegal "
                "transition): %s",
                i,
                mr.violations.empty() ? "?"
                                      : mr.violations[0].c_str()));
            return res;
        }

        // Engine side.
        AccessOutcome out;
        switch (step.event.ev) {
          case LocalEvent::Read:
            out = sys.read(id, addr);
            break;
          case LocalEvent::Write:
            out = sys.write(id, addr, wval);
            break;
          case LocalEvent::Pass:
            out = sys.flush(id, addr, /*keep_copy=*/true);
            break;
          case LocalEvent::Flush:
            out = sys.flush(id, addr, /*keep_copy=*/false);
            break;
        }
        if (out.faulted) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "step %zu: fault-free engine access faulted", i));
        }
        if (step.event.ev == LocalEvent::Read && out.value != mr.value) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "step %zu: engine read 0x%llx, model read 0x%llx", i,
                static_cast<unsigned long long>(out.value),
                static_cast<unsigned long long>(mr.value)));
        }

        // State vectors must agree byte-for-byte.
        std::string mrender = renderStateVector(cfg, mst);
        std::string srender = systemRender();
        if (mrender != srender) {
            res.ok = false;
            res.errors.push_back(
                strprintf("step %zu: state vectors diverge\n"
                          "  model :%s\n  system:%s",
                          i, mrender.c_str(), srender.c_str()));
        }

        // Per-access checker verdicts: only the final step of a
        // counterexample may (and must) introduce violations.
        const std::size_t now = sys.violations().size();
        const bool last = i + 1 == steps.size();
        if (now > violations_seen && !(expect_violation && last)) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "step %zu: unexpected violation: %s", i,
                sys.violations()[violations_seen].c_str()));
        }
        violations_seen = now;
    }

    for (const std::string &v : sys.violations())
        res.systemViolations.push_back(v);
    for (std::size_t c = 0; c < n; ++c) {
        if (sources[c].overruns() != 0) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "cache %zu: %zu script overruns", c,
                sources[c].overruns()));
        }
        if (sources[c].consumed() != scripts[c].size()) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "cache %zu: consumed %zu of %zu scripted choices", c,
                sources[c].consumed(), scripts[c].size()));
        }
    }
    if (expect_violation && sys.violations().empty()) {
        res.ok = false;
        res.errors.push_back(
            "counterexample replay produced no violation in the "
            "live system");
    }
    return res;
}

} // namespace mc
} // namespace fbsim
