#include "mc/differential.h"

#include <deque>
#include <memory>

#include "common/logging.h"
#include "common/random.h"
#include "core/policy.h"
#include "hier/hier_system.h"
#include "sim/system.h"
#include "trace/ref_stream.h"

namespace fbsim {
namespace mc {

namespace {

/** Per-cache Rng streams mirroring the engine's RngChoiceSources. */
class RngFeed : public ChoiceFeed
{
  public:
    RngFeed(std::size_t n, std::uint64_t seed)
    {
        for (std::size_t c = 0; c < n; ++c)
            rngs_.emplace_back(cacheSeed(seed, c));
    }

    static std::uint64_t
    cacheSeed(std::uint64_t seed, std::size_t cache)
    {
        return seed ^ ((cache + 1) * 0x9e3779b97f4a7c15ull);
    }

    std::size_t
    pick(std::size_t cache, std::size_t n_alts) override
    {
        return static_cast<std::size_t>(rngs_[cache].below(n_alts));
    }

  private:
    std::vector<Rng> rngs_;
};

/** Overwrite the model state with a live system's (stutter resync);
 *  `cacheOf` maps a model cache index to its SnoopingCache. */
template <typename CacheGetter>
void
adoptEngineStateFrom(const ModelConfig &mcfg, ModelState &st,
                     CacheGetter cacheOf, MainMemory &memory,
                     const CoherenceChecker &checker)
{
    for (std::size_t c = 0; c < mcfg.numCaches(); ++c) {
        for (std::size_t l = 0; l < mcfg.lines; ++l) {
            const CacheLine *line = cacheOf(c)->peekLine(l);
            copyAt(mcfg, st, c, l) =
                line ? ModelCopy{line->state, line->data[0]}
                     : ModelCopy{};
        }
    }
    for (std::size_t l = 0; l < mcfg.lines; ++l) {
        st.mem[l] = memory.peekWord(l, 0);
        st.image[l] =
            checker.expected(static_cast<Addr>(l) * kWordBytes);
    }
}

void
adoptEngineState(const ModelConfig &mcfg, System &sys, ModelState &st)
{
    adoptEngineStateFrom(
        mcfg, st,
        [&](std::size_t c) {
            return sys.cacheOf(static_cast<MasterId>(c));
        },
        sys.memory(), sys.checker());
}

/** Uniform seeded read/write references over the model's line space. */
class UniformLineStream : public RefStream
{
  public:
    UniformLineStream(std::size_t lines, std::uint64_t seed)
        : lines_(lines), rng_(seed)
    {
    }

    ProcRef
    next() override
    {
        ProcRef ref;
        ref.addr = static_cast<Addr>(rng_.below(lines_)) * kWordBytes;
        ref.write = rng_.below(4) == 0;
        return ref;
    }

  private:
    std::size_t lines_;
    Rng rng_;
};

} // namespace

DiffResult
runDifferential(const DiffConfig &cfg)
{
    DiffResult res;
    ModelConfig mcfg;
    mcfg.tables = cfg.tables;
    mcfg.lines = cfg.lines;
    mcfg.maxBusRetries = cfg.maxBusRetries;
    const std::size_t n = mcfg.numCaches();

    SystemConfig sc;
    sc.lineBytes = kWordBytes;
    sc.maxBusRetries = cfg.maxBusRetries;
    sc.checkEveryAccess = true;
    sc.quarantineOnWatchdog = false;
    if (cfg.faults) {
        FaultConfig fc;
        fc.seed = cfg.seed;
        // Timing-only sites: they perturb when transactions complete,
        // never what data they carry.
        fc.spuriousAbort.probability = 0.05;
        // Storms outlast the retry budget, so some accesses come back
        // faulted and the stutter-resync path is genuinely exercised.
        fc.abortStormProb = 0.05;
        fc.abortStormLength = cfg.maxBusRetries + 4;
        fc.memoryDelay.probability = 0.05;
        fc.memoryDrop.probability = 0.02;
        sc.faults = fc;
    }
    System sys(sc);

    std::deque<RngChoiceSource> sources;
    for (std::size_t c = 0; c < n; ++c) {
        CacheSpec spec;
        spec.table = cfg.tables[c];
        spec.numSets = 1;
        spec.assoc = cfg.lines;
        if (!cfg.faults) {
            sources.emplace_back(RngFeed::cacheSeed(cfg.seed, c));
            RngChoiceSource &src = sources.back();
            spec.makeChooser = [&src] {
                return std::make_unique<SequenceChooser>(src);
            };
        }
        // Faults on: the default PreferredChooser, whose draws are
        // position-independent, so fault-induced retry rounds cannot
        // shift any choice tape.
        sys.addCache(spec);
    }

    std::unique_ptr<ChoiceFeed> feed;
    if (cfg.faults)
        feed = std::make_unique<PreferredFeed>();
    else
        feed = std::make_unique<RngFeed>(n, cfg.seed);

    auto systemRender = [&] {
        std::string out;
        for (std::size_t l = 0; l < cfg.lines; ++l)
            out += sys.checker().describeLine(l);
        return out;
    };

    ModelState mst = initialState(mcfg);
    Rng driver(cfg.seed * 0x2545f4914f6cdd1dull + 0xb5297a4d3u);

    for (std::size_t i = 0; i < cfg.steps; ++i) {
        std::vector<ModelEvent> events = legalEvents(mcfg, mst);
        const ModelEvent ev = events[driver.below(events.size())];
        const Addr addr = static_cast<Addr>(ev.line) * kWordBytes;
        const auto id = static_cast<MasterId>(ev.cache);

        Word wval = 0;
        if (ev.ev == LocalEvent::Write)
            wval = nextWriteValue(mst, ev.line);

        AccessOutcome out;
        switch (ev.ev) {
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
        ++res.stepsRun;

        if (out.faulted) {
            fbsim_assert(cfg.faults);
            // Stutter: the model cannot express the half-completed
            // transaction; adopt the engine's state and carry on.
            ++res.faultedSteps;
            adoptEngineState(mcfg, sys, mst);
            continue;
        }

        StepResult mr = stepModel(mcfg, mst, ev, *feed, nullptr);
        if (!mr.ok) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "step %zu: model rejected the transition the engine "
                "executed: %s",
                i,
                mr.violations.empty() ? "?"
                                      : mr.violations[0].c_str()));
            break;
        }
        if (ev.ev == LocalEvent::Read && out.value != mr.value) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "step %zu: engine read 0x%llx, model read 0x%llx", i,
                static_cast<unsigned long long>(out.value),
                static_cast<unsigned long long>(mr.value)));
        }
        std::string mrender = renderStateVector(mcfg, mst);
        std::string srender = systemRender();
        if (mrender != srender) {
            res.ok = false;
            res.errors.push_back(
                strprintf("step %zu: state vectors diverge\n"
                          "  model :%s\n  system:%s",
                          i, mrender.c_str(), srender.c_str()));
        }
        if (res.errors.size() >= 5)
            break;
    }

    if (!sys.violations().empty()) {
        res.ok = false;
        res.errors.push_back("engine recorded checker violations: " +
                             sys.violations()[0]);
    }
    return res;
}

DiffResult
runHierDifferential(const HierDiffConfig &cfg)
{
    DiffResult res;
    HierModelConfig mcfg;
    mcfg.base.tables = cfg.tables;
    mcfg.base.lines = cfg.lines;
    mcfg.base.maxBusRetries = cfg.maxBusRetries;
    const std::size_t n = mcfg.base.numCaches();
    for (std::size_t c = 0; c < n; ++c) {
        mcfg.clusterOf.push_back(
            static_cast<std::uint8_t>(c % cfg.clusters));
    }

    HierConfig hc;
    hc.lineBytes = kWordBytes;
    hc.maxBusRetries = cfg.maxBusRetries;
    hc.checkEveryAccess = true;
    hc.quarantineOnWatchdog = false;
    if (cfg.faults) {
        FaultConfig fc;
        fc.seed = cfg.seed;
        // Hier-safe timing-only sites (see HierDiffConfig).  Storms
        // outlast the retry budget so faulted accesses genuinely
        // exercise the stutter-resync path across the bridge.
        fc.spuriousAbort.probability = 0.03;
        fc.abortStormProb = 0.03;
        fc.abortStormLength = cfg.maxBusRetries + 4;
        fc.memoryDelay.probability = 0.05;
        fc.memoryDrop.probability = 0.02;
        fc.bridgeDrop.probability = 0.05;
        fc.bridgeDelay.probability = 0.05;
        fc.bridgeDup.probability = 0.03;
        fc.leafStall.probability = 0.002;
        fc.leafStallForwards = 6;
        hc.faults = fc;
    }
    HierSystem sys(hc, cfg.clusters);

    std::deque<RngChoiceSource> sources;
    for (std::size_t c = 0; c < n; ++c) {
        CacheSpec spec;
        spec.table = cfg.tables[c];
        spec.numSets = 1;
        spec.assoc = cfg.lines;
        if (!cfg.faults) {
            sources.emplace_back(RngFeed::cacheSeed(cfg.seed, c));
            RngChoiceSource &src = sources.back();
            spec.makeChooser = [&src] {
                return std::make_unique<SequenceChooser>(src);
            };
        }
        sys.addCache(c % cfg.clusters, spec);
    }

    std::unique_ptr<ChoiceFeed> feed;
    if (cfg.faults)
        feed = std::make_unique<PreferredFeed>();
    else
        feed = std::make_unique<RngFeed>(n, cfg.seed);

    // Both renders cover the full observable state: the checker's
    // per-line vector plus every bridge's filter bits, in the model's
    // renderHierFilters format.
    auto systemRender = [&] {
        std::string out;
        for (std::size_t l = 0; l < cfg.lines; ++l)
            out += sys.checker().describeLine(l);
        for (std::size_t l = 0; l < cfg.lines; ++l) {
            out += strprintf(" | flt 0x%llx:",
                             static_cast<unsigned long long>(l));
            for (std::size_t k = 0; k < cfg.clusters; ++k) {
                const BusBridge &b = sys.bridge(k);
                out += strprintf(
                    " b%zu:%c%c", k, b.mayBeLocal(l) ? 'L' : '-',
                    b.mayBeRemote(l) ? 'R' : '-');
            }
        }
        return out;
    };
    auto adoptHierState = [&](HierModelState &st) {
        adoptEngineStateFrom(
            mcfg.base, st.flat,
            [&](std::size_t c) {
                return sys.cacheOf(static_cast<MasterId>(c));
            },
            sys.memory(), sys.checker());
        for (std::size_t k = 0; k < cfg.clusters; ++k) {
            const BusBridge &b = sys.bridge(k);
            for (std::size_t l = 0; l < cfg.lines; ++l) {
                st.localHeld[k * cfg.lines + l] = b.mayBeLocal(l);
                st.remoteShared[k * cfg.lines + l] = b.mayBeRemote(l);
            }
        }
    };

    HierModelState mst = initialHierState(mcfg);
    Rng driver(cfg.seed * 0x2545f4914f6cdd1dull + 0xb5297a4d3u);

    for (std::size_t i = 0; i < cfg.steps; ++i) {
        std::vector<ModelEvent> events = legalHierEvents(mcfg, mst);
        const ModelEvent ev = events[driver.below(events.size())];
        const Addr addr = static_cast<Addr>(ev.line) * kWordBytes;
        const auto id = static_cast<MasterId>(ev.cache);

        Word wval = 0;
        if (ev.ev == LocalEvent::Write)
            wval = nextWriteValue(mst.flat, ev.line);

        AccessOutcome out;
        switch (ev.ev) {
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
        ++res.stepsRun;

        if (out.faulted) {
            fbsim_assert(cfg.faults);
            // Stutter: a half-completed transaction may have advanced
            // remote clusters and filters; resync everything.
            ++res.faultedSteps;
            adoptHierState(mst);
            continue;
        }

        StepResult mr = stepHierModel(mcfg, mst, ev, *feed, nullptr);
        if (!mr.ok) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "step %zu: hier model rejected the transition the "
                "engine executed: %s",
                i,
                mr.violations.empty() ? "?"
                                      : mr.violations[0].c_str()));
            break;
        }
        if (ev.ev == LocalEvent::Read && out.value != mr.value) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "step %zu: engine read 0x%llx, model read 0x%llx", i,
                static_cast<unsigned long long>(out.value),
                static_cast<unsigned long long>(mr.value)));
        }
        std::string mrender = renderHierStateVector(mcfg, mst);
        std::string srender = systemRender();
        if (mrender != srender) {
            res.ok = false;
            res.errors.push_back(
                strprintf("step %zu: state vectors diverge\n"
                          "  model :%s\n  system:%s",
                          i, mrender.c_str(), srender.c_str()));
        }
        if (res.errors.size() >= 5)
            break;
    }

    if (!sys.violations().empty()) {
        res.ok = false;
        res.errors.push_back("engine recorded checker violations: " +
                             sys.violations()[0]);
    }
    return res;
}

DiffResult
runEngineDifferential(const EngineDiffConfig &cfg)
{
    DiffResult res;
    const std::size_t n = cfg.tables.size();

    SystemConfig sc;
    sc.lineBytes = kWordBytes;
    System sys(sc);
    for (std::size_t c = 0; c < n; ++c) {
        CacheSpec spec;
        spec.table = cfg.tables[c];
        spec.numSets = 1;
        spec.assoc = cfg.lines;
        sys.addCache(spec);
    }
    std::vector<std::unique_ptr<UniformLineStream>> streams;
    std::vector<RefStream *> raw;
    for (std::size_t c = 0; c < n; ++c) {
        streams.push_back(std::make_unique<UniformLineStream>(
            cfg.lines, RngFeed::cacheSeed(cfg.seed, c)));
        raw.push_back(streams.back().get());
    }

    std::vector<EngineAccess> log;
    EngineConfig ec;
    ec.ordering = cfg.ordering;
    ec.accessLog = &log;
    Engine engine(sys, ec);
    engine.run(raw, cfg.refsPerProc);
    res.stepsRun = 1;

    std::string render;
    for (std::size_t l = 0; l < cfg.lines; ++l)
        render += sys.checker().describeLine(l);
    if (!sys.violations().empty()) {
        res.ok = false;
        res.errors.push_back("engine recorded checker violations: " +
                             sys.violations()[0]);
        return res;
    }

    // Replay the run's functional order against the abstract model.
    // The model's next write on a line stores image+1, so seeding
    // image to the engine's value-1 makes both sides store the same
    // word.
    ModelConfig mcfg;
    mcfg.tables = cfg.tables;
    mcfg.lines = cfg.lines;
    ModelState mst = initialState(mcfg);
    PreferredFeed feed;
    std::vector<std::uint64_t> wseq(n, 0);
    for (std::size_t k = 0; k < log.size(); ++k) {
        const EngineAccess &a = log[k];
        ModelEvent ev;
        ev.cache = static_cast<std::uint8_t>(a.proc);
        ev.line = static_cast<std::uint8_t>(a.addr / kWordBytes);
        ev.ev = a.write ? LocalEvent::Write : LocalEvent::Read;
        if (a.write) {
            mst.image[ev.line] =
                Engine::writeValue(a.proc, ++wseq[a.proc]) - 1;
        }
        StepResult mr = stepModel(mcfg, mst, ev, feed, nullptr);
        if (!mr.ok) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "replay step %zu: model rejected the transition the "
                "engine executed: %s",
                k,
                mr.violations.empty() ? "?" : mr.violations[0].c_str()));
            break;
        }
    }
    if (res.ok) {
        std::string mrender = renderStateVector(mcfg, mst);
        if (mrender != render) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "replayed model state diverges from the engine\n"
                "  model :%s\n  engine:%s",
                mrender.c_str(), render.c_str()));
        }
    }
    return res;
}

} // namespace mc
} // namespace fbsim
