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

/** Overwrite the model state with a live system's (stutter resync). */
void
adoptEngineState(const ModelConfig &mcfg, Fabric &sys, ModelState &st)
{
    for (std::size_t c = 0; c < mcfg.numCaches(); ++c) {
        for (std::size_t l = 0; l < mcfg.lines; ++l) {
            const CacheLine *line =
                sys.cacheOf(static_cast<MasterId>(c))->peekLine(l);
            copyAt(mcfg, st, c, l) =
                line ? ModelCopy{line->state, line->data[0]}
                     : ModelCopy{};
        }
    }
    for (std::size_t l = 0; l < mcfg.lines; ++l) {
        st.mem[l] = sys.memory().peekWord(l, 0);
        st.image[l] =
            sys.checker().expected(static_cast<Addr>(l) * kWordBytes);
    }
}

/** The checker's per-line state vector over the first `lines` lines. */
std::string
checkerRender(Fabric &sys, std::size_t lines)
{
    std::string out;
    for (std::size_t l = 0; l < lines; ++l)
        out += sys.checker().describeLine(l);
    return out;
}

/** Engine-side settings both lockstep walks use. */
void
lockstepConfig(FabricConfig &config, unsigned max_bus_retries)
{
    config.lineBytes = kWordBytes;
    config.maxBusRetries = max_bus_retries;
    config.checkEveryAccess = true;
    config.quarantineOnWatchdog = false;
}

/**
 * Cache c of a lockstep walk: its table over `lines` ways and, when
 * fault-free, a SequenceChooser over the per-cache stream the model's
 * RngFeed mirrors (kept alive in `sources`, which must outlive the
 * system).  With faults on it keeps
 * the default PreferredChooser, whose draws are position-independent,
 * so fault-induced retry rounds cannot shift any choice tape.
 */
CacheSpec
lockstepCache(const std::vector<const ProtocolTable *> &tables,
              std::size_t c, std::size_t lines, std::uint64_t seed,
              bool faults, std::deque<RngChoiceSource> &sources)
{
    CacheSpec spec;
    spec.table = tables[c];
    spec.numSets = 1;
    spec.assoc = lines;
    if (!faults) {
        sources.emplace_back(RngFeed::cacheSeed(seed, c));
        RngChoiceSource &src = sources.back();
        spec.makeChooser = [&src] {
            return std::make_unique<SequenceChooser>(src);
        };
    }
    return spec;
}

/**
 * The seeded lockstep walk both differentials share.  Each step draws
 * a legal model event, executes it on the live fabric, then steps the
 * model and compares the read value and the full renders.  `Model` is
 * the abstract half over its live system `sys`: kName, legal(),
 * nextWrite(line), step(ev, feed), render(), systemRender() and
 * resync() (adopt the engine's state after a faulted, half-completed
 * access).
 */
template <typename Model>
DiffResult
lockstepWalk(Model &model, std::size_t steps, std::uint64_t seed,
             bool faults)
{
    DiffResult res;
    Fabric &sys = model.sys;
    // The model's feed mirrors lockstepCache's choosers.
    std::unique_ptr<ChoiceFeed> feed;
    if (faults)
        feed = std::make_unique<PreferredFeed>();
    else
        feed = std::make_unique<RngFeed>(sys.numClients(), seed);
    Rng driver(seed * 0x2545f4914f6cdd1dull + 0xb5297a4d3u);

    for (std::size_t i = 0; i < steps; ++i) {
        std::vector<ModelEvent> events = model.legal();
        const ModelEvent ev = events[driver.below(events.size())];
        const Addr addr = static_cast<Addr>(ev.line) * kWordBytes;
        const auto id = static_cast<MasterId>(ev.cache);

        Word wval = 0;
        if (ev.ev == LocalEvent::Write)
            wval = model.nextWrite(ev.line);

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
            fbsim_assert(faults);
            // Stutter: the model cannot express the half-completed
            // transaction; adopt the engine's state and carry on.
            ++res.faultedSteps;
            model.resync();
            continue;
        }

        StepResult mr = model.step(ev, *feed);
        if (!mr.ok) {
            res.ok = false;
            res.errors.push_back(strprintf(
                "step %zu: %s rejected the transition the engine "
                "executed: %s",
                i, Model::kName,
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
        std::string mrender = model.render();
        std::string srender = model.systemRender();
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

/** The flat model half of a lockstep walk. */
struct FlatModel
{
    static constexpr const char *kName = "model";

    const ModelConfig &cfg;
    System &sys;
    ModelState st = initialState(cfg);

    std::vector<ModelEvent> legal() const { return legalEvents(cfg, st); }
    Word nextWrite(std::size_t line) const
    { return nextWriteValue(st, line); }
    StepResult step(const ModelEvent &ev, ChoiceFeed &feed)
    { return stepModel(cfg, st, ev, feed, nullptr); }
    std::string render() const { return renderStateVector(cfg, st); }
    std::string systemRender() const
    { return checkerRender(sys, cfg.lines); }
    void resync() { adoptEngineState(cfg, sys, st); }
};

/** The hierarchical model half: state vector plus bridge filters. */
struct HierModel
{
    static constexpr const char *kName = "hier model";

    const HierModelConfig &cfg;
    HierSystem &sys;
    HierModelState st = initialHierState(cfg);

    std::vector<ModelEvent> legal() const
    { return legalHierEvents(cfg, st); }
    Word nextWrite(std::size_t line) const
    { return nextWriteValue(st.flat, line); }
    StepResult step(const ModelEvent &ev, ChoiceFeed &feed)
    { return stepHierModel(cfg, st, ev, feed, nullptr); }
    std::string render() const { return renderHierStateVector(cfg, st); }

    /** The checker's vector plus every bridge's filter bits, in the
     *  model's renderHierFilters format. */
    std::string
    systemRender() const
    {
        const std::size_t lines = cfg.base.lines;
        std::string out = checkerRender(sys, lines);
        for (std::size_t l = 0; l < lines; ++l) {
            out += strprintf(" | flt 0x%llx:",
                             static_cast<unsigned long long>(l));
            for (std::size_t k = 0; k < sys.numClusters(); ++k) {
                const BusBridge &b = sys.bridge(k);
                out += strprintf(
                    " b%zu:%c%c", k, b.mayBeLocal(l) ? 'L' : '-',
                    b.mayBeRemote(l) ? 'R' : '-');
            }
        }
        return out;
    }

    /** A half-completed transaction may have advanced remote clusters
     *  and filters; resync everything. */
    void
    resync()
    {
        const std::size_t lines = cfg.base.lines;
        adoptEngineState(cfg.base, sys, st.flat);
        for (std::size_t k = 0; k < sys.numClusters(); ++k) {
            const BusBridge &b = sys.bridge(k);
            for (std::size_t l = 0; l < lines; ++l) {
                st.localHeld[k * lines + l] = b.mayBeLocal(l);
                st.remoteShared[k * lines + l] = b.mayBeRemote(l);
            }
        }
    }
};

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
    ModelConfig mcfg;
    mcfg.tables = cfg.tables;
    mcfg.lines = cfg.lines;
    mcfg.maxBusRetries = cfg.maxBusRetries;
    const std::size_t n = mcfg.numCaches();

    SystemConfig sc;
    lockstepConfig(sc, cfg.maxBusRetries);
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
    std::deque<RngChoiceSource> sources;
    System sys(sc);
    for (std::size_t c = 0; c < n; ++c) {
        sys.addCache(lockstepCache(cfg.tables, c, cfg.lines, cfg.seed,
                                   cfg.faults, sources));
    }

    FlatModel model{mcfg, sys};
    return lockstepWalk(model, cfg.steps, cfg.seed, cfg.faults);
}

DiffResult
runHierDifferential(const HierDiffConfig &cfg)
{
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
    lockstepConfig(hc, cfg.maxBusRetries);
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
    std::deque<RngChoiceSource> sources;
    HierSystem sys(hc, cfg.clusters);
    for (std::size_t c = 0; c < n; ++c) {
        sys.addCache(c % cfg.clusters,
                     lockstepCache(cfg.tables, c, cfg.lines, cfg.seed,
                                   cfg.faults, sources));
    }

    HierModel model{mcfg, sys};
    return lockstepWalk(model, cfg.steps, cfg.seed, cfg.faults);
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

    const std::string render = checkerRender(sys, cfg.lines);
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
