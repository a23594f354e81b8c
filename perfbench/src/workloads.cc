#include "workloads.h"

#include <sstream>

#include "campaign/campaign_runner.h"
#include "common/random.h"
#include "hier/hier_engine.h"
#include "mc/explorer.h"
#include "mc/hier_model.h"
#include "obs/perfetto_sink.h"
#include "protocols/factory.h"
#include "sim/engine.h"
#include "sim/system.h"
#include "text/report.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

using namespace fbsim;

namespace perfbench {
namespace {

// ---------------------------------------------------------------- //
// Digests of the simulated statistics.

void
digestEngine(Digest &d, const EngineResult &r)
{
    d.u64(r.elapsed);
    d.u64(r.busBusy);
    d.u64(r.faultedRefs);
    d.u64(r.watchdogTrips);
    d.u64(r.quarantines);
    d.u64(r.reintegrations);
    d.u64(r.cancelled);
    for (const ProcTiming &p : r.procs) {
        d.u64(p.refs);
        d.u64(p.finishTime);
        d.u64(p.execCycles);
        d.u64(p.busWaitCycles);
        d.u64(p.busServiceCycles);
    }
}

void
digestBus(Digest &d, const BusStats &b)
{
    for (std::uint64_t v :
         {b.transactions, b.reads, b.readsForModify, b.wordWrites,
          b.broadcastWrites, b.linePushes, b.invalidates, b.syncs,
          b.interventions, b.writeCaptures, b.aborts, b.spuriousAborts,
          b.droppedResponses, b.retryExhausted, b.responseConflicts,
          b.addressCycles, b.dataWords, b.busyCycles, b.backoffCycles})
        d.u64(v);
}

void
digestCache(Digest &d, const CacheStats &c)
{
    for (std::uint64_t v :
         {c.reads, c.writes, c.readHits, c.writeHits, c.readMisses,
          c.writeMisses, c.writeSharedBus, c.evictions, c.writebacks,
          c.invalidationsRecv, c.updatesRecv, c.interventions,
          c.writeCaptures, c.abortPushes, c.dirtyFills,
          c.faultedAccesses, c.illegalSnoops})
        d.u64(v);
}

void
digestSnapshot(Digest &d, const MetricsSnapshot &s)
{
    for (const MetricEntry &e : s.entries) {
        d.str(e.name);
        d.u64(static_cast<std::uint64_t>(e.kind));
        d.u64(e.value);
        d.u64(e.hist.count);
        d.u64(e.hist.sum);
        d.u64(e.hist.min);
        d.u64(e.hist.max);
        for (std::uint64_t b : e.hist.buckets)
            d.u64(b);
    }
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

/** Host-time a callable, in nanoseconds. */
template <typename F>
double
timeNs(F &&f)
{
    std::int64_t t0 = nowNs();
    f();
    return static_cast<double>(nowNs() - t0);
}

/**
 * Benchmark-side RefStream decorator: the time spent generating
 * references, summed in place (traced units only).
 */
class TimedStream : public RefStream
{
  public:
    explicit TimedStream(RefStream &inner) : inner_(inner) {}

    ProcRef
    next() override
    {
        std::int64_t t0 = nowNs();
        ProcRef r = inner_.next();
        ns += nowNs() - t0;
        ++calls;
        return r;
    }

    void
    nextBatch(ProcRef *out, std::size_t n) override
    {
        std::int64_t t0 = nowNs();
        inner_.nextBatch(out, n);
        ns += nowNs() - t0;
        ++calls;
    }

    std::int64_t ns = 0;
    std::uint64_t calls = 0;

  private:
    RefStream &inner_;
};

// ---------------------------------------------------------------- //
// Engine workloads: one fresh System per unit, driven by the default
// (Strict) Engine for a fixed number of references per processor.

class EngineWorkload : public Workload
{
  public:
    const char *workName() const override { return "refs"; }

    void
    prepare() override
    {
        {
            SpanScope span("sim.build");
            sys_ = build();
        }
        streams_ = makeStreams();
        timed_.clear();
        raw_.clear();
        for (auto &s : streams_) {
            if (tracer().on) {
                timed_.push_back(std::make_unique<TimedStream>(*s));
                raw_.push_back(timed_.back().get());
            } else {
                raw_.push_back(s.get());
            }
        }
    }

    void
    run() override
    {
        SpanScope span("sim.engine_run");
        std::int64_t start = nowNs();
        EngineConfig cfg;
        spec_ = {};
        if (tracer().on)
            cfg.specStats = &spec_;
        Engine engine(*sys_, cfg);
        result_ = engine.run(raw_, refsPerProc_);
        if (!timed_.empty()) {
            std::int64_t ns = 0;
            std::uint64_t calls = 0;
            for (const auto &t : timed_) {
                ns += t->ns;
                calls += t->calls;
            }
            tracer().aggregate("trace.gen", start, ns, calls);
        }
    }

    UnitResult
    check(std::uint64_t unit) override
    {
        UnitResult r;
        std::vector<std::string> audit;
        {
            SpanScope span("checker.audit");
            audit = sys_->checkNow();
        }
        if (!sys_->violations().empty())
            r.fail("checker: " + sys_->violations().front());
        if (!audit.empty())
            r.fail("audit: " + audit.front());
        if (unit % kInterleavedEvery == 0)
            compareInterleaved(r);

        Digest d;
        digestEngine(d, result_);
        digestBus(d, sys_->bus().stats());
        for (MasterId id = 0; id < sys_->numClients(); ++id)
            digestCache(d, sys_->cacheOf(id)->stats());
        r.digest = d.value();
        r.work = refs();
        if (tracer().on)
            recordCounts();
        return r;
    }

    void
    layers(Metrics &out) override
    {
        const Tracer &t = tracer();
        double traced_refs =
            static_cast<double>(t.durations("sim.engine_run").size()) *
            static_cast<double>(refs());
        out["trace.gen_ns_per_ref"] =
            ratio(t.selfSum("trace.gen"), traced_refs);
        out["sim.engine_ns_per_ref"] =
            ratio(t.selfSum("sim.engine_run"), traced_refs);
        out["sim.build_us"] = median(t.durations("sim.build")) / 1e3;
        out["checker.audit_ms"] =
            median(t.durations("checker.audit")) / 1e6;
        for (const auto &[name, value] : counts_)
            out[name] = value;

        // The same unit under the other two orderings.
        std::vector<double> strict, interleaved, perline;
        for (int k = 0; k < kReruns; ++k) {
            strict.push_back(timedRerun(EngineOrdering::Strict,
                                        "sim.rerun_strict"));
            interleaved.push_back(timedRerun(
                EngineOrdering::Interleaved, "sim.rerun_interleaved"));
            perline.push_back(timedRerun(EngineOrdering::PerLine,
                                         "sim.rerun_perline"));
        }
        out["sim.strict_over_interleaved"] =
            ratio(median(strict), median(interleaved));
        out["sim.strict_over_perline"] =
            ratio(median(strict), median(perline));

        replayAccessLog(out);
    }

  protected:
    EngineWorkload(std::vector<CacheSpec> caches,
                   std::uint64_t refs_per_proc)
        : caches_(std::move(caches)), refsPerProc_(refs_per_proc)
    {
    }

    virtual std::vector<std::unique_ptr<RefStream>> makeStreams() = 0;

    std::unique_ptr<System>
    build() const
    {
        auto sys = std::make_unique<System>(SystemConfig{});
        for (const CacheSpec &spec : caches_)
            sys->addCache(spec);
        return sys;
    }

    std::uint64_t refs() const { return refsPerProc_ * caches_.size(); }

  private:
    /** Every Nth unit is re-run under Interleaved (not timed). */
    static constexpr std::uint64_t kInterleavedEvery = 16;
    static constexpr int kReruns = 5;

    static std::vector<RefStream *>
    rawOf(const std::vector<std::unique_ptr<RefStream>> &streams)
    {
        std::vector<RefStream *> raw;
        for (const auto &s : streams)
            raw.push_back(s.get());
        return raw;
    }

    void
    compareInterleaved(UnitResult &r)
    {
        auto sys = build();
        auto streams = makeStreams();
        EngineConfig cfg;
        cfg.ordering = EngineOrdering::Interleaved;
        EngineResult ref = Engine(*sys, cfg).run(rawOf(streams),
                                                 refsPerProc_);
        if (!(ref == result_))
            r.fail("strict vs interleaved: EngineResult differs");
        if (!(sys->bus().stats() == sys_->bus().stats()))
            r.fail("strict vs interleaved: BusStats differ");
        for (MasterId id = 0; id < sys->numClients(); ++id) {
            if (!(sys->cacheOf(id)->stats() == sys_->cacheOf(id)->stats()))
                r.fail("strict vs interleaved: CacheStats differ");
        }
    }

    void
    recordCounts()
    {
        const double n = static_cast<double>(refs());
        CacheStats caches;
        for (MasterId id = 0; id < sys_->numClients(); ++id)
            caches += sys_->cacheOf(id)->stats();
        const BusStats &bus = sys_->bus().stats();
        const SnoopFilterStats &filter = sys_->bus().filterStats();
        const auto txns = static_cast<double>(bus.transactions);
        counts_["sim.spec_share"] =
            ratio(static_cast<double>(spec_.specRefs), n);
        counts_["sim.rollback_refs_per_ref"] =
            ratio(static_cast<double>(spec_.rolledBackRefs), n);
        counts_["cache.local_share"] = ratio(
            static_cast<double>(caches.readHits + caches.writeHits),
            static_cast<double>(caches.reads + caches.writes));
        counts_["bus.txn_per_ref"] = ratio(txns, n);
        counts_["bus.snoops_per_txn"] =
            ratio(static_cast<double>(filter.snoopsInvoked), txns);
        counts_["bus.filter_suppressed_share"] = ratio(
            static_cast<double>(filter.snoopsSuppressed),
            static_cast<double>(filter.snoopsInvoked +
                                filter.snoopsSuppressed));
        counts_["bus.aborts_per_ktxn"] =
            ratio(1000.0 * static_cast<double>(bus.aborts), txns);
    }

    double
    timedRerun(EngineOrdering ordering, const char *name)
    {
        auto sys = build();
        auto streams = makeStreams();
        auto raw = rawOf(streams);
        EngineConfig cfg;
        cfg.ordering = ordering;
        SpanScope span(name);
        return timeNs([&] { Engine(*sys, cfg).run(raw, refsPerProc_); });
    }

    /**
     * Replay the unit's functional access log through System::read/
     * write on a fresh system, splitting access time by whether
     * System::wouldUseBus says the access needs the bus.
     */
    void
    replayAccessLog(Metrics &out)
    {
        std::vector<EngineAccess> log;
        {
            auto sys = build();
            auto streams = makeStreams();
            EngineConfig cfg;
            cfg.accessLog = &log;
            Engine(*sys, cfg).run(rawOf(streams), refsPerProc_);
        }
        // Cost of the clock pair itself, subtracted from each sample.
        std::vector<double> empty;
        for (int i = 0; i < 1001; ++i) {
            std::int64_t t0 = nowNs();
            empty.push_back(static_cast<double>(nowNs() - t0));
        }
        const auto clock_ns = static_cast<std::int64_t>(median(empty));

        auto sys = build();
        std::int64_t hit_ns = 0, bus_ns = 0;
        std::uint64_t hits = 0, bus = 0;
        Word value = 0;
        SpanScope span("sim.replay");
        std::int64_t start = nowNs();
        for (const EngineAccess &a : log) {
            bool uses_bus = sys->wouldUseBus(a.proc, a.write, a.addr);
            std::int64_t t0 = nowNs();
            if (a.write)
                sys->write(a.proc, a.addr, ++value);
            else
                sys->read(a.proc, a.addr);
            std::int64_t dt = nowNs() - t0 - clock_ns;
            (uses_bus ? bus_ns : hit_ns) += dt;
            ++(uses_bus ? bus : hits);
        }
        tracer().aggregate("sim.hit_access", start, hit_ns, hits);
        tracer().aggregate("sim.bus_access", start + hit_ns, bus_ns, bus);
        out["sim.hit_access_ns"] = ratio(static_cast<double>(hit_ns),
                                         static_cast<double>(hits));
        out["sim.bus_access_ns"] = ratio(static_cast<double>(bus_ns),
                                         static_cast<double>(bus));
    }

    std::vector<CacheSpec> caches_;
    std::uint64_t refsPerProc_;

    std::unique_ptr<System> sys_;
    std::vector<std::unique_ptr<RefStream>> streams_;
    std::vector<std::unique_ptr<TimedStream>> timed_;
    std::vector<RefStream *> raw_;
    EngineResult result_;
    SpecStats spec_;
    Metrics counts_;
};

CacheSpec
cacheSpec(ProtocolKind kind, std::size_t sets, std::size_t assoc,
          std::uint64_t seed)
{
    CacheSpec spec;
    spec.protocol = kind;
    spec.numSets = sets;
    spec.assoc = assoc;
    spec.seed = seed;
    return spec;
}

/** MOESI steered to invalidate other copies on a shared write. */
CacheSpec
moesiInvalidate(std::size_t sets, std::size_t assoc, std::uint64_t seed)
{
    CacheSpec spec = cacheSpec(ProtocolKind::Moesi, sets, assoc, seed);
    spec.chooser = ChooserKind::Policy;
    spec.policy.sharedWrite = MoesiPolicy::SharedWrite::Invalidate;
    return spec;
}

// arch85-steady: the paper's section 5.2 [Arch85] model in steady
// state - 8 MOESI caches of 64 sets x 2 ways, 5% sharing.
class Arch85Steady : public EngineWorkload
{
  public:
    explicit Arch85Steady(std::uint64_t seed)
        : EngineWorkload(caches(), 20000), seed_(seed)
    {
    }

  protected:
    std::vector<std::unique_ptr<RefStream>>
    makeStreams() override
    {
        return makeArch85Streams(Arch85Params{}, kProcs, seed_);
    }

  private:
    static constexpr std::size_t kProcs = 8;

    static std::vector<CacheSpec>
    caches()
    {
        std::vector<CacheSpec> specs;
        for (std::size_t i = 0; i < kProcs; ++i)
            specs.push_back(cacheSpec(ProtocolKind::Moesi, 64, 2, i + 1));
        return specs;
    }

    std::uint64_t seed_;
};

// sharing-mixed: the section 5.2 sharing kernels side by side on one
// bus of mixed class members (section 3.4), replayed from a text trace
// the benchmark generates from its seed and the program parses.  It is
// the Strict-rollback baseline (run it with fbbench directly) but not a
// BENCHMARK.json workload: on a shared 4-vCPU host its unit time swings
// 1.9x between the host's speed regimes, and its unit-time median
// spread 0.36 IQR/median over 10 seeds, past any allowed bound.
class SharingMixed : public EngineWorkload
{
  public:
    static constexpr std::uint64_t kRefsPerProc = 2000;

    explicit SharingMixed(std::uint64_t seed)
        : EngineWorkload(caches(), kRefsPerProc),
          text_(traceText(seed))
    {
        shards_ = parse();
    }

    void
    layers(Metrics &out) override
    {
        EngineWorkload::layers(out);
        std::vector<double> parse_ns;
        for (int k = 0; k < 5; ++k)
            parse_ns.push_back(timeNs([&] { parse(); }));
        out["trace.parse_ns_per_ref"] =
            median(parse_ns) / static_cast<double>(refs());
    }

  protected:
    std::vector<std::unique_ptr<RefStream>>
    makeStreams() override
    {
        std::vector<std::unique_ptr<RefStream>> streams;
        for (const auto &shard : shards_)
            streams.push_back(std::make_unique<SpanStream>(shard));
        return streams;
    }

  private:
    static constexpr std::size_t kProcs = 8;
    static constexpr std::size_t kLine = 32;

    /** MOESI-update, MOESI-invalidate, Berkeley, Dragon, twice. */
    static std::vector<CacheSpec>
    caches()
    {
        std::vector<CacheSpec> specs;
        for (std::size_t i = 0; i < kProcs; ++i) {
            std::uint64_t seed = i + 1;
            switch (i % 4) {
            case 0:
                specs.push_back(cacheSpec(ProtocolKind::Moesi, 16, 2, seed));
                break;
            case 1:
                specs.push_back(moesiInvalidate(16, 2, seed));
                break;
            case 2:
                specs.push_back(
                    cacheSpec(ProtocolKind::Berkeley, 16, 2, seed));
                break;
            default:
                specs.push_back(cacheSpec(ProtocolKind::Dragon, 16, 2, seed));
                break;
            }
        }
        return specs;
    }

    /**
     * Procs 0-1 ping-pong migratory lines, 2 produces for consumers
     * 3-4, 5-6 read a read-mostly table, and 7 runs [Arch85] at 30%
     * sharing; each kernel has its own address region.
     */
    static std::string
    traceText(std::uint64_t seed)
    {
        std::vector<std::unique_ptr<RefStream>> k(kProcs);
        auto s = [&](std::size_t p) { return Rng::deriveSeed(seed, p); };
        for (std::size_t p = 0; p < 2; ++p)
            k[p] = std::make_unique<PingPongWorkload>(kLine, 4, p, s(p), 2);
        k[2] = std::make_unique<ProducerConsumerWorkload>(kLine, 8, true,
                                                          s(2));
        for (std::size_t p = 3; p < 5; ++p)
            k[p] = std::make_unique<ProducerConsumerWorkload>(kLine, 8,
                                                              false, s(p));
        for (std::size_t p = 5; p < 7; ++p)
            k[p] = std::make_unique<ReadMostlyWorkload>(kLine, 32, 0.02,
                                                        s(p));
        Arch85Params arch;
        arch.pShared = 0.30;
        k[7] = std::make_unique<Arch85Workload>(arch, 7, s(7));
        const Addr region[kProcs] = {1, 1, 2, 2, 2, 3, 3, 4};

        std::vector<TraceRef> trace;
        trace.reserve(kProcs * kRefsPerProc);
        for (std::uint64_t i = 0; i < kRefsPerProc; ++i) {
            for (std::size_t p = 0; p < kProcs; ++p) {
                ProcRef r = k[p]->next();
                trace.push_back({static_cast<MasterId>(p), r.write,
                                 (region[p] << 24) + r.addr});
            }
        }
        std::ostringstream out;
        writeTrace(out, trace);
        return out.str();
    }

    std::vector<std::vector<ProcRef>>
    parse() const
    {
        std::string error;
        std::vector<TraceRef> refs;
        {
            SpanScope span("trace.parse");
            refs = parseTrace(text_, &error);
        }
        if (!error.empty())
            std::fprintf(stderr, "trace parse: %s\n", error.c_str());
        return splitTraceByProc(refs, kProcs);
    }

    std::string text_;
    std::vector<std::vector<ProcRef>> shards_;
};

// ---------------------------------------------------------------- //
// campaign-faulted: a flat and a two-level fault campaign per unit,
// the way studies are run, with their tables and a Perfetto trace
// rendered to memory.  The timed runs use one worker: with two, the
// workers of a unit often failed to overlap on a shared 4-CPU host,
// and the unit-time tail spread past the benchmark's bound.  The
// untimed re-run of the first unit uses two workers and must match
// byte for byte.

class CampaignFaulted : public Workload
{
  public:
    static constexpr unsigned kWorkers = 1;
    static constexpr unsigned kCheckWorkers = 2;

    CampaignFaulted(std::uint64_t seed, const WorkloadOptions &opts)
        : flat_(flatSpec(seed, opts)), hier_(hierSpec(seed))
    {
        // First assembly of both fabrics (static tables included).
        buildFlat();
        buildHier();
    }

    const char *workName() const override { return "jobs"; }

    void prepare() override { sink_ = std::make_unique<PerfettoTraceSink>(); }

    void
    run() override
    {
        std::int64_t t0 = nowNs();
        double cpu0 = processCpuSeconds();
        {
            SpanScope span("campaign.run_flat");
            CampaignRunner runner(kWorkers);
            runner.attachTrace(sink_.get(), 0);
            flatReport_ = runner.run(flat_);
        }
        {
            SpanScope span("campaign.run_hier");
            hierReport_ = CampaignRunner(kWorkers).run(hier_);
        }
        {
            SpanScope span("text.render");
            flatTable_ = renderCampaignTable(flatReport_);
            hierTable_ = renderCampaignTable(hierReport_);
        }
        {
            SpanScope span("obs.render");
            perfetto_ = sink_->render();
        }
        cpuSeconds_ += processCpuSeconds() - cpu0;
        wallSeconds_ += static_cast<double>(nowNs() - t0) * 1e-9;
    }

    UnitResult
    check(std::uint64_t unit) override
    {
        UnitResult r;
        for (const CampaignReport *rep : {&flatReport_, &hierReport_}) {
            for (const CampaignResult &res : rep->results) {
                if (res.status != JobStatus::Ok)
                    r.fail("job status " +
                           std::string(jobStatusName(res.status)));
                if (!res.consistent || !res.violations.empty())
                    r.fail("checker: " + (res.violations.empty()
                                              ? std::string("inconsistent")
                                              : res.violations.front()));
            }
        }
        if (unit == 0)
            compareWorkerCounts(r);

        Digest d;
        d.str(flatTable_);
        d.str(hierTable_);
        d.str(perfetto_);
        digestSnapshot(d, merged(flatReport_));
        digestSnapshot(d, merged(hierReport_));
        r.digest = d.value();
        r.work = flatReport_.results.size() + hierReport_.results.size();
        if (tracer().on)
            recordCounts();
        return r;
    }

    void
    layers(Metrics &out) override
    {
        const Tracer &t = tracer();
        out["text.render_ms"] = median(t.durations("text.render")) / 1e6;
        out["obs.render_ms"] = median(t.durations("obs.render")) / 1e6;
        out["campaign.parallelism"] = ratio(cpuSeconds_, wallSeconds_);
        for (const auto &[name, value] : counts_)
            out[name] = value;

        // Every job once, serially, through runCampaignJob.
        out["campaign.flat_job_ms_p50"] =
            median(serialJobTimes(flat_, "campaign.flat_job")) / 1e6;
        out["campaign.hier_job_ms_p50"] =
            median(serialJobTimes(hier_, "campaign.hier_job")) / 1e6;

        // Flat job 0 against itself without per-access checking,
        // without faults, and with the Perfetto sink attached.
        CampaignSpec unchecked = flat_;
        unchecked.base.checkEveryAccess = false;
        CampaignSpec unfaulted = flat_;
        unfaulted.faultFactory = nullptr;
        std::vector<double> base, off, clean, traced;
        for (int k = 0; k < kReruns; ++k) {
            base.push_back(jobZero(flat_, nullptr, "campaign.job0"));
            off.push_back(jobZero(unchecked, nullptr,
                                  "campaign.job0_unchecked"));
            clean.push_back(jobZero(unfaulted, nullptr,
                                    "campaign.job0_unfaulted"));
            PerfettoTraceSink sink;
            traced.push_back(jobZero(flat_, &sink, "campaign.job0_sink"));
        }
        const double job_refs =
            static_cast<double>(flat_.refsPerProc) *
            static_cast<double>(flat_.mixes[0].slots.size());
        out["checker.per_access_ns"] =
            (median(base) - median(off)) / job_refs;
        out["fault.overhead_share"] =
            ratio(median(base) - median(clean), median(base));
        out["obs.sink_overhead"] = ratio(median(traced), median(base));

        hierLayers(out);

        std::vector<double> build_ns;
        for (int k = 0; k < kReruns; ++k) {
            build_ns.push_back(timeNs([&] { buildFlat(); }));
            build_ns.push_back(timeNs([&] { buildHier(); }));
        }
        out["sim.build_us"] = median(build_ns) / 1e3;
    }

  private:
    static constexpr int kReruns = 3;
    static constexpr std::size_t kFlatJobs = 12;
    static constexpr std::size_t kHierJobs = 6;

    static Arch85Params
    sharedParams()
    {
        Arch85Params p;
        p.pShared = 0.3;
        p.sharedLines = 12;
        return p;
    }

    /**
     * Seed replicas of a MOESI/Berkeley/Dragon mix under per-access
     * checking, arming the timing fault sites only.  One MOESI cache
     * picks uniformly among its legal actions (section 3.4), so its
     * CacheSpec seed shapes the run.
     */
    static CampaignSpec
    flatSpec(std::uint64_t seed, const WorkloadOptions &opts)
    {
        CampaignSpec spec;
        spec.campaignSeed = seed;
        spec.refsPerProc = 3000;
        spec.base.checkEveryAccess = true;
        ProtocolMix mix;
        mix.name = "moesi-random+berkeley+dragon+moesi";
        const ProtocolKind kinds[] = {ProtocolKind::Moesi,
                                      ProtocolKind::Berkeley,
                                      ProtocolKind::Dragon,
                                      ProtocolKind::Moesi};
        for (std::size_t i = 0; i < std::size(kinds); ++i) {
            MixSlot slot;
            slot.cache = cacheSpec(kinds[i], 16, 2, i + 1);
            mix.slots.push_back(slot);
        }
        mix.slots[0].cache.chooser = ChooserKind::Random;
        mix.slots[0].cache.seed += opts.perturbCacheSeed;
        spec.mixes.push_back(std::move(mix));
        for (std::size_t rep = 0; rep < kFlatJobs; ++rep) {
            spec.workloads.push_back(arch85SeededWorkload(
                "rep" + std::to_string(rep), sharedParams()));
        }
        spec.faultFactory = [](std::uint64_t job_seed, std::size_t) {
            FaultConfig fc;
            fc.seed = job_seed;
            fc.spuriousAbort.probability = 0.01;
            fc.abortStormProb = 0.2;
            fc.abortStormLength = 4;
            fc.memoryDelay.probability = 0.005;
            fc.memoryDelayCycles = 16;
            fc.memoryDrop.probability = 0.005;
            return std::optional<FaultConfig>(fc);
        };
        return spec;
    }

    /**
     * Two clusters of four class-member caches each, with per-access
     * hierarchical checking, periodic filter scrub and timed segment
     * reintegration, arming timing and bridge fault sites plus a
     * guaranteed leaf stall.
     */
    static CampaignSpec
    hierSpec(std::uint64_t seed)
    {
        CampaignSpec spec;
        spec.campaignSeed = Rng::deriveSeed(seed, 0x41e7);
        spec.refsPerProc = 3000;
        spec.clusters = 2;
        spec.hier.checkEveryAccess = true;
        spec.hier.maxBusRetries = 64;
        spec.hier.watchdogRounds = 4;
        spec.hier.quarantineAfterTrips = 2;
        spec.hier.reintegrateAfterCycles = 4000;
        spec.hier.scrubEveryAccesses = 512;
        ProtocolMix mix;
        mix.name = "hier-moesi-class";
        const ProtocolKind kinds[] = {ProtocolKind::Moesi,
                                      ProtocolKind::Berkeley,
                                      ProtocolKind::Dragon,
                                      ProtocolKind::Moesi};
        for (std::size_t i = 0; i < 8; ++i) {
            MixSlot slot;
            slot.cache = cacheSpec(kinds[i % 4], 16, 2, i + 1);
            mix.slots.push_back(slot);
        }
        spec.mixes.push_back(std::move(mix));
        for (std::size_t rep = 0; rep < kHierJobs; ++rep) {
            spec.workloads.push_back(arch85SeededWorkload(
                "rep" + std::to_string(rep), sharedParams()));
        }
        spec.faultFactory = [](std::uint64_t job_seed, std::size_t) {
            FaultConfig fc;
            fc.seed = job_seed;
            fc.spuriousAbort.probability = 0.05;
            fc.abortStormProb = 0.25;
            fc.abortStormLength = 24;
            fc.memoryDelay.probability = 0.02;
            fc.bridgeDrop.probability = 0.02;
            fc.bridgeDelay.probability = 0.02;
            fc.bridgeDup.probability = 0.01;
            fc.filterStale.probability = 0.05;
            fc.leafStall.probability = 1.0;
            fc.leafStall.windowStart = 600;
            fc.leafStall.windowEnd = 680;
            return std::optional<FaultConfig>(fc);
        };
        return spec;
    }

    static MetricsSnapshot
    merged(const CampaignReport &report)
    {
        MetricsSnapshot all;
        for (const CampaignResult &r : report.results)
            all = mergeSnapshots(all, r.metrics);
        return all;
    }

    /** The runner's results must not depend on the worker count. */
    void
    compareWorkerCounts(UnitResult &r)
    {
        PerfettoTraceSink sink;
        CampaignRunner runner(kCheckWorkers);
        runner.attachTrace(&sink, 0);
        CampaignReport flat = runner.run(flat_);
        CampaignReport hier = CampaignRunner(kCheckWorkers).run(hier_);
        if (renderCampaignTable(flat) != flatTable_ ||
            renderCampaignTable(hier) != hierTable_)
            r.fail("2-worker re-run: campaign table differs");
        if (!(merged(flat) == merged(flatReport_)) ||
            !(merged(hier) == merged(hierReport_)))
            r.fail("2-worker re-run: merged MetricsSnapshot differs");
        if (sink.render() != perfetto_)
            r.fail("2-worker re-run: Perfetto trace differs");
    }

    void
    recordCounts()
    {
        double refs = 0, injected = 0, txns = 0, aborts = 0;
        CacheStats caches;
        for (const CampaignReport *rep : {&flatReport_, &hierReport_}) {
            for (const CampaignResult &res : rep->results) {
                refs += static_cast<double>(res.totalRefs());
                injected += static_cast<double>(res.faults.injected());
                txns += static_cast<double>(res.bus.transactions);
                aborts += static_cast<double>(res.bus.aborts);
                caches += res.cacheTotals;
            }
        }
        counts_["cache.local_share"] = ratio(
            static_cast<double>(caches.readHits + caches.writeHits),
            static_cast<double>(caches.reads + caches.writes));
        counts_["bus.txn_per_ref"] = ratio(txns, refs);
        counts_["fault.injected_per_kref"] = ratio(1000.0 * injected, refs);
        counts_["bus.aborts_per_ktxn"] = ratio(1000.0 * aborts, txns);
        counts_["obs.events"] = static_cast<double>(sink_->eventCount());
    }

    std::vector<double>
    serialJobTimes(const CampaignSpec &spec, const char *name)
    {
        std::vector<double> ns;
        CampaignScratch scratch;
        for (const CampaignJob &job : expandCampaign(spec)) {
            SpanScope span(name);
            ns.push_back(
                timeNs([&] { runCampaignJob(spec, job, scratch); }));
        }
        return ns;
    }

    double
    jobZero(const CampaignSpec &spec, TraceSink *sink, const char *name)
    {
        CampaignScratch scratch;
        CampaignJob job = expandCampaign(spec).front();
        SpanScope span(name);
        return timeNs(
            [&] { runCampaignJob(spec, job, scratch, nullptr, sink); });
    }

    std::unique_ptr<System>
    buildFlat() const
    {
        SpanScope span("sim.build");
        CampaignJob job = expandCampaign(flat_).front();
        SystemConfig cfg = flat_.base;
        cfg.faults = flat_.faultFactory(job.seed, job.index);
        auto sys = std::make_unique<System>(cfg);
        for (const MixSlot &slot : flat_.mixes[0].slots)
            sys->addCache(slot.cache);
        return sys;
    }

    /** A HierSystem shaped like hier job 0 (its config and faults). */
    std::unique_ptr<HierSystem>
    buildHier() const
    {
        SpanScope span("sim.build");
        CampaignJob job = expandCampaign(hier_).front();
        HierConfig cfg = hier_.hier;
        cfg.lineBytes = hier_.base.lineBytes;
        cfg.faults = hier_.faultFactory(job.seed, job.index);
        auto sys = std::make_unique<HierSystem>(cfg, hier_.clusters);
        std::size_t i = 0;
        for (const MixSlot &slot : hier_.mixes[0].slots)
            sys->addCache(i++ % hier_.clusters, slot.cache);
        return sys;
    }

    /** HierEngine::run on a benchmark-built copy of hier job 0. */
    void
    hierLayers(Metrics &out)
    {
        CampaignJob job = expandCampaign(hier_).front();
        const std::size_t procs = hier_.mixes[0].slots.size();
        std::vector<double> ns;
        BridgeStats bridges;
        for (int k = 0; k < kReruns; ++k) {
            auto sys = buildHier();
            std::vector<std::unique_ptr<RefStream>> streams;
            std::vector<RefStream *> raw;
            for (std::size_t p = 0; p < procs; ++p) {
                streams.push_back(
                    hier_.workloads[0].make(p, procs, job.seed));
                raw.push_back(streams.back().get());
            }
            {
                SpanScope span("hier.engine_run");
                ns.push_back(timeNs([&] {
                    HierEngine(*sys, hier_.engine)
                        .run(raw, hier_.refsPerProc);
                }));
            }
            bridges = {};
            for (std::size_t c = 0; c < sys->numClusters(); ++c) {
                const BridgeStats &b = sys->bridge(c).stats();
                bridges.upForwards += b.upForwards;
                bridges.downForwards += b.downForwards;
                bridges.scrubbedEntries += b.scrubbedEntries;
            }
        }
        const double refs =
            static_cast<double>(hier_.refsPerProc * procs);
        out["hier.ns_per_ref"] = median(ns) / refs;
        out["hier.forwards_per_kref"] =
            1000.0 *
            static_cast<double>(bridges.upForwards +
                                bridges.downForwards) /
            refs;
        out["hier.scrubbed_entries"] =
            static_cast<double>(bridges.scrubbedEntries);
    }

    CampaignSpec flat_;
    CampaignSpec hier_;

    std::unique_ptr<PerfettoTraceSink> sink_;
    CampaignReport flatReport_;
    CampaignReport hierReport_;
    std::string flatTable_;
    std::string hierTable_;
    std::string perfetto_;
    double cpuSeconds_ = 0;
    double wallSeconds_ = 0;
    Metrics counts_;
};

// ---------------------------------------------------------------- //
// mc-explore: exhaustive exploration of a flat four-cache mix and of a
// two-cluster hierarchy, both over two lines.  The seed does not apply.

class McExplore : public Workload
{
  public:
    McExplore()
    {
        const ProtocolTable &moesi = protocolTable(ProtocolKind::Moesi);
        const ProtocolTable &berkeley =
            protocolTable(ProtocolKind::Berkeley);
        const ProtocolTable &dragon = protocolTable(ProtocolKind::Dragon);
        flat_.model.tables = {&moesi, &berkeley, &dragon, &moesi};
        flat_.model.lines = 2;
        hier_.model.base.tables = {&moesi, &berkeley, &dragon};
        hier_.model.base.lines = 2;
        hier_.model.clusterOf = {0, 0, 1};
    }

    const char *workName() const override { return "states"; }
    void prepare() override {}

    void
    run() override
    {
        {
            SpanScope span("mc.explore");
            flatResult_ = mc::explore(flat_);
        }
        {
            SpanScope span("mc.explore_hier");
            hierResult_ = mc::exploreHier(hier_);
        }
    }

    UnitResult
    check(std::uint64_t) override
    {
        UnitResult r;
        if (!flatResult_.complete || flatResult_.counterexample)
            r.fail("mc::explore: incomplete or counterexample");
        if (!hierResult_.complete || hierResult_.counterexample)
            r.fail("mc::exploreHier: incomplete or counterexample");
        Digest d;
        for (std::uint64_t v :
             {flatResult_.nodes, flatResult_.edges, flatResult_.depth,
              hierResult_.nodes, hierResult_.edges, hierResult_.depth})
            d.u64(v);
        d.u64(flatResult_.nodeFingerprint);
        d.u64(flatResult_.edgeFingerprint);
        d.u64(hierResult_.nodeFingerprint);
        d.u64(hierResult_.edgeFingerprint);
        r.digest = d.value();
        r.work = flatResult_.nodes + hierResult_.nodes;
        return r;
    }

    void
    layers(Metrics &out) override
    {
        const Tracer &t = tracer();
        std::vector<double> flat = t.durations("mc.explore");
        std::vector<double> hier = t.durations("mc.explore_hier");
        out["mc.flat_ms"] = median(flat) / 1e6;
        out["mc.hier_ms"] = median(hier) / 1e6;
        const auto edges =
            static_cast<double>(flatResult_.edges + hierResult_.edges);
        out["mc.ns_per_edge"] = (median(flat) + median(hier)) / edges;
        out["mc.states"] =
            static_cast<double>(flatResult_.nodes + hierResult_.nodes);
        out["mc.edges"] = edges;
    }

  private:
    mc::ExploreConfig flat_;
    mc::HierExploreConfig hier_;
    mc::ExploreResult flatResult_;
    mc::HierExploreResult hierResult_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "arch85-steady", "campaign-faulted", "mc-explore",
        "sharing-mixed"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const WorkloadOptions &opts)
{
    if (name == "arch85-steady")
        return std::make_unique<Arch85Steady>(seed);
    if (name == "sharing-mixed")
        return std::make_unique<SharingMixed>(seed);
    if (name == "campaign-faulted")
        return std::make_unique<CampaignFaulted>(seed, opts);
    if (name == "mc-explore")
        return std::make_unique<McExplore>();
    return nullptr;
}

const std::vector<std::string> &
perLayerNames()
{
    static const std::vector<std::string> names = {
        "trace.gen_ns_per_ref",
        "trace.parse_ns_per_ref",
        "sim.engine_ns_per_ref",
        "sim.strict_over_interleaved",
        "sim.strict_over_perline",
        "sim.spec_share",
        "sim.rollback_refs_per_ref",
        "sim.hit_access_ns",
        "sim.bus_access_ns",
        "sim.build_us",
        "cache.local_share",
        "bus.txn_per_ref",
        "bus.snoops_per_txn",
        "bus.filter_suppressed_share",
        "bus.aborts_per_ktxn",
        "checker.audit_ms",
        "checker.per_access_ns",
        "fault.overhead_share",
        "fault.injected_per_kref",
        "campaign.flat_job_ms_p50",
        "campaign.hier_job_ms_p50",
        "campaign.parallelism",
        "text.render_ms",
        "hier.ns_per_ref",
        "hier.forwards_per_kref",
        "hier.scrubbed_entries",
        "obs.sink_overhead",
        "obs.render_ms",
        "obs.events",
        "mc.flat_ms",
        "mc.hier_ms",
        "mc.ns_per_edge",
        "mc.states",
        "mc.edges",
        "tracing_overhead",
    };
    return names;
}

const std::vector<std::string> &
perLayerCountNames()
{
    static const std::vector<std::string> names = {
        "sim.spec_share",          "sim.rollback_refs_per_ref",
        "cache.local_share",       "bus.txn_per_ref",
        "bus.snoops_per_txn",      "bus.filter_suppressed_share",
        "bus.aborts_per_ktxn",     "fault.injected_per_kref",
        "hier.forwards_per_kref",  "hier.scrubbed_entries",
        "obs.events",              "mc.states",
        "mc.edges",
    };
    return names;
}

} // namespace perfbench
