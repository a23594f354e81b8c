/**
 * @file
 * M1: google-benchmark microbenchmarks of the simulator engine itself
 * - transaction throughput, snoop fan-out scaling and checker
 * overhead.  These measure fbsim, not the paper's system, and exist
 * so performance regressions in the simulator are visible.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "obs/latency.h"
#include "obs/perfetto_sink.h"

using namespace fbsim;
using namespace fbsim::bench;

namespace {

/** Read hits: the fast path with no bus involvement. */
void
BM_ReadHit(benchmark::State &state)
{
    System sys{SystemConfig{}};
    CacheSpec spec;
    sys.addCache(spec);
    sys.read(0, 0x100);
    for (auto _ : state)
        benchmark::DoNotOptimize(sys.read(0, 0x100).value);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadHit);

/** Miss + fill, alternating two conflicting lines (always misses). */
void
BM_ReadMissFill(benchmark::State &state)
{
    System sys{SystemConfig{}};
    CacheSpec spec;
    spec.numSets = 1;
    spec.assoc = 1;
    sys.addCache(spec);
    Addr a = 0, b = 32;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sys.read(0, a).value);
        std::swap(a, b);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadMissFill);

/**
 * Broadcast word write with n-1 snooping sharers.  Every cache holds
 * the line, so the snoop filter cannot skip anyone; this measures the
 * constant per-snooper dispatch cost (CH resolution, scratch reuse).
 */
void
broadcastWriteFanout(benchmark::State &state, bool filter)
{
    std::size_t caches = state.range(0);
    SystemConfig cfg;
    cfg.snoopFilter = filter;
    System sys{cfg};
    for (std::size_t i = 0; i < caches; ++i) {
        CacheSpec spec;
        spec.seed = i + 1;
        sys.addCache(spec);
    }
    for (std::size_t i = 0; i < caches; ++i)
        sys.read(static_cast<MasterId>(i), 0x100);
    Word v = 0;
    for (auto _ : state)
        sys.write(0, 0x100, ++v);
    state.SetItemsProcessed(state.iterations());
}

void
BM_BroadcastWriteFanout(benchmark::State &state)
{
    broadcastWriteFanout(state, true);
}
BENCHMARK(BM_BroadcastWriteFanout)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void
BM_BroadcastWriteFanoutExhaustive(benchmark::State &state)
{
    broadcastWriteFanout(state, false);
}
BENCHMARK(BM_BroadcastWriteFanoutExhaustive)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/**
 * Miss traffic to lines private to one cache, with n-1 idle caches
 * attached.  Here the presence bitmask pays off directly: the idle
 * caches are never snooped.  Exhaustive mode snoops all of them.
 */
void
privateMissFanout(benchmark::State &state, bool filter)
{
    std::size_t caches = state.range(0);
    SystemConfig cfg;
    cfg.snoopFilter = filter;
    System sys{cfg};
    for (std::size_t i = 0; i < caches; ++i) {
        CacheSpec spec;
        spec.numSets = 1;
        spec.assoc = 1;
        spec.seed = i + 1;
        sys.addCache(spec);
    }
    Addr a = 0, b = 32;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sys.read(0, a).value);
        std::swap(a, b);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_PrivateMissFanout(benchmark::State &state)
{
    privateMissFanout(state, true);
}
BENCHMARK(BM_PrivateMissFanout)->Arg(2)->Arg(8)->Arg(32);

void
BM_PrivateMissFanoutExhaustive(benchmark::State &state)
{
    privateMissFanout(state, false);
}
BENCHMARK(BM_PrivateMissFanoutExhaustive)->Arg(2)->Arg(8)->Arg(32);

/** End-to-end timed engine throughput (references per second). */
void
BM_EngineThroughput(benchmark::State &state)
{
    std::size_t procs = state.range(0);
    Arch85Params params;
    std::uint64_t total = 0;
    for (auto _ : state) {
        state.PauseTiming();
        ProtocolSetup setup;
        auto sys = makeSystem(setup, procs);
        auto streams = makeArch85Streams(params, procs, 3);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());
        state.ResumeTiming();
        Engine engine(*sys, {});
        engine.run(raw, 2000);
        total += 2000 * procs;
    }
    state.SetItemsProcessed(total);
}
BENCHMARK(BM_EngineThroughput)->Arg(2)->Arg(8)->Arg(32);

/** Engine throughput pinned to one ordering mode. */
void
engineThroughputOrdered(benchmark::State &state, EngineOrdering ordering)
{
    std::size_t procs = state.range(0);
    Arch85Params params;
    std::uint64_t total = 0;
    for (auto _ : state) {
        state.PauseTiming();
        ProtocolSetup setup;
        auto sys = makeSystem(setup, procs);
        auto streams = makeArch85Streams(params, procs, 3);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());
        state.ResumeTiming();
        EngineConfig cfg;
        cfg.ordering = ordering;
        Engine engine(*sys, cfg);
        engine.run(raw, 2000);
        total += 2000 * procs;
    }
    state.SetItemsProcessed(total);
}

/**
 * The reference point for the speculative loop: the plain interleaved
 * scheduler, whose results the strict speculative mode reproduces
 * byte-for-byte.  The speculative/interleaved pair on the same
 * workload is the honest speedup measurement - same semantics, same
 * per-read verification, different execution strategy.
 */
void
BM_InterleavedEngineThroughput(benchmark::State &state)
{
    engineThroughputOrdered(state, EngineOrdering::Interleaved);
}
BENCHMARK(BM_InterleavedEngineThroughput)->Arg(8);

/**
 * Strict speculative post-grant execution: runs of provable local
 * hits batch-execute between bus transactions and commit at the next
 * serialization point, with epoch rollback on snoop conflicts.
 */
void
BM_SpeculativeEngineThroughput(benchmark::State &state)
{
    engineThroughputOrdered(state, EngineOrdering::Strict);
}
BENCHMARK(BM_SpeculativeEngineThroughput)->Arg(8)->Arg(32);

/**
 * Adversarial rollback storm: every processor ping-pongs over the
 * same four hot lines under an invalidating protocol (Berkeley), so
 * speculated hit runs are constantly killed by foreign write
 * invalidations and replayed.  Guards the rollback path's worst case:
 * speculation must not fall off a cliff when conflicts dominate.
 */
void
BM_SpeculativeRollbackStorm(benchmark::State &state)
{
    const std::size_t procs = state.range(0);
    std::uint64_t total = 0;
    for (auto _ : state) {
        state.PauseTiming();
        ProtocolSetup setup;
        setup.protocol = ProtocolKind::Berkeley;
        auto sys = makeSystem(setup, procs);
        std::vector<std::unique_ptr<RefStream>> streams;
        std::vector<RefStream *> raw;
        for (std::size_t p = 0; p < procs; ++p) {
            streams.push_back(std::make_unique<PingPongWorkload>(
                32, 4, p, p + 11, 2));
            raw.push_back(streams.back().get());
        }
        state.ResumeTiming();
        EngineConfig cfg;
        cfg.ordering = EngineOrdering::Strict;
        Engine engine(*sys, cfg);
        engine.run(raw, 2000);
        total += 2000 * procs;
    }
    state.SetItemsProcessed(total);
}
BENCHMARK(BM_SpeculativeRollbackStorm)->Arg(8);

/**
 * Engine throughput with the observability layer attached: a
 * per-master LatencyRecorder plus a buffering Perfetto sink on the bus
 * and engine.  Compare against BM_EngineThroughput/8 to see the
 * observers-on cost; the detached run above is the one the CI
 * regression guard holds to the <=2% hot-path budget (the hot path
 * only pays a branch-on-null when detached).
 */
void
BM_EngineThroughputInstrumented(benchmark::State &state)
{
    std::size_t procs = state.range(0);
    Arch85Params params;
    std::uint64_t total = 0;
    for (auto _ : state) {
        state.PauseTiming();
        ProtocolSetup setup;
        auto sys = makeSystem(setup, procs);
        auto streams = makeArch85Streams(params, procs, 3);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());
        LatencyRecorder latency(procs);
        PerfettoTraceSink sink;
        sys->bus().setLatencyRecorder(&latency);
        sys->attachTrace(&sink);
        state.ResumeTiming();
        EngineConfig cfg;
        cfg.latency = &latency;
        cfg.trace = &sink;
        Engine engine(*sys, cfg);
        engine.run(raw, 2000);
        total += 2000 * procs;
        state.PauseTiming();
        benchmark::DoNotOptimize(sink.eventCount());
        state.ResumeTiming();
    }
    state.SetItemsProcessed(total);
}
BENCHMARK(BM_EngineThroughputInstrumented)->Arg(8);

/** Full invariant scan cost as the line population grows. */
void
BM_CheckerScan(benchmark::State &state)
{
    System sys{SystemConfig{}};
    CacheSpec spec;
    spec.numSets = 64;
    spec.assoc = 4;
    sys.addCache(spec);
    Rng rng(5);
    for (int i = 0; i < 256; ++i)
        sys.write(0, rng.below(1024) * 8, rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(sys.checkNow().empty());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CheckerScan);

/**
 * Per-access checking cost over a populated system: incremental mode
 * re-verifies only the line the access dirtied; full mode rescans the
 * whole universe every access.
 */
void
checkerPerAccess(benchmark::State &state, bool incremental)
{
    SystemConfig cfg;
    cfg.checkEveryAccess = true;
    cfg.incrementalCheck = incremental;
    System sys{cfg};
    CacheSpec spec;
    spec.numSets = 64;
    spec.assoc = 4;
    sys.addCache(spec);
    Rng rng(5);
    for (int i = 0; i < 256; ++i)
        sys.write(0, rng.below(1024) * 8, rng.next());
    Word v = 0;
    for (auto _ : state) {
        ++v;
        sys.write(0, (v % 1024) * 8, v);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_CheckerPerAccessIncremental(benchmark::State &state)
{
    checkerPerAccess(state, true);
}
BENCHMARK(BM_CheckerPerAccessIncremental);

void
BM_CheckerPerAccessFull(benchmark::State &state)
{
    checkerPerAccess(state, false);
}
BENCHMARK(BM_CheckerPerAccessFull);

/** The abort/push/retry path (Illinois dirty read). */
void
BM_AbortPushRetry(benchmark::State &state)
{
    System sys{SystemConfig{}};
    CacheSpec spec;
    spec.protocol = ProtocolKind::Illinois;
    sys.addCache(spec);
    spec.seed = 2;
    sys.addCache(spec);
    Word v = 0;
    for (auto _ : state) {
        sys.write(0, 0x100, ++v);   // S->M via invalidate (after first)
        benchmark::DoNotOptimize(sys.read(1, 0x100).value);   // BS path
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AbortPushRetry);

} // namespace

BENCHMARK_MAIN();
