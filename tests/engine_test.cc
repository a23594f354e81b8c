/**
 * @file
 * Tests of the timed engine: cycle accounting, utilization metrics,
 * contention behaviour, determinism and cooperative cancellation.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "sim/engine.h"
#include "test_util.h"
#include "trace/workloads.h"

namespace fbsim {
namespace {

SystemConfig
timedConfig()
{
    SystemConfig cfg;
    cfg.lineBytes = 32;
    cfg.checkEveryAccess = false;   // timed runs use spot checks
    return cfg;
}

TEST(EngineTest, AllReferencesExecute)
{
    System sys(timedConfig());
    for (int i = 0; i < 3; ++i) {
        CacheSpec spec = test::smallCache();
        spec.numSets = 16;
        sys.addCache(spec);
    }
    Arch85Params params;
    auto streams = makeArch85Streams(params, 3, 1);
    std::vector<RefStream *> raw;
    for (auto &s : streams)
        raw.push_back(s.get());

    Engine engine(sys, {});
    EngineResult r = engine.run(raw, 500);
    ASSERT_EQ(r.procs.size(), 3u);
    for (const ProcTiming &p : r.procs) {
        EXPECT_EQ(p.refs, 500u);
        EXPECT_GT(p.finishTime, 0u);
        EXPECT_GT(p.utilization(), 0.0);
        EXPECT_LE(p.utilization(), 1.0);
    }
    EXPECT_LE(r.busBusy, r.elapsed);
    EXPECT_TRUE(sys.checkNow().empty());
    EXPECT_TRUE(sys.violations().empty());
}

TEST(EngineTest, HitsDontTouchTheBus)
{
    System sys(timedConfig());
    CacheSpec spec = test::smallCache();
    spec.numSets = 16;
    sys.addCache(spec);
    // A single line hammered by one processor: one miss, then hits.
    const std::vector<ProcRef> refs = {{false, 0x100}};
    SpanStream stream(refs);
    Engine engine(sys, {});
    EngineResult r = engine.run({&stream}, 100);
    EXPECT_EQ(sys.bus().stats().transactions, 1u);
    // Utilization approaches 1: only the first access stalled.
    EXPECT_GT(r.procs[0].utilization(), 0.85);
}

TEST(EngineTest, ContentionDegradesUtilization)
{
    // The more processors share the bus, the lower each utilization -
    // the basic section 5.2 / [Arch85] effect.
    double util[2];
    for (int n_idx = 0; n_idx < 2; ++n_idx) {
        std::size_t n = n_idx == 0 ? 2 : 8;
        System sys(timedConfig());
        for (std::size_t i = 0; i < n; ++i) {
            CacheSpec spec = test::smallCache();
            spec.numSets = 8;
            spec.seed = i + 1;
            sys.addCache(spec);
        }
        Arch85Params params;
        params.pShared = 0.4;   // heavy sharing to load the bus
        params.sharedLines = 8;
        auto streams = makeArch85Streams(params, n, 5);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());
        Engine engine(sys, {});
        util[n_idx] = engine.run(raw, 400).meanUtilization();
    }
    EXPECT_GT(util[0], util[1]);
}

TEST(EngineTest, DeterministicAcrossRuns)
{
    auto run_once = [] {
        System sys(timedConfig());
        for (int i = 0; i < 4; ++i) {
            CacheSpec spec = test::smallCache();
            spec.seed = i + 1;
            sys.addCache(spec);
        }
        Arch85Params params;
        auto streams = makeArch85Streams(params, 4, 9);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());
        Engine engine(sys, {});
        EngineResult r = engine.run(raw, 300);
        return std::make_pair(r.elapsed, r.busBusy);
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(EngineTest, WriteThroughLoadsTheBusMoreThanCopyBack)
{
    auto bus_util = [](bool write_through) {
        System sys(timedConfig());
        for (int i = 0; i < 4; ++i) {
            CacheSpec spec = test::smallCache();
            spec.numSets = 32;
            spec.writeThrough = write_through;
            spec.seed = i + 1;
            sys.addCache(spec);
        }
        Arch85Params params;
        auto streams = makeArch85Streams(params, 4, 3);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());
        Engine engine(sys, {});
        return engine.run(raw, 500).busUtilization();
    };
    // Section 1/3.1: copy-back cuts the bandwidth requirement.
    EXPECT_GT(bus_util(true), bus_util(false));
}

TEST(EngineTest, StreamsEndExactlyRefsPerProcDeep)
{
    // The speculative loop fetches references 64 at a time; no loop
    // may read past refs_per_proc.  After a run each stream's next
    // next() is element refs_per_proc of its sequence (read from a
    // twin stream of the same seed).
    for (EngineOrdering ordering :
         {EngineOrdering::Strict, EngineOrdering::PerLine,
          EngineOrdering::Interleaved}) {
        for (std::uint64_t refs : {1u, 63u, 64u, 65u, 130u}) {
            System sys(timedConfig());
            for (std::size_t i = 0; i < 4; ++i) {
                CacheSpec spec = test::smallCache();
                spec.numSets = 16;
                spec.seed = i + 1;
                sys.addCache(spec);
            }
            Arch85Params params;
            auto streams = makeArch85Streams(params, 4, 13);
            auto twins = makeArch85Streams(params, 4, 13);
            std::vector<RefStream *> raw;
            for (auto &s : streams)
                raw.push_back(s.get());

            EngineConfig ec;
            ec.ordering = ordering;
            Engine engine(sys, ec);
            EngineResult r = engine.run(raw, refs);
            ASSERT_EQ(r.procs.size(), 4u);
            for (std::size_t i = 0; i < 4; ++i) {
                EXPECT_EQ(r.procs[i].refs, refs);
                for (std::uint64_t k = 0; k < refs; ++k)
                    twins[i]->next();
                const ProcRef want = twins[i]->next();
                const ProcRef got = streams[i]->next();
                EXPECT_EQ(got.addr, want.addr)
                    << "ordering " << static_cast<int>(ordering)
                    << " refs " << refs << " proc " << i;
                EXPECT_EQ(got.write, want.write);
            }
        }
    }
}

TEST(EngineTest, ExpiredDeadlineStopsBeforeAnyReference)
{
    // Every loop polls before its first access, so an already-expired
    // deadline stops the run with nothing executed.
    for (EngineOrdering ordering :
         {EngineOrdering::Strict, EngineOrdering::PerLine,
          EngineOrdering::Interleaved}) {
        System sys(timedConfig());
        for (std::size_t i = 0; i < 4; ++i) {
            CacheSpec spec = test::smallCache();
            spec.numSets = 16;
            spec.seed = i + 1;
            sys.addCache(spec);
        }
        Arch85Params params;
        auto streams = makeArch85Streams(params, 4, 7);
        std::vector<RefStream *> raw;
        for (auto &s : streams)
            raw.push_back(s.get());

        EngineConfig ec;
        ec.ordering = ordering;
        Engine engine(sys, ec);

        RunControl control;
        control.hasDeadline = true;
        control.deadline = std::chrono::steady_clock::now();
        control.checkEveryRefs = 1;

        EngineResult r = engine.run(raw, 1u << 20, &control);
        EXPECT_TRUE(r.cancelled) << static_cast<int>(ordering);
        for (const ProcTiming &p : r.procs)
            EXPECT_EQ(p.refs, 0u) << static_cast<int>(ordering);
    }
}

} // namespace
} // namespace fbsim
