/**
 * @file
 * Campaign layer: the ThreadPool primitive, cross
 * product expansion, and the determinism contract - the merged report
 * is bit-identical for every --jobs value, --jobs 1 equals a manually
 * driven serial System+Engine run, and per-job fault state is handed
 * out by value (a FaultInjector itself can never be shared).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <type_traits>

#include "campaign/campaign_runner.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "test_util.h"
#include "text/report.h"

namespace fbsim {
namespace {

// The whole point of deleting the injector's copy operations: a spec
// cannot alias one injector across systems or workers.
static_assert(!std::is_copy_constructible_v<FaultInjector>);
static_assert(!std::is_copy_assignable_v<FaultInjector>);

// ---------------------------------------------------------------- //
// ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskAndWaitDrains)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);

    // The pool is reusable after wait().
    for (int i = 0; i < 50; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 150);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, HardwareJobsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareJobs(), 1u);
}

// ---------------------------------------------------------------- //
// Cross-product expansion

CampaignSpec
tinySpec(std::size_t mixes, std::size_t geometries, std::size_t costs,
         std::size_t workloads, std::size_t faults)
{
    CampaignSpec spec;
    spec.campaignSeed = 77;
    spec.refsPerProc = 50;
    spec.base = test::testConfig();
    for (std::size_t m = 0; m < mixes; ++m) {
        spec.mixes.push_back(homogeneousMix(
            "mix" + std::to_string(m), test::smallCache(), 2));
    }
    for (std::size_t g = 0; g < geometries; ++g) {
        GeometryPoint p;
        p.name = "g" + std::to_string(g);
        p.numSets = 4 << g;
        spec.geometries.push_back(p);
    }
    for (std::size_t c = 0; c < costs; ++c) {
        CostPoint p;
        p.name = "c" + std::to_string(c);
        p.cost.memLatency = 4 + 4 * c;
        spec.costs.push_back(p);
    }
    Arch85Params params;
    for (std::size_t w = 0; w < workloads; ++w) {
        spec.workloads.push_back(arch85SeededWorkload(
            "w" + std::to_string(w), params));
    }
    for (std::size_t f = 0; f < faults; ++f) {
        FaultPoint p;
        p.name = "f" + std::to_string(f);
        if (f > 0) {
            FaultConfig fc;
            fc.seed = 0x100 + f;
            fc.spuriousAbort.probability = 0.05;
            p.faults = fc;
        }
        spec.faults.push_back(p);
    }
    return spec;
}

TEST(CampaignExpandTest, CanonicalNestingFaultInnermost)
{
    CampaignSpec spec = tinySpec(2, 2, 2, 2, 2);
    ASSERT_EQ(spec.numJobs(), 32u);
    std::vector<CampaignJob> jobs = expandCampaign(spec);
    ASSERT_EQ(jobs.size(), 32u);

    std::size_t i = 0;
    for (std::size_t mi = 0; mi < 2; ++mi) {
        for (std::size_t gi = 0; gi < 2; ++gi) {
            for (std::size_t ci = 0; ci < 2; ++ci) {
                for (std::size_t wi = 0; wi < 2; ++wi) {
                    for (std::size_t fi = 0; fi < 2; ++fi, ++i) {
                        EXPECT_EQ(jobs[i].index, i);
                        EXPECT_EQ(jobs[i].mixIdx, mi);
                        EXPECT_EQ(jobs[i].geometryIdx, gi);
                        EXPECT_EQ(jobs[i].costIdx, ci);
                        EXPECT_EQ(jobs[i].workloadIdx, wi);
                        EXPECT_EQ(jobs[i].faultIdx, fi);
                        EXPECT_EQ(jobs[i].seed,
                                  Rng::deriveSeed(77, i));
                    }
                }
            }
        }
    }
}

TEST(CampaignExpandTest, EmptyAxesCollapseToOnePoint)
{
    CampaignSpec spec = tinySpec(3, 0, 0, 2, 0);
    EXPECT_EQ(spec.numJobs(), 6u);
    std::vector<CampaignJob> jobs = expandCampaign(spec);
    ASSERT_EQ(jobs.size(), 6u);
    for (const CampaignJob &job : jobs) {
        EXPECT_EQ(job.geometryIdx, 0u);
        EXPECT_EQ(job.costIdx, 0u);
        EXPECT_EQ(job.faultIdx, 0u);
    }
}

TEST(CampaignExpandTest, ReportIndexMatchesJobOrder)
{
    CampaignSpec spec = tinySpec(2, 2, 0, 2, 2);
    CampaignReport report = CampaignRunner(1).run(spec);
    ASSERT_EQ(report.results.size(), spec.numJobs());
    for (std::size_t mi = 0; mi < 2; ++mi) {
        for (std::size_t gi = 0; gi < 2; ++gi) {
            for (std::size_t wi = 0; wi < 2; ++wi) {
                for (std::size_t fi = 0; fi < 2; ++fi) {
                    const CampaignResult &r =
                        report.at(mi, gi, 0, wi, fi);
                    EXPECT_EQ(r.job.mixIdx, mi);
                    EXPECT_EQ(r.job.geometryIdx, gi);
                    EXPECT_EQ(r.job.workloadIdx, wi);
                    EXPECT_EQ(r.job.faultIdx, fi);
                }
            }
        }
    }
}

// ---------------------------------------------------------------- //
// --jobs 1 equals a manually driven System + Engine run.

TEST(CampaignRunnerTest, SerialJobMatchesManualEngineRun)
{
    Arch85Params params;
    params.pShared = 0.2;

    CampaignSpec spec;
    spec.refsPerProc = 400;
    spec.base = test::testConfig();
    spec.mixes.push_back(
        homogeneousMix("moesi", test::smallCache(), 3));
    spec.workloads.push_back(arch85Workload("arch85", params, 9));
    CampaignReport report = CampaignRunner(1).run(spec);
    ASSERT_EQ(report.results.size(), 1u);

    // The same run, by hand.
    System sys(test::testConfig());
    for (std::size_t i = 0; i < 3; ++i) {
        CacheSpec cache = test::smallCache();
        cache.seed = i + 1;
        sys.addCache(cache);
    }
    std::vector<std::unique_ptr<RefStream>> streams;
    std::vector<RefStream *> raw;
    for (std::size_t p = 0; p < 3; ++p) {
        streams.push_back(
            std::make_unique<Arch85Workload>(params, p, 9));
        raw.push_back(streams.back().get());
    }
    Engine engine(sys, {});
    EngineResult manual = engine.run(raw, 400);

    const CampaignResult &job = report.at(0);
    EXPECT_TRUE(job.bus == sys.bus().stats());
    EXPECT_EQ(job.engine.meanUtilization(), manual.meanUtilization());
    EXPECT_EQ(job.engine.busUtilization(), manual.busUtilization());
    EXPECT_EQ(job.totalRefs(), 3u * 400u);
    EXPECT_TRUE(job.consistent);
}

// ---------------------------------------------------------------- //
// Determinism: the merged report is byte-identical for every worker
// count, including a faulted mixed Berkeley/Illinois/Firefly point
// whose checker verdicts must also agree exactly.

CampaignSpec
determinismSpec()
{
    CampaignSpec spec;
    spec.campaignSeed = 0x5eed;
    spec.refsPerProc = 250;
    spec.base = test::testConfig();

    spec.mixes.push_back(
        homogeneousMix("moesi", test::smallCache(), 2));
    ProtocolMix mixed;
    mixed.name = "berkeley+illinois+firefly";
    const ProtocolKind kinds[] = {ProtocolKind::Berkeley,
                                  ProtocolKind::Illinois,
                                  ProtocolKind::Firefly};
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
        MixSlot slot;
        slot.cache = test::smallCache(kinds[i]);
        slot.cache.seed = i + 1;
        mixed.slots.push_back(slot);
    }
    spec.mixes.push_back(std::move(mixed));

    GeometryPoint small;
    small.name = "4x2";
    GeometryPoint large;
    large.name = "16x2";
    large.numSets = 16;
    spec.geometries = {small, large};

    CostPoint fast;
    fast.name = "fast";
    CostPoint slow;
    slow.name = "slow-mem";
    slow.cost.memLatency = 24;
    spec.costs = {fast, slow};

    Arch85Params params;
    params.pShared = 0.3;
    params.sharedLines = 8;
    spec.workloads.push_back(arch85SeededWorkload("arch85", params));

    FaultPoint clean;
    FaultPoint faulted;
    faulted.name = "storm+flip";
    FaultConfig fc;
    fc.seed = 0x2a;
    fc.spuriousAbort.probability = 0.02;
    fc.abortStormProb = 0.25;
    fc.abortStormLength = 4;
    fc.dataFlip.probability = 0.002;
    fc.responseFlip.probability = 0.002;
    faulted.faults = fc;
    spec.faults = {clean, faulted};
    return spec;
}

TEST(CampaignRunnerTest, ReportByteIdenticalAcrossWorkerCounts)
{
    CampaignSpec spec = determinismSpec();
    ASSERT_EQ(spec.numJobs(), 16u);

    CampaignReport one = CampaignRunner(1).run(spec);
    CampaignReport two = CampaignRunner(2).run(spec);
    CampaignReport eight = CampaignRunner(8).run(spec);

    std::string table = renderCampaignTable(one);
    EXPECT_EQ(table, renderCampaignTable(two));
    EXPECT_EQ(table, renderCampaignTable(eight));

    ASSERT_EQ(one.results.size(), two.results.size());
    ASSERT_EQ(one.results.size(), eight.results.size());
    for (std::size_t i = 0; i < one.results.size(); ++i) {
        for (const CampaignReport *other : {&two, &eight}) {
            const CampaignResult &a = one.results[i];
            const CampaignResult &b = other->results[i];
            EXPECT_EQ(a.job.index, b.job.index) << "job " << i;
            EXPECT_TRUE(a.bus == b.bus) << "job " << i;
            EXPECT_TRUE(a.faults == b.faults) << "job " << i;
            EXPECT_EQ(a.violations, b.violations) << "job " << i;
            EXPECT_EQ(a.faultEvents, b.faultEvents) << "job " << i;
            EXPECT_EQ(a.faultReport, b.faultReport) << "job " << i;
            EXPECT_EQ(a.consistent, b.consistent) << "job " << i;
            EXPECT_EQ(a.watchdogTrips, b.watchdogTrips) << "job " << i;
            EXPECT_EQ(a.quarantines, b.quarantines) << "job " << i;
        }
    }

    // The faulted mixed jobs actually injected something, so the
    // equality above covered fault state, not just clean runs.
    std::uint64_t injected = 0;
    for (const CampaignResult &r : one.results)
        injected += r.faults.injected();
    EXPECT_GT(injected, 0u);
}

TEST(CampaignRunnerTest, MoreWorkersThanJobsIsFine)
{
    CampaignSpec spec = tinySpec(1, 0, 0, 1, 0);
    CampaignReport a = CampaignRunner(1).run(spec);
    CampaignReport b = CampaignRunner(16).run(spec);
    ASSERT_EQ(a.results.size(), 1u);
    ASSERT_EQ(b.results.size(), 1u);
    EXPECT_TRUE(a.at(0).bus == b.at(0).bus);
}

// ---------------------------------------------------------------- //
// Fault handoff: the factory is called once per job with the job's
// derived seed; the job builds its own injector from the returned
// config.

TEST(CampaignRunnerTest, FaultFactoryCalledOncePerJobWithDerivedSeed)
{
    CampaignSpec spec = tinySpec(2, 0, 0, 2, 0);
    auto calls = std::make_shared<std::mutex>();
    auto seen =
        std::make_shared<std::vector<std::pair<std::uint64_t,
                                               std::size_t>>>();
    spec.faultFactory = [calls, seen](std::uint64_t job_seed,
                                      std::size_t job_index) {
        {
            std::lock_guard<std::mutex> lock(*calls);
            seen->emplace_back(job_seed, job_index);
        }
        FaultConfig fc;
        fc.seed = job_seed;
        fc.spuriousAbort.probability = 0.5;
        fc.spuriousAbort.windowEnd = 0;   // armed but never fires
        return std::optional<FaultConfig>(fc);
    };

    EXPECT_EQ(spec.numJobs(), 4u);
    CampaignReport report = CampaignRunner(2).run(spec);
    ASSERT_EQ(seen->size(), 4u);
    std::vector<bool> hit(4, false);
    for (const auto &[seed, index] : *seen) {
        ASSERT_LT(index, 4u);
        EXPECT_FALSE(hit[index]) << "factory called twice for " << index;
        hit[index] = true;
        EXPECT_EQ(seed, Rng::deriveSeed(spec.campaignSeed, index));
    }
    // Every job carries its own (armed) injector's report.
    for (const CampaignResult &r : report.results)
        EXPECT_NE(r.faultReport.find("fault campaign"),
                  std::string::npos);
}

// ---------------------------------------------------------------- //
// Trace-sharded workloads: the worker-cached shards replay exactly
// like splitTraceByProc + SpanStream.

TEST(CampaignRunnerTest, TraceShardsMatchSplitTraceReplay)
{
    auto trace = std::make_shared<std::vector<TraceRef>>();
    Rng rng(31);
    for (int i = 0; i < 120; ++i) {
        TraceRef r;
        r.proc = static_cast<MasterId>(rng.below(2));
        r.write = rng.chance(0.4);
        r.addr = rng.below(32) * kWordBytes;
        trace->push_back(r);
    }

    CampaignSpec spec;
    spec.refsPerProc = 90;
    spec.base = test::testConfig();
    spec.mixes.push_back(
        homogeneousMix("moesi", test::smallCache(), 2));
    spec.workloads.push_back(traceWorkload("trace", trace));
    CampaignReport report = CampaignRunner(1).run(spec);

    System sys(test::testConfig());
    for (std::size_t i = 0; i < 2; ++i) {
        CacheSpec cache = test::smallCache();
        cache.seed = i + 1;
        sys.addCache(cache);
    }
    std::vector<std::vector<ProcRef>> shards =
        splitTraceByProc(*trace, 2);
    SpanStream s0(shards[0]), s1(shards[1]);
    std::vector<RefStream *> raw = {&s0, &s1};
    Engine engine(sys, {});
    engine.run(raw, 90);

    EXPECT_TRUE(report.at(0).bus == sys.bus().stats());
    EXPECT_TRUE(report.at(0).consistent);
}

// ---------------------------------------------------------------- //
// Rendering

TEST(CampaignReportTest, TableListsEveryJobAndConsistency)
{
    CampaignSpec spec = tinySpec(2, 2, 0, 1, 0);
    CampaignReport report = CampaignRunner(2).run(spec);
    std::string table = renderCampaignTable(report);
    EXPECT_NE(table.find("campaign: 4 jobs"), std::string::npos);
    EXPECT_NE(table.find("mix0"), std::string::npos);
    EXPECT_NE(table.find("mix1"), std::string::npos);
    EXPECT_NE(table.find("g0"), std::string::npos);
    EXPECT_NE(table.find("g1"), std::string::npos);
    EXPECT_NE(table.find("consistency: 4/4 jobs violation-free"),
              std::string::npos);
}

} // namespace
} // namespace fbsim
