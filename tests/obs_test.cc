/**
 * @file
 * Observability layer: exact log2 histograms, associative/commutative
 * snapshot merges, per-master latency recording, the determinism
 * contract for campaign metric blocks (byte-identical at any --jobs,
 * with and without fault injection), the TransactionLog-as-TraceSink
 * golden format, the rate-limited warning sink, Perfetto trace
 * validity and the journal v2 metric round trip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "bus/transaction_log.h"
#include "campaign/campaign_journal.h"
#include "campaign/campaign_runner.h"
#include "common/logging.h"
#include "common/random.h"
#include "obs/export.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "obs/perfetto_sink.h"
#include "test_util.h"
#include "text/report.h"
#include "trace/workloads.h"

namespace fbsim {
namespace {

// ---------------------------------------------------------------- //
// Histogram

TEST(HistogramTest, BucketOfIsBitWidth)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Histogram::bucketOf(~std::uint64_t{0}), 64u);
}

TEST(HistogramTest, RecordsExactCountMinMaxSum)
{
    Histogram h;
    for (std::uint64_t v : {7u, 0u, 100u, 3u, 3u})
        h.record(v);
    const HistogramData &d = h.data();
    EXPECT_EQ(d.count, 5u);
    EXPECT_EQ(d.sum, 113u);
    EXPECT_EQ(d.min, 0u);
    EXPECT_EQ(d.max, 100u);
    EXPECT_EQ(d.buckets[0], 1u);  // the 0
    EXPECT_EQ(d.buckets[2], 2u);  // the two 3s
    EXPECT_EQ(d.buckets[3], 1u);  // the 7
    EXPECT_EQ(d.buckets[7], 1u);  // the 100
    EXPECT_DOUBLE_EQ(d.mean(), 113.0 / 5.0);
}

TEST(HistogramTest, PercentilesClampToRecordedRange)
{
    Histogram h;
    for (int i = 0; i < 99; ++i)
        h.record(10);
    h.record(1000);
    // p50/p90 land in the [8,15] bucket, reported as its upper bound
    // clamped below by min=10; p99+ reaches the outlier's bucket,
    // clamped above by max=1000.
    EXPECT_EQ(h.data().percentile(50), 15u);
    EXPECT_EQ(h.data().percentile(90), 15u);
    EXPECT_EQ(h.data().percentile(100), 1000u);
    EXPECT_EQ(HistogramData().percentile(50), 0u);
}

TEST(HistogramTest, MergeAddsBucketForBucket)
{
    Histogram a;
    Histogram b;
    a.record(1);
    a.record(5);
    b.record(5);
    b.record(900);
    Histogram merged = a;
    merged.merge(b.data());
    EXPECT_EQ(merged.data().count, 4u);
    EXPECT_EQ(merged.data().sum, 911u);
    EXPECT_EQ(merged.data().min, 1u);
    EXPECT_EQ(merged.data().max, 900u);
    EXPECT_EQ(merged.data().buckets[3], 2u);  // both 5s
}

// ---------------------------------------------------------------- //
// Snapshot merge properties

/** A pseudo-random snapshot drawing names from a small pool so merges
 *  exercise both the matched and unmatched union paths. */
MetricsSnapshot
randomSnapshot(std::uint64_t seed)
{
    Rng rng(seed);
    MetricRegistry reg;
    const char *counters[] = {"c.alpha", "c.beta", "c.gamma"};
    const char *gauges[] = {"g.alpha", "g.beta"};
    const char *hists[] = {"h.alpha", "h.beta"};
    for (const char *name : counters) {
        if (rng.below(3) != 0)
            reg.counter(name).add(rng.below(1000));
    }
    for (const char *name : gauges) {
        if (rng.below(3) != 0)
            reg.gauge(name).set(rng.below(1000));
    }
    for (const char *name : hists) {
        if (rng.below(3) != 0) {
            Histogram &h = reg.histogram(name);
            std::uint64_t n = rng.below(64);
            for (std::uint64_t i = 0; i < n; ++i)
                h.record(rng.below(100000));
        }
    }
    return reg.snapshot();
}

TEST(SnapshotMergeTest, CommutativeAndAssociativeBucketForBucket)
{
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        MetricsSnapshot a = randomSnapshot(seed);
        MetricsSnapshot b = randomSnapshot(seed * 31 + 7);
        MetricsSnapshot c = randomSnapshot(seed * 131 + 13);

        MetricsSnapshot ab = mergeSnapshots(a, b);
        MetricsSnapshot ba = mergeSnapshots(b, a);
        EXPECT_TRUE(ab == ba) << "seed " << seed;

        MetricsSnapshot abc1 = mergeSnapshots(ab, c);
        MetricsSnapshot abc2 = mergeSnapshots(a, mergeSnapshots(b, c));
        EXPECT_TRUE(abc1 == abc2) << "seed " << seed;

        // Identity and a histogram bucket spot check.
        EXPECT_TRUE(mergeSnapshots(a, MetricsSnapshot()) == a);
        const MetricEntry *ha = a.find("h.alpha");
        const MetricEntry *hb = b.find("h.alpha");
        const MetricEntry *hm = ab.find("h.alpha");
        if (ha && hb) {
            ASSERT_NE(hm, nullptr);
            for (std::size_t i = 0; i < HistogramData::kBuckets; ++i) {
                EXPECT_EQ(hm->hist.buckets[i],
                          ha->hist.buckets[i] + hb->hist.buckets[i]);
            }
        }
    }
}

TEST(SnapshotMergeTest, CountersAddGaugesMax)
{
    MetricRegistry ra;
    ra.counter("n").add(3);
    ra.gauge("g").set(10);
    MetricRegistry rb;
    rb.counter("n").add(4);
    rb.gauge("g").set(7);
    MetricsSnapshot m = mergeSnapshots(ra.snapshot(), rb.snapshot());
    EXPECT_EQ(m.find("n")->value, 7u);
    EXPECT_EQ(m.find("g")->value, 10u);
}

// ---------------------------------------------------------------- //
// Per-master latency + fairness

TEST(LatencyTest, JainFairnessIndex)
{
    EXPECT_DOUBLE_EQ(jainFairnessIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(jainFairnessIndex({0.0, 0.0}), 1.0);
    EXPECT_DOUBLE_EQ(jainFairnessIndex({5.0, 5.0, 5.0}), 1.0);
    // One master hogs everything: J = 1/n.
    EXPECT_DOUBLE_EQ(jainFairnessIndex({9.0, 0.0, 0.0}), 1.0 / 3.0);
}

TEST(LatencyTest, BusRecordsServiceAndEngineRecordsWait)
{
    LatencyRecorder latency(2);
    System sys(test::testConfig());
    sys.bus().setLatencyRecorder(&latency);
    sys.addCache(test::smallCache());
    sys.addCache(test::smallCache());

    sys.write(0, 0x100, 1);   // RFO miss: one bus transaction
    sys.read(1, 0x100);       // remote dirty read: another

    EXPECT_EQ(latency.transactions(0), 1u);
    EXPECT_EQ(latency.transactions(1), 1u);
    EXPECT_GT(latency.serviceHistogram(0).sum, 0u);
    EXPECT_GT(latency.serviceHistogram(1).sum, 0u);

    MetricRegistry reg;
    latency.exportTo(reg);
    MetricsSnapshot snap = reg.snapshot();
    ASSERT_NE(snap.find("bus.m0.service"), nullptr);
    EXPECT_EQ(snap.find("bus.m0.txns")->value, 1u);
    ASSERT_NE(snap.find("bus.m1.wait"), nullptr);
    EXPECT_FALSE(renderLatencyBlock(snap).empty());
    EXPECT_NE(renderLatencyBlock(snap).find("fairness"),
              std::string::npos);
}

// ---------------------------------------------------------------- //
// Campaign metric determinism

CampaignSpec
metricsSpec(bool faulted)
{
    CampaignSpec spec;
    spec.campaignSeed = 0x0b5;
    spec.refsPerProc = 300;
    spec.base = test::testConfig();
    spec.mixes.push_back(
        homogeneousMix("moesi", test::smallCache(), 3));
    Arch85Params params;
    params.pShared = 0.3;
    params.sharedLines = 8;
    spec.workloads.push_back(arch85SeededWorkload("arch85", params));
    if (faulted) {
        FaultPoint fp;
        fp.name = "storm";
        FaultConfig fc;
        fc.seed = 0x2a;
        fc.spuriousAbort.probability = 0.02;
        fc.abortStormProb = 0.25;
        fc.abortStormLength = 4;
        fp.faults = fc;
        spec.faults = {FaultPoint{}, fp};
    }
    return spec;
}

TEST(CampaignMetricsTest, ByteIdenticalAcrossWorkerCounts)
{
    for (bool faulted : {false, true}) {
        CampaignSpec spec = metricsSpec(faulted);
        CampaignReport one = CampaignRunner(1).run(spec);
        CampaignReport two = CampaignRunner(2).run(spec);
        CampaignReport four = CampaignRunner(4).run(spec);

        ASSERT_FALSE(one.results.empty());
        for (std::size_t i = 0; i < one.results.size(); ++i) {
            EXPECT_FALSE(one.results[i].metrics.empty());
            EXPECT_TRUE(one.results[i].metrics ==
                        two.results[i].metrics)
                << "faulted=" << faulted << " job " << i;
            EXPECT_TRUE(one.results[i].metrics ==
                        four.results[i].metrics)
                << "faulted=" << faulted << " job " << i;
        }
        // The rendered metric blocks - table, latency block, JSON -
        // must be byte-identical too.
        EXPECT_EQ(renderCampaignTable(one), renderCampaignTable(two));
        EXPECT_EQ(renderCampaignMetricsJson(one),
                  renderCampaignMetricsJson(four));
    }
}

TEST(CampaignMetricsTest, SnapshotCoversEngineSystemAndLatency)
{
    CampaignReport report =
        CampaignRunner(1).run(metricsSpec(false));
    const MetricsSnapshot &m = report.results.at(0).metrics;
    for (const char *name :
         {"engine.refs", "bus.transactions", "cache.reads",
          "snoop.invoked", "bus.m0.service", "bus.m2.wait"})
        EXPECT_NE(m.find(name), nullptr) << name;
    // Exported refs agree with the engine's own accounting.
    EXPECT_EQ(m.find("engine.refs")->value,
              report.results.at(0).totalRefs());
}

// ---------------------------------------------------------------- //
// TransactionLog as a TraceSink

TEST(TransactionLogTest, GoldenFormatIsPinned)
{
    BusRequest req;
    req.master = 2;
    req.cmd = BusCmd::Read;
    req.line = 0x40;
    req.sig = {true, false, false};
    BusResult result;
    result.resp = {true, true, false};
    result.suppliedByCache = true;
    result.cost = 9;
    EXPECT_EQ(formatTransaction(req, result),
              "m2   Read       line 0x40       CA       | CH DI     "
              "<- cache [9 cyc]");

    result.aborts = 3;
    result.suppliedByCache = false;
    EXPECT_EQ(formatTransaction(req, result),
              "m2   Read       line 0x40       CA       | CH DI     "
              "<- memory (3 aborts) [9 cyc]");

    // The abort count is 64-bit; all of it is printed.
    result.aborts = (1ull << 32) + 3;
    EXPECT_EQ(formatTransaction(req, result),
              "m2   Read       line 0x40       CA       | CH DI     "
              "<- memory (4294967299 aborts) [9 cyc]");
}

TEST(TransactionLogTest, AttachedLogKeepsTheNewestEntries)
{
    System sys(test::testConfig());
    sys.addCache(test::smallCache());
    TransactionLog log(2);
    sys.bus().addTraceSink(&log);

    // Three same-set RFO misses in a 2-way set: the third evicts a
    // dirty line, whose push is a fourth bus transaction.
    sys.write(0, 0x100, 1);
    sys.write(0, 0x200, 2);
    sys.write(0, 0x300, 3);
    EXPECT_EQ(log.observed(), 4u);
    EXPECT_EQ(log.entries().size(), 2u);  // capacity
}

// ---------------------------------------------------------------- //
// Rate-limited warnings

TEST(WarnLimiterTest, DefaultLimitKeepsOutputReadable)
{
    // Out of the box a repeating site prints a few lines, then only
    // the suppression summary.
    resetWarnStats();
    EXPECT_EQ(warnSiteLimit(), kDefaultWarnSiteLimit);
    for (unsigned i = 0; i < kDefaultWarnSiteLimit + 3; ++i)
        fbsim_warn("default-limited warning %u", i);
    EXPECT_EQ(warnStats().emitted, kDefaultWarnSiteLimit);
    EXPECT_EQ(warnStats().suppressed, 3u);
    EXPECT_NE(warnSuppressionSummary().find("suppressed 3 similar"),
              std::string::npos);
    resetWarnStats();
}

TEST(WarnLimiterTest, SuppressesPerSiteBeyondLimitAndSummarizes)
{
    resetWarnStats();
    setWarnSiteLimit(2);
    for (int i = 0; i < 5; ++i)
        fbsim_warn("repeated warning %d", i);
    WarnStats stats = warnStats();
    EXPECT_EQ(stats.emitted, 2u);
    EXPECT_EQ(stats.suppressed, 3u);
    std::string summary = warnSuppressionSummary();
    EXPECT_NE(summary.find("suppressed 3 similar messages"),
              std::string::npos);
    EXPECT_NE(summary.find("obs_test.cc"), std::string::npos);

    // Limit 0 keeps the always-print behavior and an empty summary.
    resetWarnStats();
    setWarnSiteLimit(0);
    for (unsigned i = 0; i < kDefaultWarnSiteLimit + 3; ++i)
        fbsim_warn("unlimited warning %u", i);
    EXPECT_EQ(warnStats().emitted, kDefaultWarnSiteLimit + 3);
    EXPECT_EQ(warnStats().suppressed, 0u);
    EXPECT_TRUE(warnSuppressionSummary().empty());
    setWarnSiteLimit(kDefaultWarnSiteLimit);
    resetWarnStats();
}

TEST(WarnLimiterTest, MutedSiteEvaluatesNoArguments)
{
    // A site's budget is taken before its arguments are evaluated, so
    // a muted call neither evaluates nor formats them; the counts and
    // the summary (one line per muted site, in file:line order) are
    // as before.
    resetWarnStats();
    setWarnSiteLimit(2);
    int evaluated = 0;
    auto arg = [&evaluated] { return ++evaluated; };
    // The later site warns first in every round; the summary still
    // lists the earlier line first.
    int early = 0, late = 0;
    auto warnEarly = [&] {
        fbsim_warn("early site %d", arg()); early = __LINE__;
    };
    for (int i = 0; i < 5; ++i) {
        fbsim_warn("late site %d", arg()); late = __LINE__;
        warnEarly();
    }
    EXPECT_EQ(evaluated, 4);
    EXPECT_EQ(warnStats().emitted, 4u);
    EXPECT_EQ(warnStats().suppressed, 6u);
    EXPECT_EQ(warnSuppressionSummary(),
              strprintf("warn: suppressed 3 similar messages from %s:%d\n"
                        "warn: suppressed 3 similar messages from %s:%d\n",
                        __FILE__, early, __FILE__, late));
    setWarnSiteLimit(kDefaultWarnSiteLimit);
    resetWarnStats();
}

// ---------------------------------------------------------------- //
// Perfetto trace export

TEST(PerfettoTest, CampaignTraceIsValidAndCarriesReplayTags)
{
    CampaignSpec spec = metricsSpec(true);
    spec.base.maxBusRetries = 2;
    spec.base.watchdogRounds = 2;

    PerfettoTraceSink sink;
    CampaignRunner runner(1);
    runner.attachTrace(&sink, 1);   // job 1 is the faulted point
    CampaignReport report = runner.run(spec);
    ASSERT_EQ(report.results.size(), 2u);

    std::string json = sink.render();
    EXPECT_GT(sink.eventCount(), 0u);
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_EQ(json.back(), '}');
    // Track metadata, bus transactions, engine spans and the campaign
    // job lifecycle are all present.
    for (const char *needle :
         {"process_name", "\"ph\":\"M\"", "\"name\":\"Read\"",
          "job-claim", "job-run"})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    // Fault-campaign events carry the injector's reproduction tag.
    EXPECT_NE(json.find("[fault seed="), std::string::npos);

    // Determinism: a second identical run serializes the same bytes.
    PerfettoTraceSink sink2;
    CampaignRunner runner2(4);
    runner2.attachTrace(&sink2, 1);
    runner2.run(spec);
    EXPECT_EQ(json, sink2.render());
}

TEST(PerfettoTest, TimestampsNondecreasingPerTrack)
{
    CampaignSpec spec = metricsSpec(false);
    PerfettoTraceSink sink;
    CampaignRunner runner(1);
    runner.attachTrace(&sink, 0);
    runner.run(spec);

    // Minimal in-process mirror of validate_trace.py: pull pid, tid
    // and ts out of each serialized event and assert monotonicity.
    std::string json = sink.render();
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        last;
    std::size_t pos = 0;
    auto field = [&](const std::string &ev, const char *key,
                     std::uint64_t &out) {
        std::size_t k = ev.find(key);
        if (k == std::string::npos)
            return false;
        out = std::strtoull(ev.c_str() + k + std::strlen(key),
                            nullptr, 10);
        return true;
    };
    std::size_t spans = 0;
    while ((pos = json.find("{\"name\":\"", pos)) !=
           std::string::npos) {
        std::size_t end = json.find('}', pos);
        std::string ev = json.substr(pos, end - pos);
        pos = end;
        if (ev.find("\"ph\":\"M\"") != std::string::npos)
            continue;
        std::uint64_t pid = 0, tid = 0, ts = 0;
        ASSERT_TRUE(field(ev, "\"pid\":", pid)) << ev;
        ASSERT_TRUE(field(ev, "\"tid\":", tid)) << ev;
        ASSERT_TRUE(field(ev, "\"ts\":", ts)) << ev;
        auto [it, fresh] = last.try_emplace({pid, tid}, ts);
        if (!fresh) {
            EXPECT_LE(it->second, ts) << ev;
            it->second = ts;
        }
        ++spans;
    }
    EXPECT_GT(spans, 0u);
}

/** FNV-1a and length of a rendered trace. */
std::string
tracePin(const std::string &json)
{
    return strprintf("%016llx %zu",
                     static_cast<unsigned long long>(test::fnv1a(json)),
                     json.size());
}

/** A two-cluster campaign of two MOESI-class caches per cluster
 *  whose ladder pulls and rejoins a segment and scrubs the bridges'
 *  filters. */
CampaignSpec
hierTraceSpec()
{
    CampaignSpec spec;
    spec.campaignSeed = 0x7ace;
    spec.refsPerProc = 1500;
    spec.clusters = 2;
    ProtocolMix mix;
    mix.name = "hier-moesi-class";
    const ProtocolKind kinds[] = {ProtocolKind::Moesi,
                                  ProtocolKind::Berkeley,
                                  ProtocolKind::Dragon,
                                  ProtocolKind::Moesi};
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
        MixSlot slot;
        slot.cache = test::smallCache(kinds[i]);
        slot.cache.seed = i + 1;
        mix.slots.push_back(slot);
    }
    spec.mixes.push_back(std::move(mix));
    Arch85Params params;
    params.pShared = 0.3;
    params.sharedLines = 12;
    spec.workloads.push_back(arch85SeededWorkload("arch85", params));
    FaultConfig fc;
    fc.seed = 0x7ace;
    fc.spuriousAbort.probability = 0.05;
    fc.abortStormProb = 0.25;
    fc.abortStormLength = 24;
    fc.bridgeDrop.probability = 0.02;
    fc.bridgeDelay.probability = 0.02;
    fc.filterStale.probability = 0.05;
    fc.leafStall.probability = 1.0;
    fc.leafStall.windowStart = 600;
    fc.leafStall.windowEnd = 680;
    spec.faults.push_back({"timing", fc});
    spec.hier.checkEveryAccess = true;
    spec.hier.maxBusRetries = 64;
    spec.hier.watchdogRounds = 4;
    spec.hier.quarantineAfterTrips = 2;
    spec.hier.reintegrateAfterCycles = 4000;
    spec.hier.scrubEveryAccesses = 512;
    return spec;
}

// The exact bytes render() exports, as FNV-1a and length: a faulted
// flat job (bus transactions, arbitration waits, read and write
// spans, ladder instants, the job lifecycle), a faulted two-cluster
// job (filter-scrub, quarantine and reintegrate instants), and one
// instant whose detail takes every escape.
TEST(PerfettoTest, RenderedBytesArePinned)
{
    CampaignSpec flat = metricsSpec(true);
    flat.base.maxBusRetries = 2;
    flat.base.watchdogRounds = 2;
    flat.base.reintegrateAfterCycles = 500;
    FaultConfig &fc = *flat.faults[1].faults;
    fc.memoryDrop.probability = 1.0;
    fc.memoryDrop.windowStart = 200;
    fc.memoryDrop.windowEnd = 260;
    fc.dataFlip.probability = 0.01;
    PerfettoTraceSink flat_sink;
    CampaignRunner flat_runner(1);
    flat_runner.attachTrace(&flat_sink, 1);
    flat_runner.run(flat);
    const std::string flat_json = flat_sink.render();
    for (const char *needle :
         {"\"name\":\"Read\"", "\"name\":\"Push\"", "arb-wait",
          "\"name\":\"read\"", "\"name\":\"write\"", "aborts ",
          "<- cache", "retry-exhausted", "watchdog-trip", "quarantine",
          "reintegrate", "data-flip", "job-claim", "job-run"})
        EXPECT_NE(flat_json.find(needle), std::string::npos) << needle;

    PerfettoTraceSink hier_sink;
    CampaignRunner hier_runner(1);
    hier_runner.attachTrace(&hier_sink, 0);
    hier_runner.run(hierTraceSpec());
    const std::string hier_json = hier_sink.render();
    for (const char *needle :
         {"filter-scrub", "\"name\":\"quarantine\"",
          "\"name\":\"reintegrate\"", "\"name\":\"Invalidate\""})
        EXPECT_NE(hier_json.find(needle), std::string::npos) << needle;

    PerfettoTraceSink escape_sink;
    escape_sink.onInstant("escape", kTraceFaultPid, 7, 42,
                          "q\" b\\ n\n r\r t\t c\x01 end");
    const std::string escape_json = escape_sink.render();
    EXPECT_NE(escape_json.find(
                  "\"detail\":\"q\\\" b\\\\ n\\n r\\r t\\t "
                  "c\\u0001 end\""),
              std::string::npos)
        << escape_json;

    EXPECT_EQ(tracePin(flat_json), "35a04ce1c3bcace2 89511");
    EXPECT_EQ(tracePin(hier_json), "d1c970a05e584e73 641519");
    EXPECT_EQ(tracePin(escape_json), "d6d7895530afe353 421");
}

// ---------------------------------------------------------------- //
// Journal v2 metric round trip

TEST(JournalMetricsTest, RecordRoundTripsSnapshotExactly)
{
    CampaignReport report =
        CampaignRunner(1).run(metricsSpec(true));
    for (const CampaignResult &r : report.results) {
        std::string line = encodeJournalRecord(r);
        std::optional<CampaignResult> back = decodeJournalRecord(line);
        ASSERT_TRUE(back.has_value());
        EXPECT_TRUE(back->metrics == r.metrics);
        EXPECT_TRUE(back->engine == r.engine);
    }
}

TEST(JournalMetricsTest, ResumeReproducesMetricBlocksByteIdentically)
{
    CampaignSpec spec = metricsSpec(true);
    std::string path =
        testing::TempDir() + "/obs_journal_metrics.txt";
    std::remove(path.c_str());

    SupervisorOptions sup;
    sup.journalPath = path;
    CampaignReport full = CampaignRunner(2, sup).run(spec);

    // Resume from the complete journal: every row merges verbatim.
    sup.resume = true;
    CampaignReport resumed = CampaignRunner(2, sup).run(spec);
    EXPECT_EQ(renderCampaignTable(full), renderCampaignTable(resumed));
    EXPECT_EQ(renderCampaignMetricsJson(full),
              renderCampaignMetricsJson(resumed));
    std::remove(path.c_str());
}

} // namespace
} // namespace fbsim
