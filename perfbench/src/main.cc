/**
 * @file
 * fbbench, the benchmark binary: runs one workload closed-loop for a
 * fixed wall-clock budget and prints its metrics as one JSON line.
 *
 *   fbbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--expect-digest HEX] [--spans PATH] [--setup-only]
 *
 * --trace 0 measures the end-to-end metrics with tracing off.
 * --trace 1 alternates traced and untraced units (their throughput
 * ratio is the tracing overhead), then re-runs units in alternative
 * configurations, and reports the per-layer metrics; --spans names the
 * file the recorded spans are written to.  --setup-only stops after
 * set-up and prints when set-up ended (CLOCK_MONOTONIC), which
 * run.py turns into setup_s.  The JSON line also carries the digest of
 * the warm-up unit, which perfbench/digests.json records per workload
 * at the default seed.  Nothing is printed while units run.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.h"
#include "harness.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
    std::uint64_t expectDigest = 0;
    std::string spansPath;
};

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--setup-only") {
            o.setupOnly = true;
            continue;
        }
        if (!v)
            return false;
        ++i;
        char *end = nullptr;
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v, &end, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v, &end);
        else if (a == "--trace")
            o.trace = std::strtol(v, &end, 10) != 0;
        else if (a == "--expect-digest")
            o.expectDigest = std::strtoull(v, &end, 16);
        else if (a == "--spans")
            o.spansPath = v;
        else
            return false;
        if (end && *end != '\0')
            return false;
    }
    return !o.workload.empty() && o.seconds > 0;
}

/** Units per stretch of the run over which unit_ms_tail is taken. */
constexpr std::size_t kTailWindow = 100;

void
printMetric(bool &first, const std::string &name, double value)
{
    std::printf("%s\"%s\": %.10g", first ? "" : ", ", name.c_str(), value);
    first = false;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: fbbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--expect-digest HEX] [--spans PATH] "
                     "[--setup-only]\n");
        return 2;
    }
    // leafStall faults warn once per stall window; one line per site
    // is enough, and the warm-up unit emits it.
    fbsim::setWarnSiteLimit(1);

    // Set-up: static tables, trace parse, spec build, first assembly.
    Tracer &tr = tracer();
    tr.on = opt.trace;
    auto workload = makeWorkload(opt.workload, opt.seed);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    tr.on = false;
    workload->prepare();
    const std::int64_t setup_end = nowNs();
    if (opt.setupOnly) {
        std::printf("{\"setup_end_ns\": %" PRId64 "}\n", setup_end);
        return 0;
    }

    Tally tally;
    workload->run();
    UnitResult warm = workload->check(0);
    const std::uint64_t digest = warm.digest;
    tally.add(warm, opt.expectDigest);

    // Closed loop: one unit at a time until the budget is spent, and
    // at least one traced and one untraced unit.
    std::vector<double> ms, traced_ms;
    double work = 0, traced_work = 0;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    std::uint32_t unit = 1;
    for (; unit <= 2 || nowNs() < deadline; ++unit) {
        const bool traced = opt.trace && unit % 2 == 0;
        tr.on = traced;
        tr.unit = unit;
        SpanScope span("unit");
        workload->prepare();
        const std::int64_t t0 = nowNs();
        workload->run();
        const double unit_ms = static_cast<double>(nowNs() - t0) / 1e6;
        UnitResult r = workload->check(unit);
        (traced ? traced_ms : ms).push_back(unit_ms);
        (traced ? traced_work : work) += static_cast<double>(r.work);
        tally.add(r, opt.expectDigest);
    }
    const double total_s = [&] {
        double s = 0;
        for (double v : ms)
            s += v;
        return s / 1e3;
    }();
    const double work_per_s = work / total_s;

    const Tail tail = windowedTail(ms, kTailWindow);

    Metrics metrics;
    if (opt.trace) {
        tr.on = true;
        tr.unit = unit;
        for (const std::string &name : perLayerNames())
            metrics[name] = 0;
        workload->layers(metrics);
        tr.on = false;
        if (metrics.size() != perLayerNames().size()) {
            std::fprintf(stderr, "a workload reported an unlisted "
                                 "per-layer metric\n");
            return 1;
        }
        double traced_s = 0;
        for (double v : traced_ms)
            traced_s += v / 1e3;
        metrics["tracing_overhead"] = (traced_work / traced_s) / work_per_s;
        if (!opt.spansPath.empty()) {
            char header[256];
            std::snprintf(header, sizeof header,
                          "\"workload\": \"%s\", \"seed\": %" PRIu64,
                          opt.workload.c_str(), opt.seed);
            if (!tr.write(opt.spansPath, header)) {
                std::fprintf(stderr, "cannot write %s\n",
                             opt.spansPath.c_str());
                return 1;
            }
        }
    } else {
        metrics["work_per_s"] = work_per_s;
        metrics["unit_ms_tail"] = tail.value;
        metrics["peak_rss_mb"] = peakRssMb();
    }

    // Output, now that timing is over.
    std::fputs(fbsim::warnSuppressionSummary().c_str(), stderr);
    for (const std::string &f : tally.failures)
        std::fprintf(stderr, "unit failed: %s\n", f.c_str());
    std::printf("%s: %zu timed units, %.0f %s in %.3f s untraced "
                "(%.6g %s/s), unit p50 %.4g ms, p%g %.4g ms "
                "(median of %zu stretches); "
                "%" PRIu64 "/%" PRIu64 " units failed\n",
                opt.workload.c_str(), ms.size(), work,
                workload->workName(), total_s, work_per_s,
                workload->workName(), median(ms), tail.pct, tail.value,
                std::max<std::size_t>(1, ms.size() / kTailWindow),
                tally.failed, tally.attempted);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"digest\": \"%016" PRIx64
                "\", \"setup_end_ns\": %" PRId64 ", \"metrics\": {",
                tally.failed == 0 ? "true" : "false", tally.attempted,
                tally.failed, digest, setup_end);
    bool first = true;
    for (const auto &[name, value] : metrics)
        printMetric(first, name, value);
    std::printf("}}\n");
    return 0;
}
