/**
 * @file
 * Campaign-runner scaling and trace-parse throughput, recorded as
 * BENCH_campaign.json.
 *
 * Two measurements:
 *
 *  1. Trace parsing: the in-place scanner (parseTrace) on a synthetic
 *     trace, in ns per reference, checked to return the references
 *     it was written from.
 *
 *  2. Campaign scaling: the mixed Berkeley/Illinois/Firefly fault
 *     campaign (the PR-3 acceptance study) as a CampaignSpec of
 *     seed-replica jobs, executed at --jobs 1/2/4/8.  Reports jobs/sec
 *     per worker count and cross-checks that every worker count
 *     produced the byte-identical merged report - the speedup is free,
 *     the results are the same.
 *
 * Flags: --out <path> (default BENCH_campaign.json in the CWD),
 * --quick (smaller workload for CI smoke).
 *
 * Supervised single-pass mode (the CI resilience smoke): when
 * --journal or --resume is given, the bench instead runs the campaign
 * exactly once under the given supervision options (--jobs N,
 * --timeout-ms N, --retries N, --refs N) and prints *only* the merged
 * campaign table on stdout - so two runs can be diffed byte for byte.
 * Exit status 0 iff every job completed with status ok.  This is the
 * harness for the kill -9 + --resume acceptance check: an interrupted
 * journaled run, resumed, must print the same table as an
 * uninterrupted one.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "campaign/campaign_runner.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "text/report.h"
#include "trace/trace_io.h"

using namespace fbsim;
using namespace fbsim::bench;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

// ---------------------------------------------------------------- //
// Trace parsing.

std::vector<TraceRef>
syntheticTrace(std::size_t refs, std::size_t procs)
{
    std::vector<TraceRef> trace;
    trace.reserve(refs);
    Rng rng(1234);
    for (std::size_t i = 0; i < refs; ++i) {
        TraceRef r;
        r.proc = static_cast<MasterId>(rng.below(procs));
        r.write = rng.chance(0.3);
        r.addr = rng.below(1 << 20) * kWordBytes;
        trace.push_back(r);
    }
    return trace;
}

struct ParseTiming
{
    double nsPerRef = 0;
    std::size_t refs = 0;
    bool identical = false;   ///< parsed back exactly what was written
};

ParseTiming
measureTraceParse(std::size_t refs, int reps)
{
    const std::vector<TraceRef> trace = syntheticTrace(refs, 8);
    std::ostringstream out;
    writeTrace(out, trace);
    const std::string text = out.str();
    ParseTiming t;

    std::vector<TraceRef> parsed;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
        std::string err;
        parsed = parseTrace(text, &err);
    }
    t.nsPerRef = secondsSince(start) * 1e9 /
                 (static_cast<double>(refs) * reps);
    t.refs = parsed.size();
    t.identical = parsed == trace;
    return t;
}

// ---------------------------------------------------------------- //
// Campaign scaling: the mixed fault study over seed replicas.

CampaignSpec
mixedFaultCampaign(std::size_t replicas, std::uint64_t refs_per_proc)
{
    CampaignSpec spec;
    spec.campaignSeed = 1;
    spec.refsPerProc = refs_per_proc;
    spec.base.lineBytes = 32;
    spec.base.checkEveryAccess = true;

    ProtocolMix mix;
    mix.name = "Berkeley+Illinois+Firefly";
    const ProtocolKind kinds[] = {ProtocolKind::Berkeley,
                                  ProtocolKind::Illinois,
                                  ProtocolKind::Firefly};
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
        MixSlot slot;
        slot.cache.protocol = kinds[i];
        slot.cache.numSets = 4;
        slot.cache.assoc = 2;
        slot.cache.seed = i + 1;
        mix.slots.push_back(slot);
    }
    spec.mixes.push_back(std::move(mix));

    Arch85Params params;
    params.pShared = 0.3;
    params.sharedLines = 12;
    for (std::size_t rep = 0; rep < replicas; ++rep) {
        WorkloadSpec w = arch85SeededWorkload(
            "seed-rep" + std::to_string(rep), params);
        spec.workloads.push_back(std::move(w));
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
        fc.dataFlip.probability = 0.002;
        fc.responseFlip.probability = 0.002;
        fc.snooperMute.probability = 0.02;
        return std::optional<FaultConfig>(fc);
    };
    return spec;
}

struct ScalePoint
{
    unsigned workers = 0;
    double seconds = 0;
    double jobsPerSec = 0;
    bool identical = false;   ///< report matches the --jobs 1 bytes
};

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = "BENCH_campaign.json";
    bool quick = false;
    bool single_pass = false;
    unsigned pass_jobs = 1;
    std::uint64_t pass_refs = 0;   ///< 0 = the bench default
    SupervisorOptions sup;
    auto flagValue = [&](int &i, const char *name,
                         const char **value) {
        std::size_t len = std::strlen(name);
        if (std::strncmp(argv[i], name, len) == 0 &&
            argv[i][len] == '=') {
            *value = argv[i] + len + 1;
            return true;
        }
        if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
            *value = argv[++i];
            return true;
        }
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const char *value = nullptr;
        if (flagValue(i, "--out", &value)) {
            out_path = value;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (flagValue(i, "--jobs", &value)) {
            pass_jobs = static_cast<unsigned>(std::atoi(value));
        } else if (flagValue(i, "--refs", &value)) {
            pass_refs = static_cast<std::uint64_t>(std::atoll(value));
        } else if (flagValue(i, "--timeout-ms", &value)) {
            sup.timeoutMs =
                static_cast<std::uint64_t>(std::atoll(value));
        } else if (flagValue(i, "--retries", &value)) {
            sup.retries = static_cast<unsigned>(std::atoi(value));
        } else if (flagValue(i, "--journal", &value)) {
            sup.journalPath = value;
            single_pass = true;
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            sup.resume = true;
            single_pass = true;
        }
    }

    if (single_pass) {
        if (sup.resume && sup.journalPath.empty()) {
            std::fprintf(stderr, "--resume needs --journal <path>\n");
            return 1;
        }
        const std::uint64_t refs =
            pass_refs ? pass_refs : (quick ? 800u : 60000u);
        CampaignSpec spec = mixedFaultCampaign(8, refs);
        CampaignReport report =
            CampaignRunner(pass_jobs, sup).run(spec);
        // Table only: stdout is the diffable artifact.
        std::fputs(renderCampaignTable(report).c_str(), stdout);
        std::fputs(warnSuppressionSummary().c_str(), stderr);
        for (const CampaignResult &r : report.results) {
            if (r.status != JobStatus::Ok)
                return 1;
        }
        return 0;
    }

    std::printf("=== campaign runner throughput ===\n\n");

    // 1. Trace parse.
    const std::size_t kParseRefs = quick ? 20000 : 200000;
    ParseTiming parse = measureTraceParse(kParseRefs, quick ? 2 : 5);
    std::printf("trace parse (%zu refs): %.1f ns/ref, round trip "
                "identical: %s\n",
                parse.refs, parse.nsPerRef,
                parse.identical ? "yes" : "NO");

    // 2. Campaign scaling.
    const std::size_t kReplicas = 8;
    const std::uint64_t kRefs = quick ? 800 : 60000;
    CampaignSpec spec = mixedFaultCampaign(kReplicas, kRefs);
    std::printf("\nmixed fault campaign: %zu jobs x 3 procs x %llu "
                "refs/proc (host cpus: %u)\n",
                spec.numJobs(),
                static_cast<unsigned long long>(kRefs),
                ThreadPool::hardwareJobs());
    std::printf("%8s %12s %12s %12s\n", "jobs", "seconds", "jobs/sec",
                "identical");

    std::vector<ScalePoint> points;
    std::string baseline_table;
    bool ok = parse.identical;
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        auto start = std::chrono::steady_clock::now();
        CampaignReport report = CampaignRunner(workers).run(spec);
        ScalePoint p;
        p.workers = workers;
        p.seconds = secondsSince(start);
        p.jobsPerSec = static_cast<double>(report.results.size()) /
                       p.seconds;
        std::string table = renderCampaignTable(report);
        if (workers == 1)
            baseline_table = table;
        p.identical = table == baseline_table;
        ok = ok && p.identical;
        points.push_back(p);
        std::printf("%8u %12.3f %12.2f %12s\n", p.workers, p.seconds,
                    p.jobsPerSec, p.identical ? "yes" : "NO");
    }

    // Record.
    FILE *out = std::fopen(out_path, "w");
    if (out) {
        std::fprintf(out, "{\n");
        std::fprintf(
            out,
            "  \"description\": \"Campaign-runner record for the "
            "parallel campaign PR. 'scaling' times the mixed "
            "Berkeley/Illinois/Firefly fault campaign (%zu "
            "shared-nothing jobs) at --jobs 1/2/4/8; 'identical' "
            "means the merged report was byte-identical to the "
            "--jobs 1 run. 'trace_parse' times the in-place "
            "scanner (parseTrace), checked to return the references "
            "the text was written from. Speedup scales with physical "
            "cores; see machine.cpus.\",\n",
            spec.numJobs());
        std::fprintf(out, "  \"machine\": {\n    \"cpus\": %u\n  },\n",
                     ThreadPool::hardwareJobs());
        std::fprintf(out,
                     "  \"trace_parse\": {\n"
                     "    \"refs\": %zu,\n"
                     "    \"ns_per_ref\": %.1f,\n"
                     "    \"identical\": %s\n  },\n",
                     parse.refs, parse.nsPerRef,
                     parse.identical ? "true" : "false");
        std::fprintf(out, "  \"scaling\": {\n");
        for (std::size_t i = 0; i < points.size(); ++i) {
            const ScalePoint &p = points[i];
            std::fprintf(out,
                         "    \"jobs_%u\": {\n"
                         "      \"seconds\": %.3f,\n"
                         "      \"jobs_per_sec\": %.2f,\n"
                         "      \"speedup_vs_serial\": %.2f,\n"
                         "      \"identical_report\": %s\n    }%s\n",
                         p.workers, p.seconds, p.jobsPerSec,
                         points[0].seconds / p.seconds,
                         p.identical ? "true" : "false",
                         i + 1 < points.size() ? "," : "");
        }
        std::fprintf(out, "  }\n}\n");
        std::fclose(out);
        std::printf("\nwrote %s\n", out_path);
    } else {
        std::printf("\ncannot write %s\n", out_path);
        ok = false;
    }

    std::fputs(warnSuppressionSummary().c_str(), stderr);
    return verdict(ok, "campaign throughput (reports byte-identical "
                       "at every worker count)");
}
