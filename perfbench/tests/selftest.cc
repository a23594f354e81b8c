/**
 * @file
 * Self-tests of the benchmark's own machinery: the tail rule, the
 * digest check's failure accounting, and run-to-run determinism of
 * digests and per-layer counts.  Exit status 0 iff every check holds.
 *
 *   cmake --build .bench_build --target fbbench_selftest
 *   .bench_build/fbbench_selftest
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "harness.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                          \
    do {                                                                     \
        if (!(cond)) {                                                       \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
            ++failures;                                                      \
        }                                                                    \
    } while (0)

/** Warm-up plus `units` units; the digest of the last one. */
std::uint64_t
runUnits(Workload &w, int units, Tally &tally, std::uint64_t expect = 0)
{
    std::uint64_t digest = 0;
    for (int u = 0; u <= units; ++u) {
        w.prepare();
        w.run();
        UnitResult r = w.check(static_cast<std::uint64_t>(u));
        digest = r.digest;
        tally.add(r, expect);
    }
    return digest;
}

void
tailRuleTest()
{
    const double ladder[] = {50, 75, 90, 95, 98, 99, 99.5, 99.9};
    for (std::size_t n = 20; n <= 20000; ++n) {
        double p = tailPercentile(n);
        CHECK(samplesBeyond(n, p) >= 10);
        for (double q : ladder) {
            if (q > p && samplesBeyond(n, q) >= 10) {
                std::printf("n=%zu picks p%g but p%g has >= 10 beyond\n",
                            n, p, q);
                ++failures;
                return;
            }
        }
    }
    CHECK(tailPercentile(20) == 50);
    CHECK(tailPercentile(39) == 50);
    CHECK(tailPercentile(40) == 75);
    CHECK(tailPercentile(99) == 75);
    CHECK(tailPercentile(100) == 90);
    CHECK(tailPercentile(650) == 98);
    CHECK(tailPercentile(1000) == 99);
    CHECK(samplesBeyond(100, 90) == 10);

    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    CHECK(percentile(v, 90) == 90);
    CHECK(median(v) == 50.5);

    // A burst of slow units in one stretch leaves the windowed tail at
    // the p90 of the other stretches; a short run is one stretch.
    std::vector<double> run(1500, 10.0);
    for (int i = 0; i < 1500; i += 10)
        run[i] = 12.0;
    for (int i = 700; i < 730; ++i)
        run[i] = 30.0;
    Tail t = windowedTail(run, 100);
    CHECK(t.pct == 90);
    CHECK(t.value == 10.0);
    CHECK(percentile(run, tailPercentile(run.size())) == 30.0);
    Tail one = windowedTail(v, 100);
    CHECK(one.pct == 90 && one.value == 90);
    Tail few = windowedTail(std::vector<double>(v.begin(), v.begin() + 60),
                            100);
    CHECK(few.pct == 75 && few.value == 45);
}

void
perturbedUnitFailsDigest()
{
    Tally clean;
    auto ref = makeWorkload("campaign-faulted", 1);
    const std::uint64_t recorded = runUnits(*ref, 1, clean);
    CHECK(clean.failed == 0);

    WorkloadOptions opts;
    opts.perturbCacheSeed = 1;
    auto perturbed = makeWorkload("campaign-faulted", 1, opts);
    Tally tally;
    runUnits(*perturbed, 1, tally, recorded);
    CHECK(tally.attempted == 2);
    CHECK(tally.failed == 2);
    CHECK(!tally.failures.empty() &&
          tally.failures[0].find("digest") != std::string::npos);

    // The unperturbed workload matches its own record.
    Tally again;
    auto same = makeWorkload("campaign-faulted", 1);
    runUnits(*same, 1, again, recorded);
    CHECK(again.failed == 0);
}

void
sameSeedSameDigestsAndCounts()
{
    for (const std::string &name : workloadNames()) {
        std::uint64_t digest[2] = {};
        Metrics layers[2];
        for (int run = 0; run < 2; ++run) {
            Tally tally;
            auto w = makeWorkload(name, 7);
            tracer().on = true;
            digest[run] = runUnits(*w, 2, tally);
            w->layers(layers[run]);
            tracer().on = false;
            CHECK(tally.failed == 0);
        }
        if (digest[0] != digest[1]) {
            std::printf("%s: digests differ between runs\n", name.c_str());
            ++failures;
        }
        for (const std::string &count : perLayerCountNames()) {
            if (layers[0][count] != layers[1][count]) {
                std::printf("%s: %s differs between runs (%g vs %g)\n",
                            name.c_str(), count.c_str(), layers[0][count],
                            layers[1][count]);
                ++failures;
            }
        }
    }
}

} // namespace

int
main()
{
    fbsim::setWarnSiteLimit(1);
    tailRuleTest();
    perturbedUnitFailsDigest();
    sameSeedSameDigestsAndCounts();
    std::printf("%s (%d failures)\n", failures ? "FAIL" : "PASS", failures);
    return failures ? 1 : 0;
}
