/**
 * @file
 * Experiment P3 (section 5.1): line size effects.  The paper argues a
 * Futurebus system must standardize on ONE line size and that the
 * P896.2 working group should recommend it using miss-ratio /
 * traffic methodology [Smit85c].  This bench sweeps the line size at
 * fixed cache capacity and reports the classic trade-off:
 *
 *   - miss ratio falls with line size (spatial locality), then
 *     flattens or turns (cache pollution);
 *   - bus traffic (words moved per reference) grows with line size;
 *   - cycles per reference has an interior optimum.
 */

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/logging.h"
#include "common/random.h"

using namespace fbsim;
using namespace fbsim::bench;

namespace {

/**
 * Workload with spatial locality that ends at a 32-byte block: each
 * reference picks a block (geometric temporal locality) and a word
 * inside it, but consecutive blocks are scattered 256 bytes apart, so
 * lines beyond 32 bytes fetch pure waste.  This is the regime the
 * line-size methodology of [Smit85c] trades off.
 */
class ScatteredBlockWorkload : public RefStream
{
  public:
    ScatteredBlockWorkload(std::size_t blocks, double p_write,
                           std::size_t proc, std::uint64_t seed)
        : blocks_(blocks), pWrite_(p_write), proc_(proc),
          rng_(seed ^ (proc * 0x7919ull + 1))
    {
    }

    ProcRef
    next() override
    {
        std::size_t depth = depth_.draw(rng_);
        std::size_t block = depth % blocks_;
        Addr base = (1ull << 30) + proc_ * blocks_ * 256 + block * 256;
        ProcRef ref;
        ref.addr = base + rng_.below(4) * kWordBytes;   // 32B block
        ref.write = rng_.chance(pWrite_);
        return ref;
    }

  private:
    std::size_t blocks_;
    double pWrite_;
    std::size_t proc_;
    Geometric depth_{0.5};
    Rng rng_;
};

} // namespace

int
main(int argc, char **argv)
{
    std::printf("=== P3: line size selection at fixed capacity "
                "(section 5.1) ===\n\n");

    const std::size_t kLineSizes[] = {8, 16, 32, 64, 128};
    const std::size_t kCapacity = 16 * 1024;   // bytes per cache
    const std::size_t kProcs = 4;
    const std::uint64_t kRefs = 12000;

    // One campaign over the geometry axis: each point sets the
    // system line size and resizes the sets to hold capacity fixed.
    CampaignSpec spec;
    spec.refsPerProc = kRefs;
    spec.mixes.push_back(mixOf(ProtocolSetup{}, kProcs));
    for (std::size_t line : kLineSizes) {
        GeometryPoint g;
        g.name = strprintf("%zuB", line);
        g.lineBytes = line;
        g.numSets = kCapacity / (line * 2);
        g.assoc = 2;
        spec.geometries.push_back(g);
    }
    WorkloadSpec w;
    w.name = "scattered-blocks";
    w.make = [](std::size_t proc, std::size_t, std::uint64_t) {
        return std::unique_ptr<RefStream>(
            new ScatteredBlockWorkload(512, 0.25, proc, 3));
    };
    spec.workloads.push_back(std::move(w));
    std::vector<RunMetrics> rows =
        runCampaignMetrics(spec, parseJobs(argc, argv));

    std::printf("%-10s %10s %14s %14s %12s\n", "line", "miss%",
                "words/ref", "bus-cyc/ref", "utilization");
    bool ok = true;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RunMetrics &m = rows[i];
        std::printf("%-10zu %9.2f%% %14.3f %14.3f %12.3f\n",
                    kLineSizes[i], 100.0 * m.missRatio,
                    m.dataWordsPerRef, m.busCyclesPerRef,
                    m.procUtilization);
        ok = ok && m.consistent;
    }

    // Shape: miss ratio improves up to the workload's 32-byte block
    // size and stops improving beyond it, while traffic grows with
    // every doubling past the block size (pure waste).  The cycles
    // curve therefore has its optimum at the block size.
    const std::size_t kBlockIdx = 2;   // 32 bytes
    for (std::size_t i = 1; i <= kBlockIdx; ++i)
        ok = ok && rows[i].missRatio < rows[i - 1].missRatio;
    for (std::size_t i = kBlockIdx + 1; i < rows.size(); ++i) {
        ok = ok && rows[i].missRatio >= rows[kBlockIdx].missRatio * 0.9;
        ok = ok && rows[i].dataWordsPerRef >
                       rows[i - 1].dataWordsPerRef * 1.5;
    }
    // Interior optimum: 32B strictly beats both extremes on cycles.
    ok = ok && rows[kBlockIdx].busCyclesPerRef < rows[0].busCyclesPerRef;
    ok = ok && rows[kBlockIdx].busCyclesPerRef <
                   rows.back().busCyclesPerRef;

    std::printf("\nmismatched line sizes are rejected: the paper's "
                "cache-A-64B / cache-B-32B problem cannot be "
                "configured -\n");
    std::printf("fbsim enforces the working group's conclusion that "
                "\"a given system standardize on a given line size\" "
                "(System line size is global).\n");

    return verdict(ok, "P3 line size trade-off shape");
}
