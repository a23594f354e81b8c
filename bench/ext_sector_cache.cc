/**
 * @file
 * Extension experiment E1 (section 5.1's sector-cache discussion,
 * [Hill84]): the tag-economy / miss-ratio trade-off of sector caches.
 *
 * At equal data capacity, a sector cache with K subsectors per sector
 * needs 1/K of the tags.  On workloads whose locality spans whole
 * sectors this is nearly free; on scattered workloads sector-granular
 * allocation thrashes.  The paper flags sector support as "not fully
 * explored" and requires consistency status per transfer subsector -
 * which the store enforces (and a run with the checker verifies).
 */

#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/random.h"

using namespace fbsim;
using namespace fbsim::bench;

namespace {

/**
 * Workload touching runs of consecutive lines (sector-friendly).
 * Region bases are drawn at random 256-byte-aligned spots in a large
 * region so set indexing is exercised uniformly (a fixed stride would
 * alias sets for plain and sector organizations alike).
 */
class SequentialRunsWorkload : public RefStream
{
  public:
    SequentialRunsWorkload(std::size_t regions, std::size_t proc,
                           std::uint64_t seed)
        : rng_(seed ^ (proc * 77 + 1))
    {
        Addr base = (1ull << 28) + (proc << 24);
        for (std::size_t r = 0; r < regions; ++r)
            bases_.push_back(base + rng_.below(1 << 14) * 32);
    }

    ProcRef
    next() override
    {
        if (left_ == 0) {
            cursor_ = bases_[rng_.below(bases_.size())];
            left_ = 32;   // 256 bytes = 8 consecutive lines, 4 words
        }
        ProcRef ref;
        ref.addr = cursor_;
        ref.write = rng_.chance(0.3);
        cursor_ += kWordBytes;
        --left_;
        return ref;
    }

  private:
    Rng rng_;
    std::vector<Addr> bases_;
    Addr cursor_ = 0;
    int left_ = 0;
};

/**
 * Workload touching isolated lines (sector-hostile): each hot line
 * sits alone at a random spot, so every resident line costs a whole
 * sector frame.
 */
class ScatteredLinesWorkload : public RefStream
{
  public:
    ScatteredLinesWorkload(std::size_t lines, std::size_t proc,
                           std::uint64_t seed)
        : rng_(seed ^ (proc * 13 + 5))
    {
        Addr base = (1ull << 29) + (proc << 24);
        // Arbitrary line alignment: plain caches index all their
        // sets while each line still costs the sector cache a frame.
        for (std::size_t n = 0; n < lines; ++n)
            lines_.push_back(base + rng_.below(1 << 17) * 32);
    }

    ProcRef
    next() override
    {
        ProcRef ref;
        ref.addr = lines_[rng_.below(lines_.size())] +
                   rng_.below(4) * kWordBytes;
        ref.write = rng_.chance(0.3);
        return ref;
    }

  private:
    Rng rng_;
    std::vector<Addr> lines_;
};

struct Row
{
    std::size_t tags;
    RunMetrics metrics;
};

Row
runConfig(std::size_t subsectors, bool sequential)
{
    const std::size_t kProcs = 4;
    const std::size_t kDataLines = 256;   // lines of capacity per cache
    SystemConfig config;
    System sys(config);
    std::size_t tags_per_cache;
    for (std::size_t i = 0; i < kProcs; ++i) {
        CacheSpec spec;
        spec.assoc = 2;
        spec.seed = i + 1;
        if (subsectors == 1) {
            spec.numSets = kDataLines / spec.assoc;
            tags_per_cache = kDataLines;
            sys.addCache(spec);
        } else {
            spec.numSets = kDataLines / (subsectors * spec.assoc);
            tags_per_cache = kDataLines / subsectors;
            sys.addSectorCache(spec, subsectors);
        }
    }
    std::vector<std::unique_ptr<RefStream>> streams;
    std::vector<RefStream *> raw;
    for (std::size_t p = 0; p < kProcs; ++p) {
        if (sequential) {
            streams.push_back(
                std::make_unique<SequentialRunsWorkload>(12, p, 3));
        } else {
            streams.push_back(
                std::make_unique<ScatteredLinesWorkload>(192, p, 3));
        }
        raw.push_back(streams.back().get());
    }
    RunMetrics m = runTimed(sys, raw, 10000);
    return {tags_per_cache, m};
}

} // namespace

int
main()
{
    std::printf("=== E1: sector caches - tag economy vs miss ratio "
                "(section 5.1 extension) ===\n\n");

    const std::size_t kSub[] = {1, 2, 4, 8};
    bool ok = true;
    for (bool sequential : {true, false}) {
        std::printf("%s workload:\n%-24s %8s %10s %14s %12s\n",
                    sequential ? "sequential-runs" : "scattered-lines",
                    "organization", "tags", "miss%", "bus-cyc/ref",
                    "consistent");
        double base_miss = 0;
        for (std::size_t sub : kSub) {
            Row row = runConfig(sub, sequential);
            std::printf("%-12s (K=%zu)%6s %8zu %9.2f%% %14.3f %12s\n",
                        sub == 1 ? "plain" : "sector", sub, "",
                        row.tags, 100.0 * row.metrics.missRatio,
                        row.metrics.busCyclesPerRef,
                        row.metrics.consistent ? "yes" : "NO");
            ok = ok && row.metrics.consistent;
            if (sub == 1)
                base_miss = row.metrics.missRatio;
            if (sequential) {
                // Sector-local workload: an 8x tag reduction costs at
                // most a few miss-ratio points.
                ok = ok && row.metrics.missRatio <=
                               base_miss * (sub <= 4 ? 2.0 : 4.0) +
                                   0.002;
            } else if (sub == 8) {
                // Scattered workload: one frame per isolated line -
                // the tag shortage must hurt badly.
                ok = ok && row.metrics.missRatio > base_miss * 2.5;
            }
        }
        std::printf("\n");
    }

    std::printf("consistency status lives with the transfer subsector "
                "(one MOESI state per line within a sector), as the "
                "paper concludes it must.\n");
    return verdict(ok, "E1 sector-cache trade-off");
}
