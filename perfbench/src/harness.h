/**
 * @file
 * Measurement plumbing shared by fbbench and its self-tests: clocks,
 * order statistics (median, the tail rule), the result digest,
 * unit-failure accounting and the in-memory span recorder behind the
 * traced run.
 */

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** CLOCK_MONOTONIC nanoseconds (the clock run.py's spawn stamp uses). */
std::int64_t nowNs();

/** CPU seconds consumed by every thread of this process. */
double processCpuSeconds();

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Median of `v` (mean of the middle pair for even sizes). */
double median(std::vector<double> v);

/** Nearest-rank percentile: the value at rank ceil(pct/100 * n). */
double percentile(std::vector<double> v, double pct);

/** Samples strictly beyond the nearest-rank `pct` position of n. */
std::size_t samplesBeyond(std::size_t n, double pct);

/**
 * The tail rule: the highest percentile of the ladder
 * {50, 75, 90, 95, 98, 99, 99.5, 99.9} with at least ten samples
 * beyond it at `n` samples; 50 when even the median has fewer.
 */
double tailPercentile(std::size_t n);

/** A tail estimate: the percentile used and the median of its values. */
struct Tail
{
    double pct = 0;
    double value = 0;
};

/**
 * Tail of a run's unit times that a short burst of slow units (a
 * preemption, a noisy neighbour) cannot move on its own: the samples,
 * in run order, are cut into max(1, n / window) stretches of equal
 * size, the tail rule's percentile is taken within each stretch, and
 * the median over the stretches is reported.  With window = 100 every
 * stretch of a long run holds 100-199 samples, so its tail is the p90.
 */
Tail windowedTail(const std::vector<double> &samples, std::size_t window);

/** FNV-1a over a canonical byte stream of a unit's outputs. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t n);
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void str(std::string_view s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Outcome of one unit's checks. */
struct UnitResult
{
    bool ok = true;
    std::string failure;        ///< first failed check ("" when ok)
    std::uint64_t digest = 0;
    std::uint64_t work = 0;     ///< work items the unit completed

    void
    fail(std::string why)
    {
        if (ok)
            failure = std::move(why);
        ok = false;
    }
};

/** Units attempted / failed over a run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;   ///< first few reasons

    /**
     * Count one unit; `expect_digest` != 0 also fails a unit whose
     * digest differs (the default-seed record check).
     */
    void add(UnitResult r, std::uint64_t expect_digest);
};

/**
 * One recorded span: a named interval around a call into a layer, the
 * enclosing span, and the unit it belongs to.  Aggregate spans
 * (calls > 1) stand for many short calls whose durations were summed
 * in place; their end is start + the summed duration.
 */
struct Span
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1;
    std::uint32_t unit = 0;
    std::uint64_t calls = 1;
};

/**
 * In-memory span recorder.  Recording happens only while `on`; the
 * spans are written out once, after measurement.
 */
class Tracer
{
  public:
    bool on = false;
    std::uint32_t unit = 0;

    std::int32_t begin(const char *name);
    void end(std::int32_t id);
    /** Record an aggregate child of the innermost open span (only
     *  while `on`). */
    void aggregate(const char *name, std::int64_t start,
                   std::int64_t total_ns, std::uint64_t calls);

    /** Per span: its duration minus the durations of its children. */
    std::vector<std::int64_t> selfTimes() const;

    /** Durations (total, not self) of every span called `name`. */
    std::vector<double> durations(std::string_view name) const;
    /** Sum of self times of every span called `name`. */
    double selfSum(std::string_view name) const;

    /** Write every span with its self time as JSON. */
    bool write(const std::string &path, const std::string &header) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/** The process-wide recorder. */
Tracer &tracer();

/** RAII span around one call; free when tracing is off. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name)
        : id_(tracer().on ? tracer().begin(name) : -1)
    {
    }
    ~SpanScope()
    {
        if (id_ >= 0)
            tracer().end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    std::int32_t id_;
};

/** Named per-layer metrics of one run. */
using Metrics = std::map<std::string, double>;

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_
