/**
 * @file
 * Deterministic cycle-domain metrics: named counters, gauges and
 * allocation-free log2-bucket histograms.
 *
 * Everything here lives in the *simulation* cycle domain - no wall
 * clock ever enters a metric, so two runs of the same seed produce
 * byte-identical snapshots.  Snapshots merge associatively and
 * commutatively (counters and histogram buckets add, gauges take the
 * max, the union is ordered by name), which is what lets
 * CampaignRunner's merge-by-index keep campaign metric blocks
 * byte-identical at any `--jobs N`.
 *
 * Histogram buckets are powers of two: value v lands in bucket
 * std::bit_width(v) (bucket 0 holds exactly v == 0, bucket k holds
 * [2^(k-1), 2^k - 1]).  A fixed 65-entry array makes record() one
 * increment and a handful of compares - no allocation on the hot path.
 * Percentiles derive deterministically from the exact bucket counts:
 * the bucket holding the requested rank reports its upper bound,
 * clamped to the recorded [min, max].
 */

#ifndef FBSIM_OBS_METRICS_H_
#define FBSIM_OBS_METRICS_H_

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace fbsim {

/** What a MetricEntry holds; determines how two entries merge. */
enum class MetricKind : std::uint8_t
{
    Counter = 0,   ///< monotone count; merges by addition
    Gauge = 1,     ///< level sample; merges by max
    Histogram = 2, ///< log2-bucket distribution; merges bucket-wise
};

const char *metricKindName(MetricKind kind);

/**
 * The mergeable state of a log2 histogram.  Plain data with exact
 * equality so campaign determinism tests can compare snapshots
 * bucket-for-bucket.
 */
struct HistogramData
{
    /** bit_width of a uint64 is at most 64, so 65 buckets cover all. */
    static constexpr std::size_t kBuckets = 65;

    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /** Undefined (all-ones) while count == 0. */
    std::uint64_t min = ~std::uint64_t{0};
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    bool operator==(const HistogramData &) const = default;

    /** Bucket-wise addition; min/max widen, count/sum add. */
    void merge(const HistogramData &other);

    /**
     * Deterministic percentile (pct in [0,100]): the value at rank
     * ceil(pct/100 * count), reported as the holding bucket's upper
     * bound clamped to [min, max].  0 when empty.
     */
    std::uint64_t percentile(unsigned pct) const;

    double mean() const;
};

/** Recording wrapper around HistogramData (allocation-free record). */
class Histogram
{
  public:
    static std::size_t
    bucketOf(std::uint64_t value)
    {
        return static_cast<std::size_t>(std::bit_width(value));
    }

    /** Largest value bucket `b` can hold. */
    static std::uint64_t bucketUpperBound(std::size_t b);

    void
    record(std::uint64_t value)
    {
        ++data_.count;
        data_.sum += value;
        if (value < data_.min)
            data_.min = value;
        if (value > data_.max)
            data_.max = value;
        ++data_.buckets[bucketOf(value)];
    }

    /** Fold another histogram's recorded data into this one. */
    void merge(const HistogramData &other) { data_.merge(other); }

    const HistogramData &data() const { return data_; }

  private:
    HistogramData data_;
};

/** Monotone counter. */
class Counter
{
  public:
    void add(std::uint64_t delta = 1) { value_ += delta; }
    void set(std::uint64_t value) { value_ = value; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Level sample; merges by max so it stays order-independent. */
class Gauge
{
  public:
    void set(std::uint64_t value) { value_ = value; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** One named metric in a snapshot. */
struct MetricEntry
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t value = 0;  ///< counter / gauge payload
    HistogramData hist;       ///< histogram payload

    bool operator==(const MetricEntry &) const = default;
};

/** Immutable, name-sorted view of a registry (or a merge of many). */
struct MetricsSnapshot
{
    std::vector<MetricEntry> entries;  ///< sorted by name, unique

    bool operator==(const MetricsSnapshot &) const = default;
    bool empty() const { return entries.empty(); }

    /** Entry by exact name; null when absent. */
    const MetricEntry *find(const std::string &name) const;
};

/**
 * Mutable registry of named metrics.  Lookup creates on first use;
 * returned references are stable for the registry's lifetime (deque
 * backing).  Not thread-safe - each shared-nothing campaign job owns
 * its own registry, exactly like its System.
 */
class MetricRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Name-sorted copy of the current state. */
    MetricsSnapshot snapshot() const;

  private:
    struct Slot
    {
        std::string name;
        MetricKind kind;
        Counter *counter = nullptr;
        Gauge *gauge = nullptr;
        Histogram *histogram = nullptr;
    };

    Slot &slot(const std::string &name, MetricKind kind);

    std::vector<Slot> slots_;
    std::deque<Counter> counters_;
    std::deque<Gauge> gauges_;
    std::deque<Histogram> histograms_;
};

/**
 * Associative, commutative merge: union by name; counters and
 * histograms add, gauges take the max.  Merging entries of the same
 * name but different kinds is a caller bug and panics.
 */
MetricsSnapshot mergeSnapshots(const MetricsSnapshot &a,
                               const MetricsSnapshot &b);

/** JSON object {"name": value | {histogram fields}, ...}. */
std::string renderMetricsJson(const MetricsSnapshot &snapshot);

} // namespace fbsim

#endif // FBSIM_OBS_METRICS_H_
