#include "obs/metrics.h"

#include <algorithm>

#include "common/logging.h"

namespace fbsim {

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:   return "counter";
      case MetricKind::Gauge:     return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

std::uint64_t
Histogram::bucketUpperBound(std::size_t b)
{
    if (b == 0)
        return 0;
    if (b >= 64)
        return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
}

void
HistogramData::merge(const HistogramData &other)
{
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    for (std::size_t i = 0; i < kBuckets; ++i)
        buckets[i] += other.buckets[i];
}

std::uint64_t
HistogramData::percentile(unsigned pct) const
{
    if (count == 0)
        return 0;
    if (pct > 100)
        pct = 100;
    // rank = ceil(pct/100 * count), clamped to [1, count] so pct 0
    // reports the minimum.
    std::uint64_t rank = (count * pct + 99) / 100;
    if (rank == 0)
        rank = 1;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        cum += buckets[b];
        if (cum >= rank) {
            std::uint64_t v = Histogram::bucketUpperBound(b);
            return std::clamp(v, min, max);
        }
    }
    return max;
}

double
HistogramData::mean() const
{
    return count == 0 ? 0.0
                      : static_cast<double>(sum) /
                            static_cast<double>(count);
}

const MetricEntry *
MetricsSnapshot::find(const std::string &name) const
{
    auto it = std::lower_bound(
        entries.begin(), entries.end(), name,
        [](const MetricEntry &e, const std::string &n) {
            return e.name < n;
        });
    if (it == entries.end() || it->name != name)
        return nullptr;
    return &*it;
}

MetricRegistry::Slot &
MetricRegistry::slot(const std::string &name, MetricKind kind)
{
    for (Slot &s : slots_) {
        if (s.name == name) {
            fbsim_assert(s.kind == kind);
            return s;
        }
    }
    Slot s;
    s.name = name;
    s.kind = kind;
    switch (kind) {
      case MetricKind::Counter:
        counters_.emplace_back();
        s.counter = &counters_.back();
        break;
      case MetricKind::Gauge:
        gauges_.emplace_back();
        s.gauge = &gauges_.back();
        break;
      case MetricKind::Histogram:
        histograms_.emplace_back();
        s.histogram = &histograms_.back();
        break;
    }
    slots_.push_back(std::move(s));
    return slots_.back();
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    return *slot(name, MetricKind::Counter).counter;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    return *slot(name, MetricKind::Gauge).gauge;
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    return *slot(name, MetricKind::Histogram).histogram;
}

MetricsSnapshot
MetricRegistry::snapshot() const
{
    MetricsSnapshot snap;
    snap.entries.reserve(slots_.size());
    for (const Slot &s : slots_) {
        MetricEntry e;
        e.name = s.name;
        e.kind = s.kind;
        switch (s.kind) {
          case MetricKind::Counter:
            e.value = s.counter->value();
            break;
          case MetricKind::Gauge:
            e.value = s.gauge->value();
            break;
          case MetricKind::Histogram:
            e.hist = s.histogram->data();
            break;
        }
        snap.entries.push_back(std::move(e));
    }
    std::sort(snap.entries.begin(), snap.entries.end(),
              [](const MetricEntry &a, const MetricEntry &b) {
                  return a.name < b.name;
              });
    return snap;
}

MetricsSnapshot
mergeSnapshots(const MetricsSnapshot &a, const MetricsSnapshot &b)
{
    MetricsSnapshot out;
    out.entries.reserve(a.entries.size() + b.entries.size());
    std::size_t i = 0, j = 0;
    while (i < a.entries.size() || j < b.entries.size()) {
        if (j >= b.entries.size() ||
            (i < a.entries.size() &&
             a.entries[i].name < b.entries[j].name)) {
            out.entries.push_back(a.entries[i++]);
            continue;
        }
        if (i >= a.entries.size() ||
            b.entries[j].name < a.entries[i].name) {
            out.entries.push_back(b.entries[j++]);
            continue;
        }
        const MetricEntry &x = a.entries[i++];
        const MetricEntry &y = b.entries[j++];
        if (x.kind != y.kind)
            fbsim_panic("metric %s merged with mismatched kinds "
                        "%s vs %s",
                        x.name.c_str(), metricKindName(x.kind),
                        metricKindName(y.kind));
        MetricEntry m = x;
        switch (x.kind) {
          case MetricKind::Counter:
            m.value = x.value + y.value;
            break;
          case MetricKind::Gauge:
            m.value = std::max(x.value, y.value);
            break;
          case MetricKind::Histogram:
            m.hist.merge(y.hist);
            break;
        }
        out.entries.push_back(std::move(m));
    }
    return out;
}

std::string
renderMetricsJson(const MetricsSnapshot &snapshot)
{
    std::string out = "{";
    bool first = true;
    for (const MetricEntry &e : snapshot.entries) {
        if (!first)
            out += ",";
        first = false;
        out += strprintf("\"%s\":", e.name.c_str());
        if (e.kind == MetricKind::Histogram) {
            const HistogramData &h = e.hist;
            out += strprintf(
                "{\"count\":%llu,\"sum\":%llu,\"min\":%llu,"
                "\"max\":%llu,\"p50\":%llu,\"p90\":%llu,\"p99\":%llu}",
                static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(h.sum),
                static_cast<unsigned long long>(h.count ? h.min : 0),
                static_cast<unsigned long long>(h.max),
                static_cast<unsigned long long>(h.percentile(50)),
                static_cast<unsigned long long>(h.percentile(90)),
                static_cast<unsigned long long>(h.percentile(99)));
        } else {
            out += strprintf("%llu",
                             static_cast<unsigned long long>(e.value));
        }
    }
    out += "}";
    return out;
}

} // namespace fbsim
