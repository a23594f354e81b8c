#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::int64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double
processCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
peakRssMb()
{
    // VmHWM covers this program image only; getrusage's ru_maxrss also
    // carries the high-water mark of the process that exec'd it.
    FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    }
    std::fclose(f);
    return kib / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::size_t
nearestRank(std::size_t n, double pct)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), pct) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double pct)
{
    return n == 0 ? 0 : n - nearestRank(n, pct);
}

double
tailPercentile(std::size_t n)
{
    static constexpr double kLadder[] = {99.9, 99.5, 99, 98, 95, 90, 75};
    for (double pct : kLadder) {
        if (samplesBeyond(n, pct) >= 10)
            return pct;
    }
    return 50;
}

Tail
windowedTail(const std::vector<double> &samples, std::size_t window)
{
    const std::size_t n = samples.size();
    const std::size_t k = std::max<std::size_t>(1, n / window);
    Tail tail;
    tail.pct = tailPercentile(n / k);
    std::vector<double> tails;
    for (std::size_t i = 0; i < k; ++i) {
        std::vector<double> stretch(samples.begin() + i * n / k,
                                    samples.begin() + (i + 1) * n / k);
        tails.push_back(percentile(std::move(stretch), tail.pct));
    }
    tail.value = median(std::move(tails));
    return tail;
}

void
Digest::bytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull;
    }
}

void
Tally::add(UnitResult r, std::uint64_t expect_digest)
{
    if (expect_digest != 0 && r.digest != expect_digest) {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      "digest %016llx differs from recorded %016llx",
                      static_cast<unsigned long long>(r.digest),
                      static_cast<unsigned long long>(expect_digest));
        r.fail(buf);
    }
    ++attempted;
    if (!r.ok) {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(r.failure);
    }
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

std::int32_t
Tracer::begin(const char *name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.unit = unit;
    auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
    open_.push_back(id);
    spans_.back().start = nowNs();
    return id;
}

void
Tracer::end(std::int32_t id)
{
    spans_[id].end = nowNs();
    // Spans nest, so the innermost open span is the one closing.
    open_.pop_back();
}

void
Tracer::aggregate(const char *name, std::int64_t start,
                  std::int64_t total_ns, std::uint64_t calls)
{
    if (!on)
        return;
    Span s;
    s.name = name;
    s.start = start;
    s.end = start + total_ns;
    s.parent = open_.empty() ? -1 : open_.back();
    s.unit = unit;
    s.calls = calls;
    spans_.push_back(s);
}

std::vector<std::int64_t>
Tracer::selfTimes() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[s.parent] -= s.end - s.start;
    }
    return self;
}

std::vector<double>
Tracer::durations(std::string_view name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (name == s.name)
            out.push_back(static_cast<double>(s.end - s.start));
    }
    return out;
}

double
Tracer::selfSum(std::string_view name) const
{
    std::vector<std::int64_t> self = selfTimes();
    double sum = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (name == spans_[i].name)
            sum += static_cast<double>(self[i]);
    }
    return sum;
}

bool
Tracer::write(const std::string &path, const std::string &header) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::vector<std::int64_t> self = selfTimes();
    std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{%s, \"spans\": [", header.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"id\": %zu, \"name\": \"%s\", \"unit\": %u, "
                     "\"parent\": %d, \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"self_ns\": %lld, "
                     "\"calls\": %llu}",
                     i ? "," : "", i, s.name, s.unit, s.parent,
                     static_cast<long long>(s.start - t0),
                     static_cast<long long>(s.end - t0),
                     static_cast<long long>(self[i]),
                     static_cast<unsigned long long>(s.calls));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
