#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace fbsim {

std::string
vstrprintf(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, ap2);
        out.resize(static_cast<std::size_t>(needed));
    }
    va_end(ap2);
    return out;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vstrprintf(fmt, ap);
    va_end(ap);
    return out;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

namespace {

// Per-site (file:line) emission bookkeeping for fbsim_warn.  Guarded
// by a mutex because campaign workers warn concurrently; an ordered
// map keeps the suppression summary deterministic.
struct WarnLimiter
{
    std::mutex mu;
    unsigned limit = kDefaultWarnSiteLimit;   // 0 = unlimited
    WarnStats stats;
    std::map<std::pair<std::string, int>, std::uint64_t> perSite;
};

WarnLimiter &
warnLimiter()
{
    static WarnLimiter limiter;
    return limiter;
}

} // namespace

void
warnImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    {
        WarnLimiter &wl = warnLimiter();
        std::lock_guard<std::mutex> lock(wl.mu);
        ++wl.stats.emitted;
    }
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
warnAtImpl(const char *file, int line, const char *fmt, ...)
{
    bool print = true;
    {
        WarnLimiter &wl = warnLimiter();
        std::lock_guard<std::mutex> lock(wl.mu);
        std::uint64_t &count = wl.perSite[{file, line}];
        ++count;
        if (wl.limit != 0 && count > wl.limit) {
            ++wl.stats.suppressed;
            print = false;
        } else {
            ++wl.stats.emitted;
        }
    }
    if (!print)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
setWarnSiteLimit(unsigned limit)
{
    WarnLimiter &wl = warnLimiter();
    std::lock_guard<std::mutex> lock(wl.mu);
    wl.limit = limit;
}

unsigned
warnSiteLimit()
{
    WarnLimiter &wl = warnLimiter();
    std::lock_guard<std::mutex> lock(wl.mu);
    return wl.limit;
}

WarnStats
warnStats()
{
    WarnLimiter &wl = warnLimiter();
    std::lock_guard<std::mutex> lock(wl.mu);
    return wl.stats;
}

void
resetWarnStats()
{
    WarnLimiter &wl = warnLimiter();
    std::lock_guard<std::mutex> lock(wl.mu);
    wl.stats = WarnStats();
    wl.perSite.clear();
}

std::string
warnSuppressionSummary()
{
    WarnLimiter &wl = warnLimiter();
    std::lock_guard<std::mutex> lock(wl.mu);
    std::string out;
    if (wl.limit == 0)
        return out;
    for (const auto &[site, count] : wl.perSite) {
        if (count > wl.limit) {
            out += strprintf("warn: suppressed %llu similar messages "
                             "from %s:%d\n",
                             static_cast<unsigned long long>(count -
                                                             wl.limit),
                             site.first.c_str(), site.second);
        }
    }
    return out;
}

void
informImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace fbsim
