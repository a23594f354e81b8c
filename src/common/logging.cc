#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string_view>
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

// Registry of fbsim_warn sites.  The mutex guards the site list;
// campaign workers warn concurrently, and a site's counts are atomics
// so that only its first call takes the lock.
struct WarnLimiter
{
    std::mutex mu;
    std::vector<WarnSite *> sites;
    std::atomic<unsigned> limit{kDefaultWarnSiteLimit};   // 0 = unlimited
};

WarnLimiter &
warnLimiter()
{
    static WarnLimiter limiter;
    return limiter;
}

} // namespace

WarnSite::WarnSite(const char *site_file, int site_line)
    : file(site_file), line(site_line)
{
    WarnLimiter &wl = warnLimiter();
    std::lock_guard<std::mutex> lock(wl.mu);
    wl.sites.push_back(this);
}

bool
warnSiteAdmit(WarnSite &site)
{
    const std::uint64_t n =
        site.calls.fetch_add(1, std::memory_order_relaxed) + 1;
    const unsigned limit =
        warnLimiter().limit.load(std::memory_order_relaxed);
    if (limit != 0 && n > limit)
        return false;
    site.emitted.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
warnPrint(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
setWarnSiteLimit(unsigned limit)
{
    warnLimiter().limit.store(limit, std::memory_order_relaxed);
}

unsigned
warnSiteLimit()
{
    return warnLimiter().limit.load(std::memory_order_relaxed);
}

WarnStats
warnStats()
{
    WarnLimiter &wl = warnLimiter();
    std::lock_guard<std::mutex> lock(wl.mu);
    WarnStats stats;
    for (const WarnSite *site : wl.sites) {
        const std::uint64_t emitted = site->emitted.load();
        stats.emitted += emitted;
        stats.suppressed += site->calls.load() - emitted;
    }
    return stats;
}

void
resetWarnStats()
{
    WarnLimiter &wl = warnLimiter();
    std::lock_guard<std::mutex> lock(wl.mu);
    for (WarnSite *site : wl.sites) {
        site->calls = 0;
        site->emitted = 0;
    }
}

std::string
warnSuppressionSummary()
{
    WarnLimiter &wl = warnLimiter();
    std::lock_guard<std::mutex> lock(wl.mu);
    std::string out;
    const unsigned limit = wl.limit.load();
    if (limit == 0)
        return out;
    // Ordered by (file, line), whatever order the sites first ran in.
    std::map<std::pair<std::string_view, int>, std::uint64_t> calls;
    for (const WarnSite *site : wl.sites)
        calls[{site->file, site->line}] += site->calls.load();
    for (const auto &[site, count] : calls) {
        if (count > limit) {
            out += strprintf("warn: suppressed %llu similar messages "
                             "from %s:%d\n",
                             static_cast<unsigned long long>(count - limit),
                             site.first.data(), site.second);
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
