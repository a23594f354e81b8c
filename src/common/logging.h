/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic()  - an internal simulator invariant was violated (a bug in
 *            fbsim itself).  Aborts, so a debugger/core dump is useful.
 * fatal()  - the simulation cannot continue because of a user-supplied
 *            condition (bad configuration, malformed trace, ...).  Exits
 *            with status 1.
 * warn()   - something suspicious but survivable.
 * inform() - status messages.
 *
 * All take printf-style format strings.
 */

#ifndef FBSIM_COMMON_LOGGING_H_
#define FBSIM_COMMON_LOGGING_H_

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <string>

namespace fbsim {

[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/**
 * One fbsim_warn site (file:line) and its call counts.  Each
 * fbsim_warn expansion holds one as a function-local static, whose
 * constructor registers it under the limiter's lock on the site's
 * first call; every later call touches only these atomics.
 */
struct WarnSite
{
    WarnSite(const char *site_file, int site_line);

    const char *const file;
    const int line;
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> emitted{0};
};

/**
 * Rate-limited warnings keyed by emitting site, the two halves of
 * fbsim_warn.  warnSiteAdmit() counts one call at the site and says
 * whether it may print: once a site has emitted warnSiteLimit()
 * messages (kDefaultWarnSiteLimit unless changed), further calls are
 * counted as suppressed - one atomic increment, no lock and no
 * allocation - and warnSuppressionSummary() reports "suppressed N
 * similar messages" per muted site.  A limit of 0 disables
 * suppression.  warnPrint() formats and prints an admitted message.
 */
bool warnSiteAdmit(WarnSite &site);

void warnPrint(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Process-wide warning counters (all sites, emitted vs suppressed). */
struct WarnStats
{
    std::uint64_t emitted = 0;
    std::uint64_t suppressed = 0;
};

/** Per-site emission cap for fbsim_warn until setWarnSiteLimit(). */
inline constexpr unsigned kDefaultWarnSiteLimit = 8;

/** Set the per-site emission cap for fbsim_warn (0 = unlimited). */
void setWarnSiteLimit(unsigned limit);

/** Current per-site emission cap (0 = unlimited). */
unsigned warnSiteLimit();

/** Snapshot of the process-wide warning counters. */
WarnStats warnStats();

/** Reset counters and per-site histories (tests, campaign starts). */
void resetWarnStats();

/**
 * One line per muted site: "warn: suppressed N similar messages from
 * <file>:<line>\n", concatenated; empty when nothing was suppressed.
 */
std::string warnSuppressionSummary();

/** Format a printf-style message into a std::string. */
std::string vstrprintf(const char *fmt, va_list ap);

/** Format a printf-style message into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

#define fbsim_panic(...) ::fbsim::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fbsim_fatal(...) ::fbsim::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
/** Rate-limited warning: the site's budget is taken first, so a muted
 *  site neither evaluates nor formats its arguments. */
#define fbsim_warn(...)                                                      \
    do {                                                                     \
        static ::fbsim::WarnSite fbsim_warn_site_(__FILE__, __LINE__);       \
        if (::fbsim::warnSiteAdmit(fbsim_warn_site_))                        \
            ::fbsim::warnPrint(__VA_ARGS__);                                 \
    } while (0)

/** Assert a simulator invariant; on failure panic with the condition. */
#define fbsim_assert(cond, ...)                                              \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::fbsim::panicImpl(__FILE__, __LINE__,                           \
                               "assertion failed: %s", #cond);               \
        }                                                                    \
    } while (0)

} // namespace fbsim

#endif // FBSIM_COMMON_LOGGING_H_
