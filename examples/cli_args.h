/**
 * @file
 * Checked numeric command-line values for the example programs.
 */

#ifndef FBSIM_EXAMPLES_CLI_ARGS_H_
#define FBSIM_EXAMPLES_CLI_ARGS_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace fbsim::cli {

/**
 * The value of a numeric argument `what` of program `prog`: the whole
 * token must be a decimal number in [lo, hi].  Anything else - empty,
 * signed, trailing junk, out of range - is a usage error: "<prog>:
 * invalid value '<value>' for <what>" on stderr and exit status 2.
 */
inline std::size_t
parseCount(const char *prog, const char *what, const char *value,
           std::size_t lo, std::size_t hi)
{
    const char *end = value + std::strlen(value);
    std::size_t n = 0;
    auto [stop, ec] = std::from_chars(value, end, n);
    if (ec != std::errc() || stop != end || n < lo || n > hi) {
        std::fprintf(stderr, "%s: invalid value '%s' for %s\n", prog,
                     value, what);
        std::exit(2);
    }
    return n;
}

} // namespace fbsim::cli

#endif // FBSIM_EXAMPLES_CLI_ARGS_H_
