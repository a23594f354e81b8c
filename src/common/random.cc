#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace fbsim {

namespace {

/** SplitMix64 step, used to expand the seed into generator state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xd1b54a32d192ed03ull);
}

Geometric::Geometric(double p)
{
    fbsim_assert(p > 0.0 && p <= 1.0);
    certain_ = p >= 1.0;
    if (certain_)
        return;
    logDenom_ = std::log1p(-p);
    // cdf[k] = P(K <= k) = 1 - (1-p)^(k+1), stored as the smallest
    // 53-bit draw NOT accepted at k (see the class comment).
    double q = 1.0 - p;
    double qk = 1.0;
    for (std::size_t k = 0; k < kTable; ++k) {
        qk *= q;
        thresh_[k] = static_cast<std::uint64_t>(
            std::ceil((1.0 - qk) * 0x1.0p53));
    }
}

std::uint64_t
Geometric::walk(std::uint64_t r) const
{
    for (std::size_t k = kHead; k < kTable; ++k) {
        if (r < thresh_[k])
            return k;
    }
    // Inverse transform; u in [0,1) keeps the log argument positive.
    const double u = static_cast<double>(r) * 0x1.0p-53;
    double k = std::floor(std::log1p(-u) / logDenom_);
    const double floor_table = static_cast<double>(kTable);
    if (k < floor_table)
        k = floor_table;
    return static_cast<std::uint64_t>(k);
}

} // namespace fbsim
