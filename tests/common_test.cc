/**
 * @file
 * Tests of common utilities: the deterministic RNG and string
 * formatting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>

#include "common/logging.h"
#include "common/random.h"

namespace fbsim {
namespace {

TEST(RngTest, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(RngTest, BelowStaysInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(RngTest, BelowCoversTheRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 300; ++i) {
        std::uint64_t v = rng.range(5, 7);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ChanceTracksProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, HoldsOnlyItsGeneratorState)
{
    // xoshiro256**'s four words; distributions keep their own tables.
    static_assert(sizeof(Rng) == 4 * sizeof(std::uint64_t));
}

/** FNV-1a over the eight little-endian bytes of `v`. */
std::uint64_t
foldWord(std::uint64_t h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(GeometricTest, MeanMatches)
{
    // E[k] = (1-p)/p for P(k) = p(1-p)^k.
    Rng rng(19);
    const double p = 0.4;
    const Geometric geom(p);
    double sum = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(geom.draw(rng));
    EXPECT_NEAR(sum / n, (1 - p) / p, 0.05);
}

TEST(GeometricTest, POneIsZeroAndConsumesNoWord)
{
    const Geometric geom(1.0);
    Rng rng(21), twin(21);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(geom.draw(rng), 0u);
    EXPECT_EQ(rng.next(), twin.next());
}

TEST(GeometricTest, DrawsArePinned)
{
    // 200,000 draws per p from a fixed seed, then one raw word, which
    // pins how many words the draws consumed (none at p = 1).  The
    // digests and depth counts were recorded from the per-Rng
    // threshold walk that Geometric replaced; past4 counts the draws
    // that leave the branch-free head, past32 those that reach the
    // log tail.
    struct Pin
    {
        double p;
        std::uint64_t digest;
        std::uint64_t past4;
        std::uint64_t past32;
    };
    const Pin pins[] = {
        {1.0, 0xefbe0b41fdb98ac9ull, 0, 0},
        {0.999, 0x2f94505099792acfull, 0, 0},
        {0.6, 0x6ae7da976f14c39aull, 5022, 0},
        {0.5, 0xb103a9060f21e9b0ull, 12478, 0},
        {0.3, 0x274094befe98390aull, 47883, 3},
        {0.05, 0x1c9dcae4977fa98dull, 162905, 38825},
        {0.001, 0x27d6bf5f74c6dfd8ull, 199252, 193853},
    };
    for (std::size_t i = 0; i < std::size(pins); ++i) {
        const Geometric geom(pins[i].p);
        Rng rng(0x6e0d + i);
        std::uint64_t h = 0xcbf29ce484222325ull;
        std::uint64_t past4 = 0, past32 = 0;
        for (int n = 0; n < 200000; ++n) {
            const std::uint64_t k = geom.draw(rng);
            past4 += k >= 4;
            past32 += k >= 32;
            h = foldWord(h, k);
        }
        h = foldWord(h, rng.next());
        EXPECT_EQ(h, pins[i].digest) << "p=" << pins[i].p;
        EXPECT_EQ(past4, pins[i].past4) << "p=" << pins[i].p;
        EXPECT_EQ(past32, pins[i].past32) << "p=" << pins[i].p;
    }
}

TEST(GeometricTest, ThresholdBoundariesMapToAdjacentDepths)
{
    // t_k = ceil((1 - (1-p)^(k+1)) * 2^53) is the smallest 53-bit draw
    // not accepted at depth k, so t_k - 1 maps to k and t_k to k + 1:
    // inside the branch-free head (k < 4), across its edge and in the
    // walk beyond it.
    for (double p : {0.6, 0.5, 0.3, 0.05, 0.001}) {
        const Geometric geom(p);
        const double q = 1.0 - p;
        double qk = 1.0;
        std::uint64_t prev = 0;
        for (std::uint64_t k = 0; k < 8; ++k) {
            qk *= q;
            const auto t = static_cast<std::uint64_t>(
                std::ceil((1.0 - qk) * 0x1.0p53));
            // Strictly increasing and a valid draw, so both probes
            // land where the claim says.
            ASSERT_GT(t, prev) << "p=" << p << " k=" << k;
            ASSERT_LT(t, std::uint64_t{1} << 53);
            EXPECT_EQ(geom.index(t - 1), k) << "p=" << p;
            EXPECT_EQ(geom.index(t), k + 1) << "p=" << p;
            prev = t;
        }
    }
}

TEST(RngTest, ForkIsIndependent)
{
    Rng a(23);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(StrprintfTest, FormatsLikePrintf)
{
    EXPECT_EQ(strprintf("x=%d y=%s", 5, "abc"), "x=5 y=abc");
    EXPECT_EQ(strprintf("%08llx", 0xbeefull), "0000beef");
    EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(StrprintfTest, LongStrings)
{
    std::string big(5000, 'a');
    EXPECT_EQ(strprintf("%s!", big.c_str()).size(), 5001u);
}

} // namespace
} // namespace fbsim
