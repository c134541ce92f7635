#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/error.hpp"
#include "core/stats.hpp"

namespace zerodeg::core {
namespace {

TEST(Rng, DeterministicBySeedAndName) {
    RngStream a(42, "weather");
    RngStream b(42, "weather");
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentNamesAreIndependent) {
    RngStream a(42, "weather");
    RngStream b(42, "faults");
    bool any_diff = false;
    for (int i = 0; i < 10; ++i) any_diff |= a.next_u64() != b.next_u64();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, DifferentSeedsDiffer) {
    RngStream a(1, "x");
    RngStream b(2, "x");
    EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, Uniform01Bounds) {
    RngStream rng(7, "u");
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, Uniform01Mean) {
    RngStream rng(7, "u");
    RunningStats s;
    for (int i = 0; i < 50000; ++i) s.add(rng.uniform01());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, UniformRange) {
    RngStream rng(7, "u");
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-5.0, 3.0);
        EXPECT_GE(v, -5.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds) {
    RngStream rng(7, "i");
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const std::int64_t v = rng.uniform_int(0, 9);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 9);
        saw_lo |= v == 0;
        saw_hi |= v == 9;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
    RngStream rng(7, "i");
    for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntBadRangeThrows) {
    RngStream rng(7, "i");
    EXPECT_THROW((void)rng.uniform_int(3, 2), InvalidArgument);
}

// FNV-1a over the little-endian bytes of 256 draws from [lo, lo + span - 1],
// lo = -(span / 2).  The narrow spans were pinned before uniform_int moved
// to unsigned arithmetic, so they hold its values where the signed form was
// defined; the wide ones (span > 2^63, where the signed form overflowed)
// were pinned after.
std::uint64_t draws_fnv(std::int64_t lo, std::int64_t hi) {
    RngStream rng(2010, "pins");
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 256; ++i) {
        const auto v = static_cast<std::uint64_t>(rng.uniform_int(lo, hi));
        for (int k = 0; k < 8; ++k) {
            h ^= (v >> (8 * k)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

std::uint64_t span_fnv(std::uint64_t span) {
    const auto lo = -static_cast<std::int64_t>(span / 2);
    return draws_fnv(lo, lo + static_cast<std::int64_t>(span - 1));
}

TEST(Rng, UniformIntValuesArePinned) {
    EXPECT_EQ(span_fnv(1), 0x28c31cf8df2ec325ULL);
    EXPECT_EQ(span_fnv(2), 0xd89180f380e8158dULL);
    EXPECT_EQ(span_fnv(3), 0x8b102312ab2a409cULL);
    EXPECT_EQ(span_fnv(26), 0x6c446227e51e02b4ULL);
    EXPECT_EQ(span_fnv(4097), 0x49787024769313b2ULL);
    EXPECT_EQ(span_fnv((1ULL << 32) + 1), 0xf790f570ab31f194ULL);
}

TEST(Rng, UniformIntWideSpansArePinnedAndInRange) {
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(draws_fnv(kMin, 0), 0x0b077af807223421ULL);
    EXPECT_EQ(draws_fnv(-1, kMax), 0x479078acaafd85c6ULL);
    EXPECT_EQ(draws_fnv(kMin, kMax - 1), 0x7df32493bb42101aULL);
    EXPECT_EQ(draws_fnv(kMin, kMax), 0x432f5eef2a0f191aULL);  // the full range
    RngStream rng(7, "wide");
    bool saw_negative = false, saw_positive = false;
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LE(rng.uniform_int(kMin, 0), 0);
        const std::int64_t v = rng.uniform_int(-1, kMax);
        EXPECT_GE(v, -1);
        const std::int64_t w = rng.uniform_int(kMin + 1, kMax);
        saw_negative |= w < 0;
        saw_positive |= w > 0;
    }
    EXPECT_TRUE(saw_negative);
    EXPECT_TRUE(saw_positive);
}

TEST(Rng, UniformIntFuzzRange) {
    // The workload start fuzz: 0..119 seconds.
    RngStream rng(7, "fuzz");
    RunningStats s;
    for (int i = 0; i < 20000; ++i) {
        const auto v = rng.uniform_int(0, 119);
        s.add(static_cast<double>(v));
    }
    EXPECT_NEAR(s.mean(), 59.5, 1.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 119.0);
}

TEST(Rng, NormalMoments) {
    RngStream rng(7, "n");
    RunningStats s;
    for (int i = 0; i < 50000; ++i) s.add(rng.normal());
    EXPECT_NEAR(s.mean(), 0.0, 0.02);
    EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalShifted) {
    RngStream rng(7, "n");
    RunningStats s;
    for (int i = 0; i < 20000; ++i) s.add(rng.normal(-9.2, 2.0));
    EXPECT_NEAR(s.mean(), -9.2, 0.06);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
    RngStream rng(7, "e");
    RunningStats s;
    for (int i = 0; i < 50000; ++i) s.add(rng.exponential(0.5));
    EXPECT_NEAR(s.mean(), 2.0, 0.05);
    EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, ExponentialBadRateThrows) {
    RngStream rng(7, "e");
    EXPECT_THROW((void)rng.exponential(0.0), InvalidArgument);
    EXPECT_THROW((void)rng.exponential(-1.0), InvalidArgument);
}

TEST(Rng, PoissonSmallMean) {
    RngStream rng(7, "p");
    RunningStats s;
    for (int i = 0; i < 50000; ++i) s.add(static_cast<double>(rng.poisson(3.0)));
    EXPECT_NEAR(s.mean(), 3.0, 0.05);
    EXPECT_NEAR(s.variance(), 3.0, 0.15);
}

TEST(Rng, PoissonTinyMean) {
    // The memory-fault regime: mean ~2e-4 per run.
    RngStream rng(7, "p");
    std::uint64_t total = 0;
    constexpr int kRuns = 200000;
    for (int i = 0; i < kRuns; ++i) total += rng.poisson(2e-4);
    EXPECT_NEAR(static_cast<double>(total), 2e-4 * kRuns, 5.0 * std::sqrt(2e-4 * kRuns));
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
    RngStream rng(7, "p");
    RunningStats s;
    for (int i = 0; i < 20000; ++i) s.add(static_cast<double>(rng.poisson(400.0)));
    EXPECT_NEAR(s.mean(), 400.0, 1.0);
    EXPECT_NEAR(s.stddev(), 20.0, 1.0);
}

TEST(Rng, PoissonZeroMean) {
    RngStream rng(7, "p");
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, PoissonNegativeThrows) {
    RngStream rng(7, "p");
    EXPECT_THROW((void)rng.poisson(-1.0), InvalidArgument);
}

TEST(Rng, ChanceProbability) {
    RngStream rng(7, "c");
    int hits = 0;
    for (int i = 0; i < 100000; ++i) hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
    EXPECT_FALSE(rng.chance(0.0));
}

TEST(Rng, SplitmixKnownProperties) {
    std::uint64_t s1 = 0;
    std::uint64_t s2 = 0;
    EXPECT_EQ(splitmix64(s1), splitmix64(s2));
    // State advances.
    EXPECT_NE(s1, 0u);
}

TEST(Rng, Fnv1aStable) {
    EXPECT_EQ(fnv1a("weather"), fnv1a("weather"));
    EXPECT_NE(fnv1a("weather"), fnv1a("faults"));
    // FNV-1a of empty string is the offset basis.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
}

TEST(Rng, XoshiroSatisfiesUrbg) {
    Xoshiro256 g(1);
    static_assert(Xoshiro256::min() == 0);
    static_assert(Xoshiro256::max() == ~0ULL);
    EXPECT_NE(g(), g());
}

}  // namespace
}  // namespace zerodeg::core
