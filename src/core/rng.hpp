// Deterministic pseudo-random number infrastructure.
//
// Every stochastic process in the simulation (weather fronts, fault times,
// memory bit flips, workload start fuzz, sensor noise) draws from its own
// *named* stream derived from one master seed.  Adding a new consumer never
// perturbs the draws of existing ones, so a single seed reproduces an entire
// experiment bit-for-bit — the property the determinism test suite locks in.
#pragma once

#include <cstdint>
#include <string_view>

namespace zerodeg::core {

/// splitmix64: used to expand seeds; passes BigCrush, trivially constexpr.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// FNV-1a over a string, for deriving per-name stream seeds.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// xoshiro256** by Blackman & Vigna — small, fast, high quality.
/// Satisfies UniformRandomBitGenerator so it can feed <random> distributions,
/// though the helpers below are preferred (they are platform-stable;
/// libstdc++'s distributions are not guaranteed identical across versions).
class Xoshiro256 {
public:
    using result_type = std::uint64_t;

    explicit constexpr Xoshiro256(std::uint64_t seed) {
        std::uint64_t sm = seed;
        for (auto& word : state_) word = splitmix64(sm);
    }

    [[nodiscard]] static constexpr result_type min() { return 0; }
    [[nodiscard]] static constexpr result_type max() { return ~0ULL; }

    constexpr result_type operator()() {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
        return (x << k) | (x >> (64 - k));
    }
    std::uint64_t state_[4] = {};
};

/// A named random stream with platform-stable distribution helpers.
class RngStream {
public:
    /// Derives this stream's state from (master_seed, name); the same pair
    /// always yields the same sequence.
    RngStream(std::uint64_t master_seed, std::string_view name)
        : engine_(master_seed ^ fnv1a(name)) {}

    [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

    /// Uniform in [0, 1).
    [[nodiscard]] double uniform01() {
        // 53 high bits -> double mantissa.
        return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
    }

    /// Uniform in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

    /// Uniform integer in [lo, hi] (inclusive).  Inline, so that a call
    /// with a constant span folds its divisions.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        if (lo > hi) [[unlikely]] throw_empty_int_range();
        // Unsigned arithmetic throughout: hi - lo and lo + offset overflow
        // int64_t for spans wider than 2^63, but wrap exactly in uint64_t,
        // and the one conversion back is modular (C++20).
        const auto base = static_cast<std::uint64_t>(lo);
        const std::uint64_t span = static_cast<std::uint64_t>(hi) - base + 1;
        if (span == 0) {
            // Full 64-bit range requested.
            return static_cast<std::int64_t>(next_u64());
        }
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t limit = ~0ULL - (~0ULL % span);
        std::uint64_t r = next_u64();
        while (r >= limit) r = next_u64();
        return static_cast<std::int64_t>(base + r % span);
    }

    /// Standard normal via Box–Muller (deterministic across platforms).
    [[nodiscard]] double normal();
    [[nodiscard]] double normal(double mean, double stddev) { return mean + stddev * normal(); }

    /// Exponential with the given rate (lambda), mean 1/lambda.
    [[nodiscard]] double exponential(double rate);

    /// Bernoulli trial.
    [[nodiscard]] bool chance(double p) { return uniform01() < p; }

    /// Poisson-distributed count with the given mean (Knuth for small
    /// means, normal approximation above 64 — the simulation only needs
    /// counts, not exact tail shape, at large means).
    [[nodiscard]] std::uint64_t poisson(double mean);

private:
    [[noreturn]] static void throw_empty_int_range();

    Xoshiro256 engine_;
    bool has_spare_normal_ = false;
    double spare_normal_ = 0.0;
};

}  // namespace zerodeg::core
