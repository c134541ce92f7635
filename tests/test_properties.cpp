// Cross-module property tests: randomized/parameterized sweeps of the
// invariants the whole reproduction stands on.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "thermal/rc_network.hpp"
#include "weather/psychrometrics.hpp"
#include "workload/compressor.hpp"
#include "workload/md5.hpp"

namespace zerodeg {
namespace {

using core::Celsius;
using core::RelHumidity;
using core::RngStream;

// --- psychrometrics over the whole operating grid ---------------------------

struct PsychroPoint {
    double t;
    double rh;
};

class PsychroGrid : public ::testing::TestWithParam<PsychroPoint> {};

TEST_P(PsychroGrid, DewPointInvariants) {
    const auto [t, rh] = GetParam();
    const Celsius dp = weather::dew_point(Celsius{t}, RelHumidity{rh});
    // Dew point never exceeds air temperature...
    EXPECT_LE(dp.value(), t + 0.05);
    // ...and re-basing the air to its own dew point yields saturation
    // (>=100% because below 0 degC the saturation branch switches to ice).
    const RelHumidity at_dp = weather::rebase_humidity(Celsius{t}, RelHumidity{rh}, dp);
    EXPECT_GE(at_dp.value(), 99.0);
}

TEST_P(PsychroGrid, RebaseIsMultiplicative) {
    const auto [t, rh] = GetParam();
    // Rebasing a->b then b->c equals rebasing a->c (vapour pressure is the
    // conserved quantity).
    const Celsius b{t + 7.0};
    const Celsius c{t - 4.0};
    const RelHumidity via =
        weather::rebase_humidity(b, weather::rebase_humidity(Celsius{t}, RelHumidity{rh}, b), c);
    const RelHumidity direct = weather::rebase_humidity(Celsius{t}, RelHumidity{rh}, c);
    EXPECT_NEAR(via.value(), direct.value(), 1e-9);
}

TEST_P(PsychroGrid, AbsoluteHumidityPositiveAndBounded) {
    const auto [t, rh] = GetParam();
    const double ah = weather::absolute_humidity(Celsius{t}, RelHumidity{rh}).value();
    EXPECT_GE(ah, 0.0);
    EXPECT_LT(ah, 60.0);  // even saturated 40 degC air holds ~51 g/m^3
}

INSTANTIATE_TEST_SUITE_P(Grid, PsychroGrid,
                         ::testing::Values(PsychroPoint{-22.0, 85.0}, PsychroPoint{-10.0, 95.0},
                                           PsychroPoint{-4.0, 60.0}, PsychroPoint{0.0, 80.0},
                                           PsychroPoint{5.0, 40.0}, PsychroPoint{21.0, 35.0},
                                           PsychroPoint{30.0, 70.0}));

// --- RC networks settle to their analytic equilibrium -----------------------

class RcEquilibrium : public ::testing::TestWithParam<int> {};

TEST_P(RcEquilibrium, SettledNetworkMatchesLocalEquilibrium) {
    RngStream rng(static_cast<std::uint64_t>(GetParam()), "rc");
    thermal::ThermalNetwork net;
    const int nodes = static_cast<int>(rng.uniform_int(2, 6));
    for (int i = 0; i < nodes; ++i) {
        // Named draws, in the order the three arguments were drawn before.
        const double to_ambient = rng.uniform(0.5, 10.0);
        const double initial = rng.uniform(-20.0, 40.0);
        const double capacity = rng.uniform(500.0, 5000.0);
        net.add_node("n" + std::to_string(i), core::JoulesPerKelvin{capacity}, Celsius{initial},
                     core::WattsPerKelvin{to_ambient});
        net.set_power(static_cast<std::size_t>(i), core::Watts{rng.uniform(0.0, 200.0)});
    }
    for (int i = 1; i < nodes; ++i) {
        net.connect(static_cast<std::size_t>(i - 1), static_cast<std::size_t>(i),
                    core::WattsPerKelvin{rng.uniform(0.5, 8.0)});
    }
    const Celsius ambient{rng.uniform(-25.0, 10.0)};
    // Settle far past every time constant.
    net.step(core::Duration::hours(48), ambient);
    // At equilibrium every node equals its local equilibrium given its
    // neighbors (the fixed point of the dynamics).
    for (int i = 0; i < nodes; ++i) {
        EXPECT_NEAR(net.temperature(static_cast<std::size_t>(i)).value(),
                    net.local_equilibrium(static_cast<std::size_t>(i), ambient).value(), 0.05)
            << "node " << i << " seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcEquilibrium, ::testing::Range(0, 12));

// --- frost round-trips arbitrary bytes, not just source text ----------------

class FrostRandomPayload : public ::testing::TestWithParam<int> {};

TEST_P(FrostRandomPayload, RoundTrip) {
    RngStream rng(static_cast<std::uint64_t>(GetParam()), "payload");
    std::vector<std::uint8_t> data;
    const int segments = static_cast<int>(rng.uniform_int(1, 20));
    for (int s = 0; s < segments; ++s) {
        const int kind = static_cast<int>(rng.uniform_int(0, 2));
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 20000));
        if (kind == 0) {
            // run of one byte
            data.insert(data.end(), len, static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        } else if (kind == 1) {
            // random noise
            for (std::size_t i = 0; i < len; ++i) {
                data.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
            }
        } else {
            // textish: narrow alphabet
            for (std::size_t i = 0; i < len; ++i) {
                data.push_back(static_cast<std::uint8_t>('a' + rng.uniform_int(0, 15)));
            }
        }
    }
    workload::CompressorConfig cfg;
    cfg.block_size = static_cast<std::size_t>(rng.uniform_int(1024, 32768));
    const auto packed = workload::frost_compress(data, cfg);
    EXPECT_EQ(workload::frost_decompress(packed), data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrostRandomPayload, ::testing::Range(100, 112));

// --- md5 avalanche: any single-bit flip anywhere changes the digest ---------

class Md5Avalanche : public ::testing::TestWithParam<int> {};

TEST_P(Md5Avalanche, FlipAlwaysDetected) {
    RngStream rng(static_cast<std::uint64_t>(GetParam()), "md5");
    std::vector<std::uint8_t> data(static_cast<std::size_t>(rng.uniform_int(1, 5000)));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto reference = workload::md5(data);
    for (int trial = 0; trial < 20; ++trial) {
        auto copy = data;
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(copy.size()) - 1));
        copy[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        EXPECT_NE(workload::md5(copy), reference);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Md5Avalanche, ::testing::Range(0, 6));

}  // namespace
}  // namespace zerodeg
