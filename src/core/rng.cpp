#include "core/rng.hpp"

#include <cmath>

#include "core/error.hpp"

namespace zerodeg::core {

void RngStream::throw_empty_int_range() {
    throw InvalidArgument("RngStream::uniform_int: lo > hi");
}

double RngStream::normal() {
    if (has_spare_normal_) {
        has_spare_normal_ = false;
        return spare_normal_;
    }
    double u1 = uniform01();
    while (u1 <= 0.0) u1 = uniform01();
    const double u2 = uniform01();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_normal_ = mag * std::sin(2.0 * M_PI * u2);
    has_spare_normal_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double RngStream::exponential(double rate) {
    if (rate <= 0.0) throw InvalidArgument("RngStream::exponential: rate must be > 0");
    double u = uniform01();
    while (u <= 0.0) u = uniform01();
    return -std::log(u) / rate;
}

std::uint64_t RngStream::poisson(double mean) {
    if (mean < 0.0) throw InvalidArgument("RngStream::poisson: mean must be >= 0");
    if (mean == 0.0) return 0;
    if (mean < 64.0) {
        // Knuth's product-of-uniforms method.
        const double threshold = std::exp(-mean);
        std::uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform01();
        } while (p > threshold);
        return k - 1;
    }
    const double draw = normal(mean, std::sqrt(mean));
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

}  // namespace zerodeg::core
