#include "workload/request_gen.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// `rate` times the multiplier of every crowd active at `t`, in config order.
double apply_crowds(const OpenLoopConfig& config, core::TimePoint t, double rate) {
    for (const FlashCrowd& c : config.flash_crowds) {
        if (t >= c.start && t < c.start + c.duration) rate *= c.multiplier;
    }
    return rate;
}

}  // namespace

double arrival_rate(const OpenLoopConfig& config, core::TimePoint t) {
    const double day_frac = t.day_fraction();
    const double peak_frac = config.peak_hour / 24.0;
    return apply_crowds(config, t,
                        config.base_rps * (1.0 + config.diurnal_amplitude *
                                                     std::cos(kTwoPi * (day_frac - peak_frac))));
}

double rate_envelope(const OpenLoopConfig& config) {
    // Overlapping crowds multiply, and the set of active crowds only changes
    // at a crowd's start or end, so the largest product is found at one of
    // those instants.  The products run in arrival_rate's order, which keeps
    // the envelope >= the rate to the last bit.
    const double diurnal_peak = config.base_rps * (1.0 + config.diurnal_amplitude);
    double envelope = diurnal_peak;
    for (const FlashCrowd& c : config.flash_crowds) {
        envelope = std::max(envelope, apply_crowds(config, c.start, diurnal_peak));
        envelope = std::max(envelope, apply_crowds(config, c.start + c.duration, diurnal_peak));
    }
    return envelope;
}

OpenLoopGenerator::OpenLoopGenerator(OpenLoopConfig config, std::uint64_t master_seed,
                                     core::TimePoint origin)
    : config_(std::move(config)),
      origin_(origin),
      rng_(master_seed, "traffic.arrivals"),
      rate_max_(rate_envelope(config_)) {
    if (!(config_.base_rps > 0.0)) {
        throw core::InvalidArgument("OpenLoopGenerator: base_rps must be positive");
    }
    if (config_.diurnal_amplitude < 0.0 || config_.diurnal_amplitude >= 1.0) {
        throw core::InvalidArgument("OpenLoopGenerator: diurnal_amplitude must be in [0, 1)");
    }
}

double OpenLoopGenerator::next_arrival() {
    // Lewis-Shedler thinning: candidate interarrivals at the envelope rate,
    // accepted with probability rate(t)/rate_max.  Exact for any rate curve
    // bounded by the envelope, and fully replayable from the stream.
    for (;;) {
        t_ += rng_.exponential(rate_max_);
        const core::TimePoint at = origin_ + core::Duration::seconds(static_cast<std::int64_t>(t_));
        const double accept = arrival_rate(config_, at) / rate_max_;
        if (rng_.uniform01() < accept) return t_;
    }
}

DemandSampler::DemandSampler(double mean_seconds, std::uint64_t master_seed)
    : mean_(mean_seconds), rng_(master_seed, "traffic.demand") {
    if (!(mean_seconds > 0.0)) {
        throw core::InvalidArgument("DemandSampler: mean_seconds must be positive");
    }
}

double DemandSampler::next() { return rng_.exponential(1.0 / mean_); }

}  // namespace zerodeg::workload
