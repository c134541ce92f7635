#include "workload/request_gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;
constexpr double kPi = kTwoPi / 2.0;

/// Thinning buckets: whole seconds [k * 600, (k + 1) * 600) since the origin,
/// one experiment tick each.
constexpr std::int64_t kBucketSeconds = 600;
/// Slack on each squeeze bound, as a fraction of the envelope.  The bounds
/// and arrival_rate differ only by the rounding of cos, the products and the
/// division, each within a few ulps (~1e-16) of the envelope.
constexpr double kSqueezeMargin = 1e-9;
/// Beyond this phase magnitude (a peak hour millions of hours out) a double
/// can no longer locate the multiples of pi, and the cos range is [-1, 1].
constexpr double kLocatablePhase = 1e6;

/// `rate` times the multiplier of every crowd active at `t`, in config order.
double apply_crowds(const OpenLoopConfig& config, core::TimePoint t, double rate) {
    for (const FlashCrowd& c : config.flash_crowds) {
        if (t >= c.start && t < c.start + c.duration) rate *= c.multiplier;
    }
    return rate;
}

/// The argument arrival_rate passes to cos at second-of-day `sod`; it never
/// decreases as `sod` grows.
double diurnal_phase(double peak_frac, int sod) {
    return kTwoPi * (sod / 86400.0 - peak_frac);
}

/// Widen [lo, hi] to cover cos at every second-of-day in [first, last]: the
/// phase never decreases with the second, so cos ranges over its values at
/// the two ends and at each multiple of pi between them.
void widen_cos_range(double peak_frac, int first, int last, double& lo, double& hi) {
    const double p0 = diurnal_phase(peak_frac, first);
    const double p1 = diurnal_phase(peak_frac, last);
    if (!(std::fabs(p0) < kLocatablePhase && std::fabs(p1) < kLocatablePhase)) {
        lo = -1.0;
        hi = 1.0;
        return;
    }
    const double c0 = std::cos(p0);
    const double c1 = std::cos(p1);
    lo = std::min({lo, c0, c1});
    hi = std::max({hi, c0, c1});
    for (double k = std::ceil(p0 / kPi); k * kPi <= p1; k += 1.0) {
        if (std::fmod(k, 2.0) == 0.0) {
            hi = 1.0;
        } else {
            lo = -1.0;
        }
    }
}

}  // namespace

double arrival_rate(const OpenLoopConfig& config, core::TimePoint t) {
    const double phase = diurnal_phase(config.peak_hour / 24.0, t.seconds_of_day());
    return apply_crowds(config, t,
                        config.base_rps * (1.0 + config.diurnal_amplitude * std::cos(phase)));
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

AcceptanceBounds acceptance_bounds(const OpenLoopConfig& config, double envelope,
                                   core::TimePoint first, core::TimePoint last) {
    if (!(first <= last && last - first < core::Duration::days(1))) {
        throw core::InvalidArgument("acceptance_bounds: need first <= last, less than a day apart");
    }
    const double peak_frac = config.peak_hour / 24.0;
    double cos_lo = 1.0;
    double cos_hi = -1.0;
    if (first.seconds_of_day() <= last.seconds_of_day()) {
        widen_cos_range(peak_frac, first.seconds_of_day(), last.seconds_of_day(), cos_lo, cos_hi);
    } else {  // the span crosses midnight
        widen_cos_range(peak_frac, first.seconds_of_day(), 86399, cos_lo, cos_hi);
        widen_cos_range(peak_frac, 0, last.seconds_of_day(), cos_lo, cos_hi);
    }

    // A crowd active over the whole span multiplies both bounds; one that
    // starts or ends inside it contributes a factor in [1, multiplier].
    double crowd_lo = 1.0;
    double crowd_hi = 1.0;
    for (const FlashCrowd& c : config.flash_crowds) {
        const core::TimePoint end = c.start + c.duration;
        if (end <= first || c.start > last) continue;
        if (c.start <= first && last < end) crowd_lo *= c.multiplier;
        crowd_hi *= c.multiplier;
    }

    const double base = config.base_rps;
    const double amp = config.diurnal_amplitude;
    return {base * (1.0 + amp * cos_lo) * crowd_lo / envelope - kSqueezeMargin,
            base * (1.0 + amp * cos_hi) * crowd_hi / envelope + kSqueezeMargin};
}

OpenLoopGenerator::OpenLoopGenerator(OpenLoopConfig config, std::uint64_t master_seed,
                                     core::TimePoint origin)
    : config_(std::move(config)),
      origin_(origin),
      rng_(master_seed, "traffic.arrivals"),
      rate_max_(rate_envelope(config_)) {
    if (!(std::isfinite(config_.base_rps) && config_.base_rps > 0.0)) {
        throw core::InvalidArgument("OpenLoopGenerator: base_rps must be finite and positive");
    }
    if (!(config_.diurnal_amplitude >= 0.0 && config_.diurnal_amplitude < 1.0)) {
        throw core::InvalidArgument("OpenLoopGenerator: diurnal_amplitude must be in [0, 1)");
    }
    if (!std::isfinite(config_.peak_hour)) {
        throw core::InvalidArgument("OpenLoopGenerator: peak_hour must be finite");
    }
    for (const FlashCrowd& c : config_.flash_crowds) {
        if (c.duration.count() <= 0 || !(c.multiplier >= 1.0 && std::isfinite(c.multiplier))) {
            throw core::InvalidArgument(
                "OpenLoopGenerator: flash crowds need positive duration and finite "
                "multiplier >= 1");
        }
    }
    if (!std::isfinite(rate_max_)) {
        throw core::InvalidArgument("OpenLoopGenerator: the rate envelope overflows");
    }
}

void OpenLoopGenerator::enter_bucket(std::int64_t second) {
    const std::int64_t first = second - second % kBucketSeconds;
    bucket_end_ = first + kBucketSeconds;
    bounds_ = acceptance_bounds(config_, rate_max_, origin_ + core::Duration::seconds(first),
                                origin_ + core::Duration::seconds(bucket_end_ - 1));
}

double OpenLoopGenerator::next_arrival() {
    // Lewis-Shedler thinning: candidate interarrivals at the envelope rate,
    // accepted with probability rate(t)/rate_max.  Exact for any rate curve
    // bounded by the envelope, and fully replayable from the stream.  The
    // rate is read at whole seconds, so it is constant per second and the
    // bucket's bounds settle most candidates without evaluating it (the
    // squeeze); each decision is the one the exact comparison would make.
    for (;;) {
        ++counts_.candidates;
        t_ += rng_.exponential(rate_max_);
        const auto second = static_cast<std::int64_t>(t_);
        if (second >= bucket_end_) enter_bucket(second);
        const double u = rng_.uniform01();
        if (u >= bounds_.hi) continue;
        if (u >= bounds_.lo) {
            ++counts_.exact_evaluations;
            const core::TimePoint at = origin_ + core::Duration::seconds(second);
            if (!(u < arrival_rate(config_, at) / rate_max_)) continue;
        }
        ++counts_.accepted;
        return t_;
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
