// Request generators for the traffic workload.
//
// Two archetypes, per the request-cloning reproducibility report's service
// model (PAPERS.md):
//
//   * open loop  — a nonhomogeneous Poisson process: a diurnal rate curve
//     (users sleep) times scheduled flash-crowd multipliers (something goes
//     viral), realized by thinning so determinism holds for any rate shape;
//     each 600 s bucket carries bounds on the acceptance ratio that settle
//     almost every candidate without evaluating the rate (a squeeze), and
//     the arrivals are bit-identical to deciding each one exactly;
//   * closed loop — N users cycling think -> request -> response -> think,
//     whose throughput obeys the classic asymptotic bound min(N/(Z+R), mu).
//
// All randomness is drawn from named core::rng streams of the season's
// master seed; generating the same window twice replays the same arrivals
// bit for bit, which is what the cross-engine determinism tests rely on.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "core/sim_time.hpp"

namespace zerodeg::workload {

/// A scheduled load spike: the arrival rate is multiplied by `multiplier`
/// while `start <= t < start + duration`.
struct FlashCrowd {
    core::TimePoint start;
    core::Duration duration{0};
    double multiplier = 1.0;
};

/// The open-loop arrival process: diurnal sinusoid around `base_rps` plus
/// flash crowds.
struct OpenLoopConfig {
    /// Fleet-wide mean request rate, 1/s.  The default is sized for the
    /// paper fleet's *early* era: six hosts of 1/12 rps capacity each serve
    /// 0.25 rps at rho = 0.5 (0.7 at the diurnal peak); the full 18-host
    /// fleet idles near rho = 0.17 unless a flash crowd hits.
    double base_rps = 0.25;
    double diurnal_amplitude = 0.4; ///< relative swing, in [0, 1)
    double peak_hour = 20.0;        ///< local hour of the diurnal maximum
    std::vector<FlashCrowd> flash_crowds;
};

/// Instantaneous arrival rate at absolute time `t` (requests per second).
[[nodiscard]] double arrival_rate(const OpenLoopConfig& config, core::TimePoint t);

/// The thinning envelope: the largest rate the curve can reach, the
/// diurnal peak times the largest product of simultaneously active flash
/// crowd multipliers.  arrival_rate(config, t) <= rate_envelope(config)
/// for every t.
[[nodiscard]] double rate_envelope(const OpenLoopConfig& config);

/// Bounds on the thinning acceptance ratio arrival_rate(config, t) / envelope
/// over a span of whole seconds: lo <= ratio <= hi at every second.
struct AcceptanceBounds {
    double lo = 0.0;
    double hi = 0.0;
};

/// Conservative acceptance bounds over the whole seconds first..last (less
/// than a day apart, so crossing midnight at most once): cos at the span's
/// ends and at any extremum between them, crowds active throughout as their
/// multiplier and crowds that start or end inside as [1, multiplier], widened
/// by 1e-9 of the envelope, far above the few-ulp rounding that separates
/// this evaluation from arrival_rate's.  Requires a config the generator
/// accepts (crowd multipliers >= 1); throws InvalidArgument for a span that
/// is empty or a day or longer.
[[nodiscard]] AcceptanceBounds acceptance_bounds(const OpenLoopConfig& config, double envelope,
                                                 core::TimePoint first, core::TimePoint last);

/// What the thinning loop has done so far.  Each candidate draws the same
/// two variates whether or not the squeeze settles it, so all three are a
/// deterministic function of the seed, the config and the arrivals read.
struct ThinningCounts {
    std::uint64_t candidates = 0;         ///< (exponential, uniform) pairs drawn
    std::uint64_t exact_evaluations = 0;  ///< candidates that needed arrival_rate
    std::uint64_t accepted = 0;           ///< arrivals returned
};

/// Open-loop arrival sequencer: emits the Poisson arrival instants of the
/// configured rate curve, in order, via thinning against the rate envelope.
///
/// A candidate at time t is judged at whole second floor(t), so the rate is
/// piecewise-constant per second.  When the candidates enter a new bucket of
/// 600 whole seconds (counted from the origin) the generator takes the
/// bucket's acceptance_bounds.  A uniform below `lo` accepts, one at or
/// above `hi` rejects, and only the band between calls arrival_rate, so
/// every decision, and every arrival, is the exact comparison's.
class OpenLoopGenerator {
public:
    /// Arrival times are seconds relative to `origin` (the season start);
    /// the stream is named so other consumers never perturb it.  Throws
    /// InvalidArgument unless base_rps is finite and positive, the amplitude
    /// is in [0, 1), peak_hour is finite, every crowd has a positive duration
    /// and a finite multiplier >= 1, and the envelope is finite.
    OpenLoopGenerator(OpenLoopConfig config, std::uint64_t master_seed,
                      core::TimePoint origin);

    /// The next arrival instant strictly after the previous one, in seconds
    /// since the origin.  Unbounded sequence; callers stop reading when the
    /// instant passes their window.
    [[nodiscard]] double next_arrival();

    [[nodiscard]] const ThinningCounts& counts() const { return counts_; }

private:
    /// Set the squeeze bounds for the bucket holding whole second `second`.
    void enter_bucket(std::int64_t second);

    OpenLoopConfig config_;
    core::TimePoint origin_;
    core::RngStream rng_;
    double rate_max_;
    double t_ = 0.0;
    std::int64_t bucket_end_ = 0;  ///< first second past the current bucket
    AcceptanceBounds bounds_;      ///< the current bucket's
    ThinningCounts counts_;
};

/// The closed-loop population: N users with exponential think times.
struct ClosedLoopConfig {
    int users = 60;
    double think_seconds = 60.0;  ///< mean think time Z
};

/// Per-request service demand: exponential with the given mean, drawn from
/// its own named stream (one draw per dispatched clone).
class DemandSampler {
public:
    DemandSampler(double mean_seconds, std::uint64_t master_seed);
    [[nodiscard]] double next();

private:
    double mean_;
    core::RngStream rng_;
};

}  // namespace zerodeg::workload
