// Request generators for the traffic workload.
//
// Two archetypes, per the request-cloning reproducibility report's service
// model (PAPERS.md):
//
//   * open loop  — a nonhomogeneous Poisson process: a diurnal rate curve
//     (users sleep) times scheduled flash-crowd multipliers (something goes
//     viral), realized by thinning so determinism holds for any rate shape;
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

/// Open-loop arrival sequencer: emits the Poisson arrival instants of the
/// configured rate curve, in order, via thinning against the rate envelope.
class OpenLoopGenerator {
public:
    /// Arrival times are seconds relative to `origin` (the season start);
    /// the stream is named so other consumers never perturb it.
    OpenLoopGenerator(OpenLoopConfig config, std::uint64_t master_seed,
                      core::TimePoint origin);

    /// The next arrival instant strictly after the previous one, in seconds
    /// since the origin.  Unbounded sequence; callers stop reading when the
    /// instant passes their window.
    [[nodiscard]] double next_arrival();

private:
    OpenLoopConfig config_;
    core::TimePoint origin_;
    core::RngStream rng_;
    double rate_max_;
    double t_ = 0.0;
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
