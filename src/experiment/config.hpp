// Experiment configuration: the dates, events and knobs of Sections 3-4.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sim_time.hpp"
#include "faults/component_faults.hpp"
#include "faults/fault_injector.hpp"
#include "faults/memory_faults.hpp"
#include "monitoring/retry_policy.hpp"
#include "thermal/enclosure.hpp"
#include "weather/trace_io.hpp"
#include "weather/weather_model.hpp"
#include "workload/load_job.hpp"
#include "workload/traffic.hpp"

namespace zerodeg::experiment {

using core::Duration;
using core::TimePoint;

/// A scheduled tent modification (the R/I/B/F letters under Fig. 3).
struct TentModEvent {
    TimePoint when;
    thermal::TentMod mod;
};

/// Which workload drives the fleet's CPUs and disks for the season.
enum class WorkloadKind : int {
    kArchive = 0,  ///< batch archival churn (scheduler.hpp): disk + memory
    kTraffic = 1,  ///< request-serving traffic (traffic.hpp): CPU + latency
};

[[nodiscard]] const char* to_string(WorkloadKind kind);

struct ExperimentConfig {
    std::uint64_t master_seed = 20100219;

    /// Main phase window ("start of testing" Feb 19; Fig. 2's last mark is
    /// the Mar 26 replacement of #15; the census in Section 4 was written
    /// with the newest hosts two weeks in).
    TimePoint start = TimePoint::from_date(2010, 2, 19);
    TimePoint end = TimePoint::from_date(2010, 3, 27);

    /// Simulation tick (thermal/fault integration step).
    Duration tick = Duration::minutes(10);

    weather::WeatherConfig weather = weather::helsinki_2010_config();
    /// When non-empty, this recorded trace drives the experiment instead of
    /// the synthetic model — the seam for plugging in real SMEAR III data
    /// (see weather::read_trace).
    std::vector<weather::WeatherSample> weather_trace;
    thermal::TentConfig tent{};

    /// Tent modifications, in the paper's order R, I, B, F (+ the ongoing
    /// half-open front door).  Dates are not printed in the paper; these
    /// are placed to reproduce Fig. 3's stepwise drops in inside-minus-
    /// outside temperature.
    std::vector<TentModEvent> tent_mods = {
        {TimePoint::from_civil({2010, 2, 26, 12, 0, 0}), thermal::TentMod::kReflectiveFoil},
        {TimePoint::from_civil({2010, 3, 4, 15, 0, 0}), thermal::TentMod::kInnerTentRemoved},
        {TimePoint::from_civil({2010, 3, 12, 13, 0, 0}), thermal::TentMod::kBottomOpened},
        {TimePoint::from_civil({2010, 3, 16, 11, 0, 0}), thermal::TentMod::kFrontDoorHalfOpen},
        {TimePoint::from_civil({2010, 3, 22, 14, 0, 0}), thermal::TentMod::kFanInstalled},
    };

    /// Collection retry/backoff for the monitoring sweep.  The default is
    /// the paper's behaviour (one attempt per sweep, unbounded host
    /// buffers); the runner stamps `master_seed` into the policy so retry
    /// jitter replays with the season.
    monitoring::CollectorRetryPolicy collector_retry;

    /// The Lascar logger "arrived late": inside data starts here.
    TimePoint logger_start = TimePoint::from_date(2010, 3, 1);
    /// Manual USB readouts (indoor-outlier sources), every ~5 days.
    Duration readout_interval = Duration::days(5);

    faults::InjectorParams faults{};
    faults::ComponentFaultParams component_faults{};
    faults::MemoryFaultParams memory{};
    workload::LoadJobConfig load{};

    /// Which workload the season runs.  kArchive keeps the paper's batch
    /// churn; kTraffic swaps in the request-serving engine, whose per-tick
    /// busy fractions drive cpu load (and so heat, and so hazard).
    WorkloadKind workload = WorkloadKind::kArchive;
    /// Default traffic season: open-loop at the request_gen defaults (sized
    /// so the six-host early fleet sits near rho = 0.5), plus two flash
    /// crowds that transiently push the by-then-larger fleet past saturation
    /// — the backlog drains afterwards, showing up as deadline misses.
    workload::TrafficConfig traffic = [] {
        workload::TrafficConfig t;
        t.open.flash_crowds = {
            {TimePoint::from_civil({2010, 3, 1, 18, 0, 0}), Duration::hours(2), 4.0},
            {TimePoint::from_civil({2010, 3, 20, 19, 0, 0}), Duration::hours(1), 3.0},
        };
        return t;
    }();

    /// Operator behavior: crashed hosts are found and reset at the next
    /// weekday 10:00 (host #15 crashed Saturday 04:40 and was reset Monday).
    int operator_hour = 10;
    /// A permanently-failed tent host is replaced this long after retirement
    /// (Fig. 2: #15 out Mar 17, #19 in Mar 26).
    Duration replacement_lead = Duration::days(9);

    /// Defective loaner switches (Section 4.2.1): mean hours to failure.
    double switch_defect_mean_hours = 170.0;
};

/// Next operator visit strictly after `t`: the next weekday at
/// `operator_hour` local.
[[nodiscard]] TimePoint next_operator_visit(TimePoint t, int operator_hour);

/// Throw InvalidArgument naming the offending knob when `config` cannot
/// describe a runnable season (end before start, nonpositive tick, empty
/// corpus, ...).  Called per cell before a sweep fans out, so a bad campaign
/// dies with a diagnostic instead of a mid-run crash on worker N.
void validate(const ExperimentConfig& config);

/// A 64-bit fingerprint over the campaign-defining knobs (dates, tick,
/// seeds, tent schedule, workload sizing, weather script).  Two configs with
/// the same fingerprint describe the same campaign cell for checkpoint
/// purposes: a sweep journal records this hash and refuses to resume when it
/// changes.  It is a change detector, not a cryptographic commitment — and it
/// deliberately cannot see code-level overrides such as CensusPlan::run_cell.
[[nodiscard]] std::uint64_t fingerprint(const ExperimentConfig& config);

}  // namespace zerodeg::experiment
