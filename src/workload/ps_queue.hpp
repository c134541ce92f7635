// Processor-sharing queue: the service model of the traffic workload.
//
// A PS server of capacity `service_rate` (work units per second) splits its
// capacity equally over all resident jobs; a job with demand d therefore
// leaves after integral(rate / n(t)) dt == d.  The simulation is *exact*,
// not tick-quantized: advance_to() walks from completion to completion in
// continuous time, so sojourn times match the M/M/1-PS closed forms
// (E[T] = 1/(mu - lambda)) to sampling error alone — the property the
// analytic-oracle suite (tests/test_traffic_analytic.cpp) pins to 2%.
//
// Everything is deterministic: jobs are held in admission order, ties
// complete in admission order, and no randomness lives here (the generators
// own the RNG streams).
//
// The next departure instant is cached: every mutation recomputes it from
// the resident jobs, so the traffic engine's per-event argmin over hosts
// reads one double per queue instead of rescanning every queue's jobs.
#pragma once

#include <cstdint>
#include <vector>

namespace zerodeg::workload {

class PsQueue {
public:
    /// `service_rate` is the server capacity in work units per second; a
    /// job's demand is expressed in the same work units.
    explicit PsQueue(double service_rate);

    struct Completion {
        std::uint64_t id = 0;
        double time = 0.0;  ///< absolute queue time of the departure
    };

    /// Admit a job at absolute time `now` (must be >= clock(); callers
    /// advance_to(now) first so pending departures are not skipped).
    void admit(std::uint64_t id, double demand, double now);

    /// Advance the queue clock to absolute time `t`, appending every
    /// departure in (clock(), t] to `out` in completion order.
    void advance_to(double t, std::vector<Completion>& out);

    /// Remove a resident job (clone cancellation / host crash).  Returns
    /// false if the id is not resident.
    bool cancel(std::uint64_t id);

    /// Drop every resident job (host crash), appending their ids to `out`
    /// in admission order.
    void drop_all(std::vector<std::uint64_t>& out);

    [[nodiscard]] std::size_t in_service() const { return jobs_.size(); }
    [[nodiscard]] double clock() const { return clock_; }
    [[nodiscard]] double service_rate() const { return rate_; }

    /// Absolute time of the next departure if nothing else arrives;
    /// +infinity when idle.
    [[nodiscard]] double next_completion_time() const { return next_completion_; }

    /// Busy time (clock seconds with >= 1 resident job) accumulated since
    /// the last call; the per-tick utilization integrand.
    [[nodiscard]] double take_busy_seconds();

private:
    struct Job {
        std::uint64_t id = 0;
        double remaining = 0.0;  ///< work units left
    };

    /// Recompute next_completion_ from the resident jobs; called at the end
    /// of every operation that moves the clock or the job set.
    void refresh_next_completion();

    double rate_;
    double clock_ = 0.0;
    double busy_seconds_ = 0.0;
    double next_completion_;
    std::vector<Job> jobs_;  ///< admission order
};

}  // namespace zerodeg::workload
