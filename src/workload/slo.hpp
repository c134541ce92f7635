// Latency / SLO accounting for the traffic workload.
//
// Every completed request's sojourn time is recorded (the percentile basis),
// deadline misses and drops are counted, and a per-tick aggregate row is
// appended so a season exports a compact latency CSV instead of millions of
// raw samples.  A row keeps its tick's slice of the recorded sojourns; the
// per-tick quantiles are computed from that slice only when the CSV is
// rendered, since nothing else reads them.  All aggregation is order-stable:
// rows are appended in tick order and percentiles use core::stats'
// deterministic interpolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sim_time.hpp"

namespace zerodeg::workload {

/// One tick's latency aggregate (the unit of the exported CSV).
struct SloTickRow {
    core::TimePoint time;          ///< tick end
    /// This tick's completions: the slice of SloTracker::sojourns() that
    /// starts at `first_sojourn` and holds `completed` values.
    std::uint64_t completed = 0;
    std::size_t first_sojourn = 0;
    std::uint64_t dropped = 0;
    std::uint64_t deadline_misses = 0;
    double mean_utilization = 0.0; ///< fleet-mean busy fraction this tick
};

class SloTracker {
public:
    explicit SloTracker(double deadline_seconds);

    /// A completed request's sojourn (response) time, in seconds: finite
    /// and non-negative, else InvalidArgument (NaN included).
    void record(double sojourn_seconds);
    /// A request that never completed (host down, nowhere to dispatch).
    /// Drops are charged as deadline misses too — the user saw no response.
    void record_dropped();

    /// Close the current tick: the since-last-call completions become one
    /// CSV row stamped `tick_end`.
    void close_tick(core::TimePoint tick_end, double mean_utilization);

    // --- season-wide aggregates -------------------------------------------
    [[nodiscard]] std::uint64_t completed() const { return completed_; }
    [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
    [[nodiscard]] std::uint64_t deadline_misses() const { return deadline_misses_; }
    [[nodiscard]] double deadline_miss_fraction() const;
    [[nodiscard]] double mean_sojourn_seconds() const;
    /// Percentile over every completed request's sojourn, p in [0, 100].
    [[nodiscard]] double sojourn_percentile(double p) const;
    [[nodiscard]] double deadline_seconds() const { return deadline_; }

    [[nodiscard]] const std::vector<SloTickRow>& tick_rows() const { return rows_; }
    /// Every completion's sojourn, in record order.
    [[nodiscard]] const std::vector<double>& sojourns() const { return sojourns_; }

private:
    double deadline_;
    std::uint64_t completed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t deadline_misses_ = 0;
    double sojourn_sum_ = 0.0;
    std::vector<double> sojourns_;      ///< every completion, season-wide
    std::size_t tick_first_sojourn_ = 0; ///< sojourns_ index the open tick starts at
    std::uint64_t tick_dropped_ = 0;
    std::uint64_t tick_misses_ = 0;
    std::vector<SloTickRow> rows_;
};

/// Render the per-tick aggregate rows as CSV (the `traffic_slo.csv` export),
/// with each row's p50/p95/p99 over its tick's completions (0 if none).
[[nodiscard]] std::string render_slo_csv(const SloTracker& tracker);

}  // namespace zerodeg::workload
