#include "workload/slo.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/stats.hpp"

namespace zerodeg::workload {

namespace {

std::string fmt6(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return buf;
}

}  // namespace

SloTracker::SloTracker(double deadline_seconds) : deadline_(deadline_seconds) {
    if (!(deadline_seconds > 0.0)) {
        throw core::InvalidArgument("SloTracker: deadline_seconds must be positive");
    }
}

void SloTracker::record(double sojourn_seconds) {
    if (!(sojourn_seconds >= 0.0 && sojourn_seconds < std::numeric_limits<double>::infinity())) {
        throw core::InvalidArgument("SloTracker::record: sojourn must be finite and >= 0");
    }
    ++completed_;
    sojourn_sum_ += sojourn_seconds;
    sojourns_.push_back(sojourn_seconds);
    if (sojourn_seconds > deadline_) {
        ++deadline_misses_;
        ++tick_misses_;
    }
}

void SloTracker::record_dropped() {
    ++dropped_;
    ++tick_dropped_;
    ++deadline_misses_;
    ++tick_misses_;
}

void SloTracker::close_tick(core::TimePoint tick_end, double mean_utilization) {
    SloTickRow row;
    row.time = tick_end;
    row.completed = sojourns_.size() - tick_first_sojourn_;
    row.first_sojourn = tick_first_sojourn_;
    row.dropped = tick_dropped_;
    row.deadline_misses = tick_misses_;
    row.mean_utilization = mean_utilization;
    rows_.push_back(row);
    tick_first_sojourn_ = sojourns_.size();
    tick_dropped_ = 0;
    tick_misses_ = 0;
}

double SloTracker::deadline_miss_fraction() const {
    const std::uint64_t issued = completed_ + dropped_;
    if (issued == 0) return 0.0;
    return static_cast<double>(deadline_misses_) / static_cast<double>(issued);
}

double SloTracker::mean_sojourn_seconds() const {
    if (completed_ == 0) return 0.0;
    return sojourn_sum_ / static_cast<double>(completed_);
}

double SloTracker::sojourn_percentile(double p) const {
    if (sojourns_.empty()) return 0.0;
    return core::percentile(sojourns_, p);
}

std::string render_slo_csv(const SloTracker& tracker) {
    std::ostringstream out;
    out << "time,completed,dropped,deadline_misses,p50_s,p95_s,p99_s,mean_utilization\n";
    std::vector<double> tick;  // one row's sojourns, sorted once for all three
    for (const SloTickRow& row : tracker.tick_rows()) {
        double p50 = 0.0, p95 = 0.0, p99 = 0.0;
        if (row.completed > 0) {
            const auto first =
                tracker.sojourns().begin() + static_cast<std::ptrdiff_t>(row.first_sojourn);
            tick.assign(first, first + static_cast<std::ptrdiff_t>(row.completed));
            std::sort(tick.begin(), tick.end());
            p50 = core::percentile_sorted(tick, 50.0);
            p95 = core::percentile_sorted(tick, 95.0);
            p99 = core::percentile_sorted(tick, 99.0);
        }
        out << row.time.to_string() << ',' << row.completed << ',' << row.dropped << ','
            << row.deadline_misses << ',' << fmt6(p50) << ',' << fmt6(p95) << ','
            << fmt6(p99) << ',' << fmt6(row.mean_utilization) << '\n';
    }
    return out.str();
}

}  // namespace zerodeg::workload
