#include "workload/ps_queue.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"

namespace zerodeg::workload {

PsQueue::PsQueue(double service_rate)
    : rate_(service_rate), next_completion_(std::numeric_limits<double>::infinity()) {
    if (!(service_rate > 0.0)) {
        throw core::InvalidArgument("PsQueue: service_rate must be positive");
    }
}

void PsQueue::admit(std::uint64_t id, double demand, double now) {
    if (now < clock_) throw core::InvalidArgument("PsQueue::admit: time ran backwards");
    if (!(demand > 0.0)) throw core::InvalidArgument("PsQueue::admit: demand must be positive");
    // The caller has already drained departures up to `now`; the remaining
    // span holds no completion, so only the clock and shared progress move.
    if (!jobs_.empty()) {
        const double dt = now - clock_;
        const double work = dt * rate_ / static_cast<double>(jobs_.size());
        for (Job& j : jobs_) j.remaining -= work;
        busy_seconds_ += dt;
    }
    clock_ = now;
    jobs_.push_back({id, demand});
    refresh_next_completion();
}

void PsQueue::advance_to(double t, std::vector<Completion>& out) {
    if (t < clock_) throw core::InvalidArgument("PsQueue::advance_to: time ran backwards");
    while (!jobs_.empty()) {
        const double n = static_cast<double>(jobs_.size());
        double min_rem = jobs_.front().remaining;
        for (const Job& j : jobs_) min_rem = std::min(min_rem, j.remaining);
        // Each resident job receives rate/n; the earliest departure is when
        // the least-loaded job's remaining work drains.
        const double dt_to_departure = min_rem * n / rate_;
        if (clock_ + dt_to_departure > t) {
            const double dt = t - clock_;
            const double work = dt * rate_ / n;
            for (Job& j : jobs_) j.remaining -= work;
            busy_seconds_ += dt;
            clock_ = t;
            refresh_next_completion();
            return;
        }
        busy_seconds_ += dt_to_departure;
        clock_ += dt_to_departure;
        // Serve min_rem to everyone and pop everything drained, compacting
        // the survivors in place (ties depart together, admission order).
        std::size_t kept = 0;
        for (Job& j : jobs_) {
            j.remaining -= min_rem;
            if (j.remaining <= 1e-12) {
                out.push_back({j.id, clock_});
            } else {
                jobs_[kept++] = j;
            }
        }
        jobs_.resize(kept);
    }
    clock_ = t;
    refresh_next_completion();
}

bool PsQueue::cancel(std::uint64_t id) {
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
        if (it->id == id) {
            jobs_.erase(it);
            refresh_next_completion();
            return true;
        }
    }
    return false;
}

void PsQueue::drop_all(std::vector<std::uint64_t>& out) {
    for (const Job& j : jobs_) out.push_back(j.id);
    jobs_.clear();
    refresh_next_completion();
}

void PsQueue::refresh_next_completion() {
    if (jobs_.empty()) {
        next_completion_ = std::numeric_limits<double>::infinity();
        return;
    }
    double min_rem = jobs_.front().remaining;
    for (const Job& j : jobs_) min_rem = std::min(min_rem, j.remaining);
    next_completion_ = clock_ + min_rem * static_cast<double>(jobs_.size()) / rate_;
}

double PsQueue::take_busy_seconds() {
    const double b = busy_seconds_;
    busy_seconds_ = 0.0;
    return b;
}

}  // namespace zerodeg::workload
