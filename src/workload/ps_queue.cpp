#include "workload/ps_queue.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

PsQueue::PsQueue(double service_rate) : rate_(service_rate), next_completion_(kInf) {
    if (!(service_rate > 0.0)) {
        throw core::InvalidArgument("PsQueue: service_rate must be positive");
    }
}

void PsQueue::admit(std::uint64_t id, double demand, double now) {
    // Negated comparisons so a NaN time or demand fails the check too.
    if (!(now >= clock_)) throw core::InvalidArgument("PsQueue::admit: time ran backwards");
    if (!(demand > 0.0 && demand < kInf)) {
        throw core::InvalidArgument("PsQueue::admit: demand must be finite and positive");
    }
    // The caller has already drained departures up to `now`; the remaining
    // span holds no completion, so only the clock and shared progress move.
    double min_rem = kInf;
    if (!jobs_.empty()) {
        const double dt = now - clock_;
        const double work = dt * rate_ / static_cast<double>(jobs_.size());
        for (Job& j : jobs_) {
            j.remaining -= work;
            min_rem = std::min(min_rem, j.remaining);
        }
        busy_seconds_ += dt;
    }
    clock_ = now;
    jobs_.push_back({id, demand});
    min_remaining_ = std::min(min_rem, demand);
    set_next_completion();
}

void PsQueue::advance_to(double t, std::vector<Completion>& out) {
    if (!(t >= clock_)) throw core::InvalidArgument("PsQueue::advance_to: time ran backwards");
    while (!jobs_.empty()) {
        // Each resident job receives rate/n; the earliest departure is when
        // the least-loaded job's remaining work drains.
        const double n = static_cast<double>(jobs_.size());
        const double min_rem = min_remaining_;
        const double dt_to_departure = min_rem * n / rate_;
        double next_min = kInf;
        if (clock_ + dt_to_departure > t) {
            const double dt = t - clock_;
            const double work = dt * rate_ / n;
            for (Job& j : jobs_) {
                j.remaining -= work;
                next_min = std::min(next_min, j.remaining);
            }
            busy_seconds_ += dt;
            clock_ = t;
            min_remaining_ = next_min;
            set_next_completion();
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
                next_min = std::min(next_min, j.remaining);
                jobs_[kept++] = j;
            }
        }
        jobs_.resize(kept);
        min_remaining_ = next_min;
    }
    clock_ = t;
    set_next_completion();
}

bool PsQueue::cancel(std::uint64_t id) {
    const auto it =
        std::find_if(jobs_.begin(), jobs_.end(), [id](const Job& j) { return j.id == id; });
    if (it == jobs_.end()) return false;
    const double removed = it->remaining;
    jobs_.erase(it);
    if (removed <= min_remaining_) {
        // The minimum may have left with the job: rescan the survivors.
        min_remaining_ = kInf;
        for (const Job& j : jobs_) min_remaining_ = std::min(min_remaining_, j.remaining);
    }
    set_next_completion();
    return true;
}

void PsQueue::drop_all(std::vector<std::uint64_t>& out) {
    for (const Job& j : jobs_) out.push_back(j.id);
    jobs_.clear();
    set_next_completion();
}

void PsQueue::set_next_completion() {
    next_completion_ = jobs_.empty()
                           ? kInf
                           : clock_ + min_remaining_ * static_cast<double>(jobs_.size()) / rate_;
}

double PsQueue::take_busy_seconds() {
    const double b = busy_seconds_;
    busy_seconds_ = 0.0;
    return b;
}

}  // namespace zerodeg::workload
