#include "workload/traffic.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

TrafficEngine::TrafficEngine(TrafficConfig config, std::uint64_t master_seed,
                             core::TimePoint origin)
    : config_(std::move(config)),
      origin_(origin),
      demand_(config_.mean_demand_seconds, master_seed),
      think_rng_(master_seed, "traffic.think"),
      slo_(config_.deadline_seconds) {
    if (!(config_.service_rate > 0.0)) {
        throw core::InvalidArgument("TrafficEngine: service_rate must be positive");
    }
    if (config_.mode == TrafficConfig::Mode::kOpen) {
        arrivals_.emplace(config_.open, master_seed, origin_);
        next_arrival_ = arrivals_->next_arrival();
    } else {
        if (config_.closed.users < 1) {
            throw core::InvalidArgument("TrafficEngine: closed.users must be >= 1");
        }
        if (!(config_.closed.think_seconds > 0.0)) {
            throw core::InvalidArgument("TrafficEngine: closed.think_seconds must be positive");
        }
        user_next_issue_.reserve(static_cast<std::size_t>(config_.closed.users));
        for (int u = 0; u < config_.closed.users; ++u) {
            user_next_issue_.push_back(think_rng_.exponential(1.0 / config_.closed.think_seconds));
        }
    }
}

void TrafficEngine::add_host(HostBinding binding) {
    if (hosts_.size() % 64 == 0) busy_.push_back(0);
    hosts_.push_back(std::move(binding));
    queues_.emplace_back(config_.service_rate);
    host_up_.push_back(1);
}

void TrafficEngine::sync_busy(std::size_t host) {
    const std::uint64_t bit = std::uint64_t{1} << (host % 64);
    std::uint64_t& word = busy_[host / 64];
    word = queues_[host].in_service() > 0 ? (word | bit) : (word & ~bit);
}

std::size_t TrafficEngine::pick_host(std::optional<bool> tent_side) const {
    std::size_t best = hosts_.size();
    std::size_t best_depth = 0;
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        if (!host_up_[h]) continue;
        if (tent_side && hosts_[h].in_tent != *tent_side) continue;
        const std::size_t depth = queues_[h].in_service();
        // Nothing beats an idle host, and every earlier candidate was busy,
        // so it is the earliest-added of the least loaded.
        if (depth == 0) return h;
        if (best == hosts_.size() || depth < best_depth) {
            best = h;
            best_depth = depth;
        }
    }
    return best;
}

void TrafficEngine::finish_request(int user, double t) {
    if (config_.mode != TrafficConfig::Mode::kClosed || user < 0) return;
    user_next_issue_[static_cast<std::size_t>(user)] =
        t + think_rng_.exponential(1.0 / config_.closed.think_seconds);
}

TrafficEngine::RequestState* TrafficEngine::find_request(std::uint64_t request_id) {
    if (request_id < first_request_id_) return nullptr;
    const std::uint64_t slot = request_id - first_request_id_;
    if (slot >= requests_.size()) return nullptr;
    RequestState& request = requests_[static_cast<std::size_t>(slot)];
    return request.clones == 0 ? nullptr : &request;
}

void TrafficEngine::retire(RequestState& request) {
    request.clones = 0;
    while (finished_prefix_ < requests_.size() && requests_[finished_prefix_].clones == 0) {
        ++finished_prefix_;
    }
    // Erase the done prefix once it is at least half the table, so every
    // slot is moved O(1) times amortized and the table stays bounded by
    // twice the id span of the requests in flight.
    if (2 * finished_prefix_ >= requests_.size()) {
        requests_.erase(requests_.begin(),
                        requests_.begin() + static_cast<std::ptrdiff_t>(finished_prefix_));
        first_request_id_ += finished_prefix_;
        finished_prefix_ = 0;
    }
}

void TrafficEngine::dispatch(double t, int user) {
    ++requests_issued_;
    const std::uint64_t rid = next_request_id_++;
    RequestState& state = requests_.emplace_back();  // slot of rid
    state.arrival = t;
    state.user = user;

    // Pick targets: least-loaded host overall, or — when cloning across the
    // split — the best tent host plus the best basement host (tent clone's
    // demand is drawn first).  Degenerates to a single clone when one side
    // has no operational host.
    std::array<std::size_t, kMaxClones> targets{};
    std::size_t n_targets = 0;
    if (config_.clone_across_split) {
        const std::size_t tent = pick_host(true);
        const std::size_t cellar = pick_host(false);
        if (tent < hosts_.size()) targets[n_targets++] = tent;
        if (cellar < hosts_.size()) targets[n_targets++] = cellar;
    } else {
        const std::size_t any = pick_host(std::nullopt);
        if (any < hosts_.size()) targets[n_targets++] = any;
    }

    if (n_targets == 0) {
        // Nowhere to run: the user saw no response at all.
        slo_.record_dropped();
        finish_request(user, t);
        retire(state);
        return;
    }

    for (std::size_t k = 0; k < n_targets; ++k) {
        const std::uint64_t clone_id = rid * 2 + k;
        queues_[targets[k]].admit(clone_id, demand_.next(), t);
        sync_busy(targets[k]);
        state.placements[k] = {targets[k], clone_id};
        ++clones_issued_;
    }
    state.clones = n_targets;
}

void TrafficEngine::process_completions() {
    // FIFO so first finish genuinely wins; cancelling a sibling first
    // advances its queue to the completion instant, which can (on an exact
    // tie) surface the sibling's own completion — those join the queue and
    // find the request already retired.
    for (std::size_t i = 0; i < work_.size(); ++i) {
        const PsQueue::Completion done = work_[i];
        RequestState* request = find_request(done.id / 2);
        if (request == nullptr) continue;  // sibling of an already-finished request

        finish_request(request->user, done.time);
        slo_.record(done.time - request->arrival);
        for (std::size_t k = 0; k < request->clones; ++k) {
            const RequestState::Placement& p = request->placements[k];
            if (p.clone_id == done.id) continue;
            PsQueue& q = queues_[p.host];
            if (q.clock() < done.time) q.advance_to(done.time, work_);
            if (q.cancel(p.clone_id)) ++clones_cancelled_;
            sync_busy(p.host);
        }
        retire(*request);
    }
    work_.clear();
}

void TrafficEngine::drop_jobs_on_down_hosts() {
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        host_up_[h] = (!hosts_[h].operational || hosts_[h].operational()) ? 1 : 0;
        if (host_up_[h] || queues_[h].in_service() == 0) continue;
        dropped_.clear();
        queues_[h].drop_all(dropped_);
        sync_busy(h);
        for (const std::uint64_t clone_id : dropped_) {
            RequestState* request = find_request(clone_id / 2);
            if (request == nullptr) continue;
            const auto live = request->placements.begin() +
                              static_cast<std::ptrdiff_t>(request->clones);
            const auto kept = std::remove_if(request->placements.begin(), live,
                                             [clone_id](const RequestState::Placement& p) {
                                                 return p.clone_id == clone_id;
                                             });
            request->clones = static_cast<std::size_t>(kept - request->placements.begin());
            if (request->clones == 0) {
                // Every clone died with its host: the request is lost.
                finish_request(request->user, now_);
                slo_.record_dropped();
                retire(*request);
            }
        }
    }
}

void TrafficEngine::advance(core::TimePoint tick_end) {
    const double t_end = static_cast<double>((tick_end - origin_).count());
    if (t_end <= now_) {
        throw core::InvalidArgument("TrafficEngine::advance: tick_end must move forward");
    }
    const double tick_start = now_;

    drop_jobs_on_down_hosts();

    for (;;) {
        // Next arrival: the cached open-loop instant, or the earliest
        // thinking user (ties to the lowest user index).
        double t_arr = kInf;
        std::size_t arr_user = 0;
        if (config_.mode == TrafficConfig::Mode::kOpen) {
            t_arr = next_arrival_;
        } else {
            for (std::size_t u = 0; u < user_next_issue_.size(); ++u) {
                if (user_next_issue_[u] < t_arr) {
                    t_arr = user_next_issue_[u];
                    arr_user = u;
                }
            }
        }

        // Next completion across the busy hosts, visited in ascending
        // index order so ties go to the lowest host index.  An idle host's
        // next completion is +infinity, so skipping it changes nothing.
        double t_comp = kInf;
        std::size_t comp_host = 0;
        for (std::size_t w = 0; w < busy_.size(); ++w) {
            for (std::uint64_t bits = busy_[w]; bits != 0; bits &= bits - 1) {
                const std::size_t h = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                const double t = queues_[h].next_completion_time();
                if (t < t_comp) {
                    t_comp = t;
                    comp_host = h;
                }
            }
        }

        const double t_next = std::min(t_arr, t_comp);
        if (t_next > t_end) break;

        if (t_comp <= t_arr) {
            // Completions first at a tie, so admit() never skips a departure.
            queues_[comp_host].advance_to(t_comp, work_);
            sync_busy(comp_host);
            process_completions();
        } else if (config_.mode == TrafficConfig::Mode::kOpen) {
            dispatch(t_arr, -1);
            next_arrival_ = arrivals_->next_arrival();
        } else {
            user_next_issue_[arr_user] = kInf;  // in flight until the response
            dispatch(t_arr, static_cast<int>(arr_user));
        }
    }

    // Quiet remainder of the tick: move every clock to t_end and settle the
    // busy-time integrals.  No completion can fire (the loop drained them).
    // Defensive: a departure here is only reachable through floating-point
    // edge cases at exactly t_end; account for it rather than lose requests.
    for (std::size_t h = 0; h < queues_.size(); ++h) {
        queues_[h].advance_to(t_end, work_);
        sync_busy(h);
    }
    if (!work_.empty()) process_completions();
    now_ = t_end;

    // Publish per-host busy fractions and close the SLO tick row.
    const double span = t_end - tick_start;
    double busy_sum = 0.0;
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        const double busy = queues_[h].take_busy_seconds();
        total_busy_seconds_ += busy;
        const double frac = std::clamp(busy / span, 0.0, 1.0);
        busy_sum += frac;
        if (hosts_[h].set_load) hosts_[h].set_load(frac);
    }
    const double mean_util =
        hosts_.empty() ? 0.0 : busy_sum / static_cast<double>(hosts_.size());
    slo_.close_tick(tick_end, mean_util);
}

double TrafficEngine::mean_utilization() const {
    if (hosts_.empty() || now_ <= 0.0) return 0.0;
    return total_busy_seconds_ / (static_cast<double>(hosts_.size()) * now_);
}

}  // namespace zerodeg::workload
