#include "monitoring/collector.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/error.hpp"

namespace zerodeg::monitoring {

namespace {

void validate_policy(core::Duration cadence, const CollectorRetryPolicy& p) {
    const auto fail = [](const std::string& why) {
        throw core::InvalidArgument("Collector: " + why);
    };
    if (cadence.count() <= 0) fail("cadence must be positive");
    if (p.max_attempts < 1) {
        fail("retry.max_attempts must be >= 1, got " + std::to_string(p.max_attempts));
    }
    if (p.max_attempts > 1) {
        if (p.base_backoff.count() <= 0) fail("retry.base_backoff must be positive");
        if (p.backoff_factor < 1.0) fail("retry.backoff_factor must be >= 1");
        if (p.max_backoff < p.base_backoff) fail("retry.max_backoff must be >= base_backoff");
        if (p.jitter_frac < 0.0 || p.jitter_frac >= 1.0) {
            fail("retry.jitter_frac must be in [0, 1)");
        }
    }
}

}  // namespace

Collector::Collector(core::Simulator& sim, Network& net, int monitor_node, core::Duration cadence,
                     CollectorRetryPolicy retry)
    : sim_(sim),
      net_(net),
      monitor_node_(monitor_node),
      cadence_(cadence),
      retry_(retry),
      jitter_(retry.master_seed, "collector.retry") {
    validate_policy(cadence, retry);
}

void Collector::add_host(HostBinding binding, core::TimePoint first_sweep) {
    if (hosts_.contains(binding.host_id)) {
        throw core::InvalidArgument("Collector::add_host: duplicate host " +
                                    std::to_string(binding.host_id));
    }
    if (!binding.reachable || !binding.pending_bytes) {
        throw core::InvalidArgument("Collector::add_host: missing callbacks for host " +
                                    std::to_string(binding.host_id));
    }
    const int id = binding.host_id;
    const core::TimePoint start = first_sweep < sim_.now() ? sim_.now() : first_sweep;
    hosts_.emplace(id, HostState{std::move(binding), start, false, false});
    HostCollectionStats st;
    st.last_success = start;
    stats_.emplace(id, st);

    if (!sweep_scheduled_) {
        sweep_scheduled_ = true;
        sim_.schedule_every(start, cadence_, [this] { sweep(); });
    }
}

void Collector::remove_host(int host_id) {
    const auto it = hosts_.find(host_id);
    if (it == hosts_.end()) {
        throw core::InvalidArgument("Collector::remove_host: unknown host " +
                                    std::to_string(host_id));
    }
    it->second.removed = true;
}

HostCollectionStats& Collector::stats_for(int host_id) {
    const auto it = stats_.find(host_id);
    if (it == stats_.end()) {
        // hosts_ and stats_ are inserted together; missing stats for a swept
        // host is a broken invariant, not a caller mistake.
        throw core::Error("Collector: no stats slot for host " + std::to_string(host_id),
                          core::ErrorCode::kUnknown);
    }
    return it->second;
}

bool Collector::attempt_host(int id, HostState& host, bool is_retry) {
    const core::TimePoint now = sim_.now();
    HostCollectionStats& st = stats_for(id);
    ++st.attempts;
    if (is_retry) ++st.retries;

    CollectionAttempt attempt;
    attempt.time = now;
    attempt.host_id = id;
    attempt.retry = is_retry;

    const bool path = net_.path_up(monitor_node_, id);
    const bool up = host.binding.reachable();
    if (path && up) {
        std::uint64_t pending = host.binding.pending_bytes(st.last_success);
        if (retry_.buffer_capacity_bytes > 0 && pending > retry_.buffer_capacity_bytes) {
            // The host's bounded result buffer overflowed during the gap and
            // overwrote its oldest entries; only the newest capacity-worth
            // survives to be collected.
            st.dropped_bytes += pending - retry_.buffer_capacity_bytes;
            pending = retry_.buffer_capacity_bytes;
        }
        attempt.ok = true;
        attempt.bytes = pending;
        ++st.successes;
        if (is_retry) ++st.retry_successes;
        st.bytes += pending;
        st.longest_gap = std::max(st.longest_gap, now - st.last_success);
        st.last_success = now;
        st.ever_succeeded = true;
    } else {
        ++st.failures;
        st.longest_gap = std::max(st.longest_gap, now - st.last_success);
    }
    log_.push_back(attempt);
    return attempt.ok;
}

void Collector::schedule_retry(int id, int attempt_no) {
    // Backoff for attempt k (k >= 2): base * factor^(k-2), capped, then
    // jittered by a factor in [1 - jitter_frac, 1 + jitter_frac].  The draw
    // happens at scheduling time, in event order, so a season replays the
    // exact same retry timeline for the same master seed.
    const double exponent = static_cast<double>(attempt_no - 2);
    const double scale = std::pow(retry_.backoff_factor, exponent);
    const double capped =
        std::min(static_cast<double>(retry_.base_backoff.count()) * scale,
                 static_cast<double>(retry_.max_backoff.count()));
    const double jitter = 1.0 + retry_.jitter_frac * (2.0 * jitter_.uniform01() - 1.0);
    const auto delay = core::Duration::seconds(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(capped * jitter)));

    const auto host_it = hosts_.find(id);
    if (host_it == hosts_.end()) {
        throw core::Error("Collector: retry scheduled for unknown host " + std::to_string(id),
                          core::ErrorCode::kUnknown);
    }
    host_it->second.retry_pending = true;
    sim_.schedule_in(delay, [this, id, attempt_no] {
        const auto it = hosts_.find(id);
        if (it == hosts_.end()) return;
        HostState& host = it->second;
        if (host.removed) {
            host.retry_pending = false;
            return;
        }
        const bool ok = attempt_host(id, host, /*is_retry=*/true);
        if (!ok && attempt_no < retry_.max_attempts) {
            schedule_retry(id, attempt_no + 1);
        } else {
            host.retry_pending = false;
        }
    });
}

void Collector::sweep() {
    const core::TimePoint now = sim_.now();
    for (auto& [id, host] : hosts_) {
        if (host.removed || host.installed > now) continue;
        // A backoff chain from the previous sweep is still probing this
        // host; let it finish rather than stacking a second chain.
        if (host.retry_pending) continue;
        const bool ok = attempt_host(id, host, /*is_retry=*/false);
        if (!ok && retry_.max_attempts > 1) schedule_retry(id, 2);
    }
}

const HostCollectionStats& Collector::stats(int host_id) const {
    const auto it = stats_.find(host_id);
    if (it == stats_.end()) {
        throw core::InvalidArgument("Collector::stats: unknown host " + std::to_string(host_id));
    }
    return it->second;
}

std::uint64_t Collector::total_failures() const {
    std::uint64_t n = 0;
    for (const auto& [id, st] : stats_) n += st.failures;
    return n;
}

std::uint64_t Collector::total_retries() const {
    std::uint64_t n = 0;
    for (const auto& [id, st] : stats_) n += st.retries;
    return n;
}

std::uint64_t Collector::total_dropped_bytes() const {
    std::uint64_t n = 0;
    for (const auto& [id, st] : stats_) n += st.dropped_bytes;
    return n;
}

}  // namespace zerodeg::monitoring
