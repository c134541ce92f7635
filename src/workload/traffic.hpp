// Request-serving traffic workload: the utilization half of the paper's
// story.  The archive workload (scheduler.hpp) exercises disks and memory;
// this engine exercises the *CPU*: requests arrive (open- or closed-loop,
// request_gen.hpp), are dispatched to the least-loaded operational server,
// receive processor-sharing service (ps_queue.hpp), and their sojourn times
// feed latency/SLO accounting (slo.hpp).  Each server's busy fraction over
// a tick becomes its cpu load, which the runner couples onward:
//
//   utilization -> Server::set_cpu_load -> Fleet::wall_power
//                -> enclosure heat input -> intake temperature
//                -> faults::HazardTable stress
//
// so traffic shape (diurnal swing, flash crowds) shows up in the thermal
// trace and the fault census, which is the experiment the paper's free-air
// claim needs.
//
// Optionally each request is *cloned* across the tent/basement split
// (clone_across_split): one copy to the best tent host, one to the best
// basement host, first finish wins and cancels the sibling — the latency
// defense evaluated by the cloning reproducibility report in PAPERS.md.
//
// The engine is a continuous-time event loop advanced one experiment tick
// at a time, independent of the host-pass tick engine; per-object and
// batched engines therefore see byte-identical traffic by construction.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/sim_time.hpp"
#include "workload/ps_queue.hpp"
#include "workload/request_gen.hpp"
#include "workload/slo.hpp"

namespace zerodeg::workload {

/// Everything that shapes the traffic season.  Defaults give the 18-host
/// fleet a mean per-server utilization around one third, with diurnal peaks
/// and flash crowds pushing servers toward (transient) saturation.
struct TrafficConfig {
    enum class Mode { kOpen, kClosed };

    Mode mode = Mode::kOpen;
    OpenLoopConfig open{};      ///< used when mode == kOpen
    ClosedLoopConfig closed{};  ///< used when mode == kClosed

    /// Mean service demand per request, in seconds of *dedicated* service
    /// at rate 1.0 (exponential).  Per-server capacity in requests/s is
    /// service_rate / mean_demand_seconds.
    double mean_demand_seconds = 12.0;
    /// Server capacity, work-seconds per second (1.0 = one dedicated job
    /// progresses in real time).
    double service_rate = 1.0;
    /// Responses slower than this miss the SLO; drops always miss.
    double deadline_seconds = 60.0;
    /// Clone each request across the tent/basement split, first finish
    /// wins, loser is cancelled.
    bool clone_across_split = false;
};

class TrafficEngine {
public:
    /// One dispatchable server.  `operational` is sampled at dispatch time
    /// (host state only changes at tick boundaries, so it is stable within
    /// a tick); `set_load` receives the busy fraction in [0, 1] for the
    /// tick that just closed.  Hosts dispatch in add_host order; ties in
    /// queue depth go to the earliest-added host.
    struct HostBinding {
        std::string host_id;
        bool in_tent = false;
        std::function<bool()> operational;
        std::function<void(double)> set_load;
    };

    TrafficEngine(TrafficConfig config, std::uint64_t master_seed, core::TimePoint origin);

    void add_host(HostBinding binding);

    /// Simulate the traffic from the previous advance (or the origin) up to
    /// `tick_end`: arrivals, PS service, completions, cloning/cancellation,
    /// then publish every host's busy fraction through set_load and close
    /// the SLO tick row.  Must be called with strictly increasing times.
    void advance(core::TimePoint tick_end);

    // --- season-wide accounting -------------------------------------------
    [[nodiscard]] const SloTracker& slo() const { return slo_; }
    [[nodiscard]] std::uint64_t requests_issued() const { return requests_issued_; }
    [[nodiscard]] std::uint64_t clones_issued() const { return clones_issued_; }
    [[nodiscard]] std::uint64_t clones_cancelled() const { return clones_cancelled_; }
    /// Requests dispatched and neither completed nor dropped yet.
    [[nodiscard]] std::size_t in_flight() const {
        return static_cast<std::size_t>(requests_issued_ - slo_.completed() - slo_.dropped());
    }
    [[nodiscard]] std::size_t hosts() const { return hosts_.size(); }
    /// Fleet-mean busy fraction over everything simulated so far.
    [[nodiscard]] double mean_utilization() const;

private:
    /// A request occupies at most two hosts: one, or one per split side.
    static constexpr std::size_t kMaxClones = 2;

    struct RequestState {
        double arrival = 0.0;
        int user = -1;  ///< closed-loop user index; -1 in open mode
        struct Placement {
            std::size_t host = 0;
            std::uint64_t clone_id = 0;
        };
        std::array<Placement, kMaxClones> placements{};
        std::size_t clones = 0;  ///< live placements; 0 once the request is done
    };

    void drop_jobs_on_down_hosts();
    void dispatch(double t, int user);
    /// Settle every completion in work_ (first finish wins), then clear it.
    void process_completions();
    void finish_request(int user, double t);  ///< closed-loop user re-think
    /// The in-flight request with this id, or nullptr once it is done.
    [[nodiscard]] RequestState* find_request(std::uint64_t request_id);
    /// Mark a request done and trim the finished prefix of the table.
    void retire(RequestState& request);
    /// Least-loaded operational host; restricted to one side of the split
    /// when `side` is set.  Returns hosts_.size() when none qualifies.
    [[nodiscard]] std::size_t pick_host(std::optional<bool> tent_side) const;

    TrafficConfig config_;
    core::TimePoint origin_;
    std::vector<HostBinding> hosts_;
    std::vector<PsQueue> queues_;
    std::vector<char> host_up_;  ///< dispatchability, refreshed each tick

    std::optional<OpenLoopGenerator> arrivals_;
    double next_arrival_ = 0.0;  ///< open loop: cached next arrival instant
    DemandSampler demand_;
    core::RngStream think_rng_;
    std::vector<double> user_next_issue_;  ///< closed loop; +inf while in flight

    /// Flat table of requests by id: requests_[i] has id first_request_id_
    /// + i.  Ids are issued in order, so new requests append; done ones keep
    /// their slot (clones == 0) until the finished prefix is trimmed.
    std::vector<RequestState> requests_;
    std::uint64_t first_request_id_ = 1;
    std::size_t finished_prefix_ = 0;  ///< leading done entries not yet trimmed
    std::uint64_t next_request_id_ = 1;

    // Scratch buffers reused across events so dispatch allocates nothing.
    std::vector<PsQueue::Completion> work_;  ///< completions awaiting settlement
    std::vector<PsQueue::Completion> done_;  ///< one queue's departures
    std::vector<std::uint64_t> dropped_;     ///< clone ids lost with a host
    double now_ = 0.0;  ///< seconds since origin, end of last advance

    SloTracker slo_;
    std::uint64_t requests_issued_ = 0;
    std::uint64_t clones_issued_ = 0;
    std::uint64_t clones_cancelled_ = 0;
    double total_busy_seconds_ = 0.0;
};

}  // namespace zerodeg::workload
