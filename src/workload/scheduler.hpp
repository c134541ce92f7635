// The per-host load scheduler of Section 3.5.
//
// "Each host executes its synthetic load every 10 minutes.  In order to
// avoid synchronization, some fuzz is added to the starting phase: each host
// sleeps for 0 to 119 seconds before commencing the archival process."
//
// One event per cycle.  A host's cycle instants are its first cycle plus
// whole cycles.  Each run is one event at its cycle instant plus a fuzz drawn
// from the host's `load.fuzz.<id>` stream, and the first thing a run does is
// to draw the next fuzz and requeue itself, ranked and as of the next cycle
// instant (Simulator::requeue_ranked).  add_host pushes the first run the
// same way (Simulator::schedule_ranked), and remove_host cancels the run.
//
// The run order is that of a scheduler with a recurring trigger per host at
// its cycle instants, which pushes the run when it fires:
//  - A run is stamped with its cycle instant, so it runs after every event
//    scheduled before that instant and before every event scheduled after.
//  - Runs of one instant run in rank order, which is the order those
//    triggers fire in.  A trigger keeps its place among the hosts already
//    cycling; a host that is added at least a cycle before its first cycle
//    goes ahead of all of them (a later install batch before an earlier
//    one), and a host added less than a cycle before its first cycle, or at
//    it (the replacement), goes behind them.  Hosts added for the same
//    instant keep add_host order.
//  - A ranked run follows the ordinary events of its time and stamp.  The
//    only ordinary events pushed at a cycle instant that can share a run's
//    time are collector retries from the sweep: an operator visit or a
//    replacement pushed then is due at least ten minutes later.  A retry
//    reads host reachability and writes collector stats; a run reads host
//    operationality and writes load stats, its memory model and the job.
//    Neither reads what the other writes, so their order cannot show.
//
// A cycle draws in the event loop (LoadJob::draw) and counts its runs, page
// ops and ECC corrections at once.  A corrupting run is kept as a pending
// run; the first accessor that reads an outcome (stats, all_stats,
// incidents, total_wrong_hashes, total_blocks_decoded, total_md5_bytes)
// settles every pending run, in run order, in one LoadJob::settle.  An
// incident keeps the sim time and host of its run, so the outcomes do not
// depend on when or how often they are read.  The const accessors settle
// through `mutable` state, so a scheduler belongs to one season's thread.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/event_queue.hpp"
#include "core/rng.hpp"
#include "faults/memory_faults.hpp"
#include "workload/load_job.hpp"

namespace zerodeg::workload {

/// A wrong-hash incident, the unit of Section 4.2.2's census.
struct WrongHashIncident {
    core::TimePoint time;
    int host_id = 0;
    std::size_t corrupt_blocks = 0;
    std::size_t total_blocks = 0;
    bool recovered = false;  ///< all other blocks salvaged

    bool operator==(const WrongHashIncident&) const = default;
};

struct HostLoadStats {
    std::uint64_t runs = 0;
    std::uint64_t wrong_hashes = 0;
    std::uint64_t skipped = 0;  ///< host was down at cycle time
    std::uint64_t ecc_corrected = 0;
    std::uint64_t page_ops = 0;
    std::uint64_t blocks_decoded = 0;  ///< forensics work (JobResult::blocks_decoded)
    std::uint64_t md5_bytes = 0;       ///< hashing work (JobResult::md5_bytes)

    bool operator==(const HostLoadStats&) const = default;
};

class LoadScheduler {
public:
    struct HostBinding {
        int host_id = 0;
        bool ecc = false;
        /// Checked at each cycle; a crashed host skips its run.
        std::function<bool()> operational;
    };

    /// One shared job definition (the corpus is the same on every host);
    /// per-host RNG streams keep the fuzz and faults independent.  The
    /// scheduler takes ownership of the job, which builds itself lazily on
    /// the first cycle that runs it, so a scheduler with no hosts builds none.
    LoadScheduler(core::Simulator& sim, LoadJob job, faults::MemoryFaultParams mem_params,
                  std::uint64_t master_seed,
                  core::Duration cycle = core::Duration::minutes(10));

    /// Register a host and start its cycle at `first_cycle` (typically the
    /// install date; a past date starts it now).
    void add_host(HostBinding binding, core::TimePoint first_cycle);

    /// Stop scheduling a host (retirement): its pending run is cancelled.
    void remove_host(int host_id);

    [[nodiscard]] const LoadJob& job() const { return job_; }
    [[nodiscard]] const HostLoadStats& stats(int host_id) const;
    [[nodiscard]] const std::map<int, HostLoadStats>& all_stats() const {
        settle();
        return stats_;
    }
    [[nodiscard]] const std::vector<WrongHashIncident>& incidents() const {
        settle();
        return incidents_;
    }

    [[nodiscard]] std::uint64_t total_runs() const;
    [[nodiscard]] std::uint64_t total_wrong_hashes() const;
    [[nodiscard]] std::uint64_t total_page_ops() const;
    [[nodiscard]] std::uint64_t total_blocks_decoded() const;
    [[nodiscard]] std::uint64_t total_md5_bytes() const;

private:
    struct HostState {
        HostBinding binding;
        faults::MemoryFaultModel memory;
        core::RngStream fuzz_rng;
        HostLoadStats* stats = nullptr;  ///< this host's node in stats_
        std::uint64_t rank = 0;          ///< order among runs of one instant
        core::TimePoint cycle_instant;   ///< of the pending run
        core::EventId cycle_event = 0;   ///< the run, requeued each cycle
    };

    /// Where and when a corrupting run that waits for its verdict ran.
    struct PendingRun {
        core::TimePoint time;
        int host_id = 0;
    };

    core::Simulator& sim_;
    LoadJob job_;
    faults::MemoryFaultParams mem_params_;
    std::uint64_t master_seed_;
    core::Duration cycle_;
    core::TimePoint origin_;  ///< sim time at construction
    std::map<int, HostState> hosts_;
    mutable std::map<int, HostLoadStats> stats_;
    mutable std::vector<WrongHashIncident> incidents_;
    mutable std::vector<PendingRun> pending_;
    mutable std::vector<RunDamage> pending_damage_;  ///< pending_[i]'s flips

    /// The rank of a host added now whose first cycle is `first`.
    [[nodiscard]] std::uint64_t entry_rank(core::TimePoint first) const;
    [[nodiscard]] static core::Duration draw_fuzz(HostState& h);
    void run_cycle(HostState& h);
    /// Verify every pending run and book its outcome.
    void settle() const;
};

}  // namespace zerodeg::workload
