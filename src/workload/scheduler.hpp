// The per-host load scheduler of Section 3.5.
//
// "Each host executes its synthetic load every 10 minutes.  In order to
// avoid synchronization, some fuzz is added to the starting phase: each host
// sleeps for 0 to 119 seconds before commencing the archival process."
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
    /// install date).
    void add_host(HostBinding binding, core::TimePoint first_cycle);

    /// Stop scheduling a host (retirement).
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
        core::EventId cycle_event = 0;
        bool removed = false;
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
    std::map<int, HostState> hosts_;
    mutable std::map<int, HostLoadStats> stats_;
    mutable std::vector<WrongHashIncident> incidents_;
    mutable std::vector<PendingRun> pending_;
    mutable std::vector<RunDamage> pending_damage_;  ///< pending_[i]'s flips

    void run_cycle(int host_id);
    /// Verify every pending run and book its outcome.
    void settle() const;
};

}  // namespace zerodeg::workload
