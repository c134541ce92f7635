// Worker/coordinator execution of census sweeps over the transport seam.
//
// Scheduling is pull-based lease assignment: workers ask the coordinator for
// work (a HEARTBEAT carrying no lease id), the coordinator grants a LEASE
// over the lowest unassigned cell indices, the worker simulates them into a
// *local* SweepJournal — durable before a single byte hits the wire — then
// streams the finished records as checksummed CELL frames (shard_protocol)
// to the coordinator, which journals them into the merged campaign journal
// and acks.  Delivery is at-least-once with idempotent replay: a worker
// resends unacked cells after drops, reconnects, or its own death (the local
// journal has every payload); the coordinator dedupes by cell index.
//
// Liveness is deterministic: lease deadlines are counted in coordinator
// protocol ops (frames handled), never in wall time — the same pure
// hash-of-(seed, channel, op#) clock discipline FaultyTransport uses.  A
// lease holder that stays silent for `lease_deadline_ops` ops (while other
// workers' chatter advances the clock) is declared permanently dead: its
// link is closed, its unfinished cells return to the pool and are granted to
// survivors.  A dead *link* (EOF, netsim switch death) fails the lease
// immediately.  A returning "zombie" worker streams its stale local journal
// first; the dedupe path absorbs every late cell, so the merged journal is
// byte-identical to an uninterrupted local run no matter which process died
// when — the property distributed_torture pins, including permanent-death
// schedules that kill a worker forever at every send op.
//
// Poison-cell quarantine: a cell whose lease fails under kMaxLeaseAttempts
// *distinct* workers is assumed to kill whoever touches it.  It is journaled
// as a `poison` record (holding the slot so the campaign resolves instead of
// wedging) and reported loudly; CoordinatorService::result() then throws
// core::LeaseExpired rather than hand back a table with holes.
//
// One worker mode: a worker handshakes, streams the unacked backlog of its
// local journal, then pulls leases until DONE.  Offline (no link) it
// simulates nothing and reports that backlog as buffered; the next online
// run drains it without re-simulating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/transport.hpp"
#include "experiment/parallel_census.hpp"
#include "monitoring/retry_policy.hpp"

namespace zerodeg::core {
class FileSystem;
}  // namespace zerodeg::core

namespace zerodeg::experiment {

/// A lease that fails under this many distinct workers marks its cell as
/// poison: quarantined, reported, never granted again.
inline constexpr std::size_t kMaxLeaseAttempts = 3;

/// A worker's identity.  `shard` is a self-chosen label carried in the
/// HELLO.  `of` survives only so existing `ShardSpec{label, 0}` callers keep
/// compiling: run_worker throws core::InvalidArgument unless it is 0.
struct ShardSpec {
    std::size_t shard = 0;
    std::size_t of = 0;
};

/// The config of a single campaign cell, exactly as ParallelCensus would
/// build it (same seed derivation, same per-cell validation context).
[[nodiscard]] ExperimentConfig cell_config(const CensusPlan& plan, std::size_t index);

/// One cell's unit of work: plan.run_cell if set, else run_season_census.
[[nodiscard]] FaultCensus run_cell(const CensusPlan& plan, const ExperimentConfig& config);

struct WorkerOptions {
    std::size_t jobs = 1;  ///< fan-out when simulating a lease
    /// Frame resend budget: a CELL frame gets max_attempts tries (sends
    /// swallowed by the link or left unacked past the ack timeout count as
    /// failed attempts).  The backoff fields are not waited out in wall time
    /// — the ack timeout itself is the pacing — but max_attempts is honoured
    /// exactly.  Note a cell undelivered within one lease is not lost: the
    /// coordinator re-grants the lease on the worker's next pull, so even a
    /// zero-retry policy converges while the link stays alive.
    monitoring::CollectorRetryPolicy retry{.max_attempts = 4};
    /// How long to wait for an ack (or the next lease) before charging a
    /// resend attempt / sending the next pull.  -1 would block forever; keep
    /// it finite so lost frames are survivable.
    int ack_timeout_ms = 2000;
    /// Called to (re)establish the coordinator link after TransportClosed.
    /// May return nullptr ("coordinator is gone") to trigger degraded mode.
    std::function<std::unique_ptr<core::Transport>()> reconnect;
    int max_reconnects = 3;           ///< reconnect budget per worker run
    core::FileSystem* fs = nullptr;   ///< local journal I/O seam
    std::function<void(const std::string&)> log;  ///< optional progress lines
};

struct WorkerReport {
    std::size_t cells_computed = 0;  ///< simulated fresh this run
    std::size_t cells_reused = 0;    ///< found in the local journal
    std::size_t leases_held = 0;     ///< LEASE grants processed
    std::size_t heartbeats_sent = 0;
    std::size_t link_sends = 0;      ///< every send() issued on the link
    std::size_t resends = 0;         ///< CELL frames sent beyond the first try
    std::size_t drops_absorbed = 0;  ///< sends swallowed by the faulty link
    std::size_t acked = 0;           ///< ACK frames heard (dedup by index)
    std::size_t buffered = 0;        ///< cells in the local journal left unacked
    std::uint64_t buffered_bytes = 0;  ///< wire bytes of those unacked records
    int reconnects = 0;
    bool coordinator_reached = false;  ///< handshake completed at least once
    bool done_received = false;        ///< coordinator declared the campaign resolved
    bool degraded = false;  ///< finished with unacked cells and no DONE
};

/// Run one worker: handshake over `link`, stream every unacked cell of the
/// local journal at `journal_path` — opened with the *full-campaign* key, so
/// the file is a valid resume point for a local run too — then pull leases,
/// simulating granted cells into that journal and streaming them, until the
/// coordinator sends DONE.  A null `link` means the coordinator is
/// unreachable: nothing is simulated and the journal's unacked cells are
/// reported as buffered.  Throws core::InvalidArgument unless spec.of == 0,
/// core::StaleJournal if the coordinator rejects the handshake, and lets
/// core::SimulatedCrash propagate (the torture harness's kill switch).
[[nodiscard]] WorkerReport run_worker(const CensusPlan& plan, const ShardSpec& spec,
                                      const std::filesystem::path& journal_path,
                                      std::unique_ptr<core::Transport> link,
                                      const WorkerOptions& opts = {});

/// Deterministic kill schedule for the coordinator, by global frame number.
struct CoordinatorCrashPlan {
    static constexpr std::size_t kNever = static_cast<std::size_t>(-1);
    /// Crash while handling the Nth frame received (0-based, counted across
    /// all links in arrival order).
    std::size_t crash_at_frame = kNever;
    /// Where in the handling of that frame to die:
    enum class Phase {
        kOnFrame,      ///< frame decoded, nothing durable yet
        kAfterRecord,  ///< journal/lease state updated, no reply sent
        kAfterReply,   ///< reply (ack/welcome/lease) already on the wire
    };
    Phase phase = Phase::kOnFrame;
};

struct CoordinatorOptions {
    bool resume = true;
    CoordinatorCrashPlan crash;
    /// Give up after this many consecutive idle polls — polls that accepted
    /// no link and handled no valid frame — while the journal is still
    /// unresolved.  0 = wait until request_stop().  Any valid frame resets
    /// the budget: a slow-simulating but heartbeating worker keeps the
    /// coordinator alive (corrupt frames do not).
    int idle_give_up_polls = 0;
    /// Cells per lease grant.
    std::size_t lease_chunk = 4;
    /// A lease holder silent for this many coordinator protocol ops (frames
    /// handled, across all links) is declared permanently dead and its lease
    /// reassigned.  Counted in ops, not wall time: a lone slow worker can
    /// never expire (nothing advances the clock), only a worker that stays
    /// silent while the rest of the campaign makes progress.
    std::uint64_t lease_deadline_ops = 1024;
    core::FileSystem* fs = nullptr;
    std::function<void(const std::string&)> log;
};

struct CoordinatorReport {
    std::size_t frames = 0;          ///< frames received (all types, all links)
    std::size_t cells_recorded = 0;  ///< fresh cells journaled
    std::size_t duplicates = 0;      ///< CELL frames deduped by index
    std::size_t acks_sent = 0;
    std::size_t leases_granted = 0;  ///< fresh LEASE grants (re-sends excluded)
    std::size_t leases_expired = 0;  ///< leases withdrawn (deadline or dead link)
    std::size_t heartbeats = 0;
    std::size_t progress_frames = 0;
    std::size_t rejected_hellos = 0;
    std::size_t corrupt_frames = 0;  ///< frames that failed decode (rejected)
    std::size_t links_accepted = 0;
    std::size_t links_dropped = 0;  ///< links that died mid-conversation
    std::size_t quarantined = 0;    ///< poison cells in the merged journal
    bool resolved = false;          ///< every cell recorded or quarantined
    bool completed = false;         ///< merged journal holds every cell
};

/// The campaign supervisor: accepts worker links from a Listener, grants
/// leases, journals streamed cells into the merged campaign journal, acks,
/// dedupes replays, reassigns the leases of dead workers and quarantines
/// poison cells.  Single-threaded: serve() multiplexes links by polling, and
/// returns when the campaign resolves, request_stop() is called, or the idle
/// budget runs out.  A CoordinatorCrashPlan kill throws
/// core::SimulatedCrash out of serve() with all links closed, so peers
/// observe a real process death.
class CoordinatorService {
public:
    CoordinatorService(CensusPlan plan, std::filesystem::path journal_path,
                       CoordinatorOptions opts = {});

    /// Blocks serving workers on `listener`.  Returns the report; throws
    /// core::SimulatedCrash on a planned kill.
    CoordinatorReport serve(core::Listener& listener);

    /// Thread-safe: ask a blocked serve() to wind down at its next poll.
    void request_stop();

    [[nodiscard]] const SweepJournalKey& key() const;
    [[nodiscard]] bool complete() const;
    [[nodiscard]] std::size_t merged() const;  ///< cells already in the journal
    [[nodiscard]] std::size_t quarantined() const;  ///< poison cells held

    /// The campaign result assembled from the merged journal.  Requires
    /// complete(): throws core::LeaseExpired when poison cells were
    /// quarantined (the table would have holes), core::Error when simply
    /// incomplete.
    [[nodiscard]] CensusResult result() const;

    ~CoordinatorService();
    CoordinatorService(const CoordinatorService&) = delete;
    CoordinatorService& operator=(const CoordinatorService&) = delete;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// In-process distributed campaign: one coordinator thread + `workers`
/// worker threads over loopback links, every link wrapped in a
/// FaultyTransport.  This is the harness run_distributed-based tests and the
/// torture campaign drive; the CLI wires the same pieces over unix sockets.
/// Workers simulate serially and every journal resumes, on the real
/// filesystem; leases keep the coordinator's default deadline.
struct DistributedOptions {
    std::size_t workers = 2;
    /// Per-worker link fault plans; missing entries get a clean plan.
    std::vector<core::TransportFaultPlan> worker_faults;
    CoordinatorCrashPlan coordinator_crash;
    monitoring::CollectorRetryPolicy retry{.max_attempts = 4};
    int ack_timeout_ms = 250;  ///< loopback acks are instant; keep kills fast
    std::size_t lease_chunk = 2;
    /// Restart a worker that died to a planned link crash, once, over a
    /// clean link — the torture harness's "operator reboots the node".
    /// Without it the survivors absorb the dead worker's lease and the
    /// campaign still completes (permanent-death torture).
    bool restart_crashed_workers = false;
};

struct DistributedOutcome {
    CoordinatorReport coordinator;
    std::vector<WorkerReport> workers;     ///< final report per worker
    std::vector<bool> worker_crashed;      ///< planned link kill fired
    std::size_t worker_restarts = 0;
    bool coordinator_crashed = false;
    CensusResult result;  ///< valid when coordinator.completed
};

/// Journal layout under a scratch directory.
[[nodiscard]] std::filesystem::path merged_journal_path(const std::filesystem::path& scratch);
[[nodiscard]] std::filesystem::path worker_journal_path(const std::filesystem::path& scratch,
                                                        std::size_t shard);

[[nodiscard]] DistributedOutcome run_distributed(const CensusPlan& plan,
                                                 const std::filesystem::path& scratch,
                                                 const DistributedOptions& opts = {});

/// Cross-process crash torture: enumerate every worker send point and every
/// coordinator frame from a clean counting run, then kill each process at
/// each point.  Three matrices plus a poison scenario:
///   * transient worker kills — the operator reboots the node
///     (restart_crashed_workers) and the campaign converges;
///   * permanent worker kills — no reboot; the survivor must absorb the
///     dead worker's lease (the campaign runs two workers, so one always
///     survives);
///   * coordinator kills at every frame, all three phases, resumed by a
///     second clean run;
///   * a poison cell every worker crashes on — quarantine must engage and
///     the campaign must resolve with exactly that cell poisoned.
/// Every completed campaign is byte-compared (merged journal + rendered
/// census table) against an uninterrupted local reference.  Lease schedules
/// vary with thread interleaving, so a planned kill op that a given run
/// never reaches is checked as a clean campaign instead of counted as a
/// failure (`unfired_kills` reports how many).
struct DistributedTortureReport {
    std::size_t worker_send_points = 0;  ///< send ops enumerated across workers
    std::size_t coordinator_frames = 0;
    std::size_t crash_points = 0;      ///< kills scheduled (fired or not)
    std::size_t permanent_kills = 0;   ///< permanent-death schedules exercised
    std::size_t unfired_kills = 0;     ///< schedules the run never reached
    std::size_t quarantine_checks = 0; ///< poison scenarios that engaged quarantine
    std::size_t resumes = 0;
    std::size_t mismatches = 0;
    [[nodiscard]] bool passed() const {
        return mismatches == 0 && crash_points > 0 && quarantine_checks > 0;
    }
};

[[nodiscard]] DistributedTortureReport distributed_torture(const CensusPlan& plan,
                                                           const std::filesystem::path& scratch,
                                                           std::ostream& log);

}  // namespace zerodeg::experiment
