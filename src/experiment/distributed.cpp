#include "experiment/distributed.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "core/error.hpp"
#include "core/io.hpp"
#include "experiment/shard_protocol.hpp"
#include "experiment/sweep_journal.hpp"
#include "experiment/torture.hpp"

namespace zerodeg::experiment {

namespace fs = std::filesystem;

ExperimentConfig cell_config(const CensusPlan& plan, std::size_t index) {
    // Mirrors ParallelCensus::build_configs for a single cell: same seed
    // derivation, same per-cell validation context.  Keeping these in step is
    // what lets a worker's journal carry the full-campaign key.
    const std::uint64_t seed = plan.base_seed + index;
    ExperimentConfig cfg;
    if (plan.make_config) {
        cfg = plan.make_config(index, seed);
    } else {
        cfg.master_seed = seed;
    }
    core::with_context("census cell " + std::to_string(index), [&] { validate(cfg); });
    return cfg;
}

FaultCensus run_cell(const CensusPlan& plan, const ExperimentConfig& config) {
    return plan.run_cell ? plan.run_cell(config) : run_season_census(config);
}

namespace {

/// Per-frame resend budget from the retry policy (>= 1 try always).
int frame_attempts(const monitoring::CollectorRetryPolicy& retry) {
    return retry.max_attempts < 1 ? 1 : retry.max_attempts;
}

}  // namespace

WorkerReport run_worker(const CensusPlan& plan, const ShardSpec& spec,
                        const fs::path& journal_path, std::unique_ptr<core::Transport> link,
                        const WorkerOptions& opts) {
    if (spec.of != 0) {
        throw core::InvalidArgument("worker " + std::to_string(spec.shard) + " names a shard of " +
                                    std::to_string(spec.of) + "; workers only pull leases");
    }
    WorkerReport report;

    const auto say = [&](const std::string& line) {
        if (opts.log) opts.log("worker " + std::to_string(spec.shard) + ": " + line);
    };

    // The local journal carries the *full campaign* key: it is a valid (if
    // partial) resume point for a plain local run of the whole sweep, and the
    // coordinator can validate the HELLO against the identical key.
    const SweepJournalKey key = ParallelCensus(plan, 1).journal_key();
    SweepJournal journal(journal_path, key, /*resume=*/true, opts.fs);

    const SweepRunner runner(opts.jobs);
    std::set<std::size_t> touched;  ///< distinct cells this run handled
    std::set<std::size_t> acked;
    std::optional<Lease> granted;  ///< latest lease off the wire, unprocessed
    bool done = false;             ///< coordinator sent DONE
    bool welcomed = false;         ///< WELCOME seen on the *current* link

    const auto counted_send = [&](const std::string& frame) {
        ++report.link_sends;
        link->send(frame);
    };

    // Best-effort send: a frame the faulty link swallows (TransientError) is
    // charged, not retried here — leases re-grant and cells resend anyway.
    const auto soft_send = [&](const std::string& frame) -> bool {
        try {
            counted_send(frame);
            return true;
        } catch (const core::TransientError&) {
            ++report.drops_absorbed;
            return false;
        }
    };

    const auto send_heartbeat = [&](std::uint64_t lease_id) {
        ++report.heartbeats_sent;
        (void)soft_send(encode_heartbeat(lease_id));
    };

    const auto on_frame = [&](const Frame& frame) {
        switch (frame.type) {
            case FrameType::kAck:
                if (acked.insert(frame.ack_index).second) ++report.acked;
                break;
            case FrameType::kWelcome:
                welcomed = true;
                report.coordinator_reached = true;
                break;
            case FrameType::kLease:
                granted = frame.lease;
                break;
            case FrameType::kDone:
                done = true;
                report.done_received = true;
                say("coordinator done: " + std::to_string(frame.completed) + " cells, " +
                    std::to_string(frame.quarantined) + " quarantined");
                break;
            case FrameType::kReject:
                throw core::StaleJournal("coordinator rejected worker " +
                                         std::to_string(spec.shard) + ": " + frame.reason);
            default:
                break;  // worker-to-coordinator frames echoed back; ignore
        }
    };

    // Drain replies until `until()` holds or a wait times out.  Throws
    // TransportClosed when the link dies and StaleJournal on a REJECT.
    const auto pump = [&](int timeout_ms, const std::function<bool()>& until) -> bool {
        std::string bytes;
        while (!until() && link->recv_wait(bytes, timeout_ms)) {
            Frame frame;
            try {
                frame = decode_frame(bytes);
            } catch (const core::CorruptData&) {
                continue;  // damaged reply; resend/re-pull covers it
            }
            // Outside the decode guard: a REJECT must surface as StaleJournal
            // (which *derives* from CorruptData) instead of being swallowed.
            on_frame(frame);
        }
        return until();
    };

    // Simulate the missing cells of `cells` into the local journal, each
    // durable before it is ever streamed.  The worker checks in around the
    // work: serial simulation heartbeats before and reports progress after
    // every cell; a jobs>1 fan-out brackets the whole batch instead.
    const auto simulate_cells = [&](const std::vector<std::size_t>& cells,
                                    std::uint64_t lease_id) {
        std::vector<std::size_t> missing;
        for (const std::size_t idx : cells) {
            const bool first = touched.insert(idx).second;
            if (journal.find(idx)) {
                if (first) ++report.cells_reused;
            } else {
                missing.push_back(idx);
            }
        }
        if (missing.empty()) return;
        report.cells_computed += missing.size();
        if (opts.jobs > 1 && missing.size() > 1) {
            send_heartbeat(lease_id);
            (void)runner.map(
                missing.size(),
                [&](std::size_t k) {
                    const std::size_t idx = missing[k];
                    const FaultCensus census = run_cell(plan, cell_config(plan, idx));
                    journal.record(idx, census);
                    return census;
                },
                core::CellRetry{plan.cell_attempts});
            (void)soft_send(encode_progress(lease_id, missing.size(), missing.size()));
        } else {
            std::size_t finished = 0;
            for (const std::size_t idx : missing) {
                send_heartbeat(lease_id);
                const FaultCensus census = run_cell(plan, cell_config(plan, idx));
                journal.record(idx, census);
                ++finished;
                (void)soft_send(encode_progress(lease_id, finished, missing.size()));
            }
        }
    };

    // Stream one journaled cell until acked (bounded resends).  A cell left
    // unacked on an alive link is not lost: the coordinator re-grants it.
    const auto stream_cell = [&](std::size_t idx) {
        if (done || acked.count(idx) != 0) return;
        const FaultCensus* census = journal.find(idx);
        if (census == nullptr) return;
        const std::string frame = encode_cell(idx, *census);
        for (int attempt = 1; attempt <= frame_attempts(opts.retry); ++attempt) {
            if (done || acked.count(idx) != 0) return;
            bool sent = true;
            try {
                counted_send(frame);
                if (attempt > 1) ++report.resends;
            } catch (const core::TransientError&) {
                ++report.drops_absorbed;  // link ate it; charge the attempt
                sent = false;
            }
            if (sent && pump(opts.ack_timeout_ms,
                             [&] { return done || acked.count(idx) != 0; })) {
                return;
            }
        }
    };

    // Everything the local journal holds unacked — resumed cells, a zombie's
    // stale cells, a crashed lease — streams first; dedupe absorbs replays.
    const auto stream_backlog = [&] {
        for (std::size_t i = 0; i < key.cells && !done; ++i) {
            if (acked.count(i) != 0 || journal.find(i) == nullptr) continue;
            if (touched.insert(i).second) ++report.cells_reused;
            stream_cell(i);
        }
    };

    // HELLO until WELCOME (bounded).  Throws TransportClosed / StaleJournal.
    // The handshake is supervisor machinery, not cell delivery: even a
    // zero-retry cell policy re-hellos, else one swallowed frame strands a
    // healthy worker offline for the whole campaign.
    const std::string hello = encode_hello(ShardHello{key, spec.shard});
    const auto handshake = [&]() -> bool {
        welcomed = false;
        const int attempts = std::max(frame_attempts(opts.retry), 4);
        for (int attempt = 0; attempt < attempts; ++attempt) {
            if (!soft_send(hello)) continue;
            if (pump(opts.ack_timeout_ms, [&] { return welcomed || done; })) {
                say("welcomed by the coordinator");
                return true;
            }
        }
        return false;
    };

    // (Re)connect and re-handshake.  Returns false once the budget or the
    // factory gives out — the caller degrades to local-journal-only mode.
    const auto reconnect = [&]() -> bool {
        while (report.reconnects < opts.max_reconnects) {
            ++report.reconnects;
            std::unique_ptr<core::Transport> fresh = opts.reconnect ? opts.reconnect() : nullptr;
            if (!fresh) return false;
            link = std::move(fresh);
            try {
                if (handshake()) return true;
            } catch (const core::TransportClosed&) {
                // dead again; spend another reconnect
            }
        }
        return false;
    };

    const auto process_lease = [&](const Lease& lease) {
        ++report.leases_held;
        say("lease " + std::to_string(lease.id) + ": " + std::to_string(lease.cells.size()) +
            " cells");
        simulate_cells(lease.cells, lease.id);
        for (const std::size_t idx : lease.cells) stream_cell(idx);
    };

    // The pull loop: backlog first, then lease after lease until DONE.
    // Returns false when the link is lost for good (degrade).
    const auto serve_leases = [&]() -> bool {
        bool backlog_pending = true;
        while (!done) {
            try {
                if (backlog_pending) {
                    stream_backlog();
                    backlog_pending = false;
                }
                if (granted) {
                    const Lease lease = *granted;
                    granted.reset();
                    process_lease(lease);
                    continue;
                }
                send_heartbeat(kNoLease);  // the pull request
                (void)pump(opts.ack_timeout_ms, [&] { return done || granted.has_value(); });
                // On timeout the loop simply pulls again.
            } catch (const core::TransportClosed&) {
                // Delivered frames drain before the link reports closed — a
                // DONE may be waiting even though our last send bounced.
                try {
                    std::string bytes;
                    while (link->try_recv(bytes)) {
                        Frame frame;
                        try {
                            frame = decode_frame(bytes);
                        } catch (const core::CorruptData&) {
                            continue;
                        }
                        on_frame(frame);  // a drained REJECT still throws
                    }
                } catch (const core::TransportClosed&) {
                }
                if (done) break;
                granted.reset();  // our lease died with the link; let it re-grant
                if (!reconnect()) return false;
                backlog_pending = true;
            }
        }
        return true;
    };

    bool online = false;
    if (link) {
        try {
            online = handshake();
        } catch (const core::TransportClosed&) {
            online = reconnect();
        }
    }
    if (online) {
        if (!serve_leases()) {
            online = false;
            say("coordinator link lost; local journal keeps the finished cells");
        }
    }

    for (std::size_t idx = 0; idx < key.cells; ++idx) {
        if (acked.count(idx) != 0) continue;
        const FaultCensus* census = journal.find(idx);
        if (census == nullptr) continue;
        ++report.buffered;
        report.buffered_bytes += encode_cell(idx, *census).size();
    }
    report.degraded = report.buffered > 0 && !report.done_received;
    if (report.degraded) {
        say("degraded: " + std::to_string(report.buffered) +
            " cells buffered in the local journal");
    }
    if (link) link->close();
    return report;
}

// ---------------------------------------------------------------------------
// CoordinatorService

struct CoordinatorService::Impl {
    CensusPlan plan;
    CoordinatorOptions opts;
    SweepJournalKey campaign;
    SweepJournal journal;
    CoordinatorReport report;
    std::atomic<bool> stop{false};

    std::uint64_t next_lease_id = 1;
    std::set<std::size_t> leased;  ///< cells inside some live lease
    /// Distinct workers that lost a lease over each cell — the poison meter.
    std::map<std::size_t, std::set<std::string>> failed_holders;
    std::size_t scan_hint = 0;  ///< no free cell below this index

    Impl(CensusPlan plan_in, fs::path path, CoordinatorOptions opts_in)
        : plan(std::move(plan_in)),
          opts(std::move(opts_in)),
          campaign(ParallelCensus(plan, 1).journal_key()),
          journal(std::move(path), campaign, opts.resume, opts.fs) {}
};

CoordinatorService::CoordinatorService(CensusPlan plan, fs::path journal_path,
                                       CoordinatorOptions opts)
    : impl_(std::make_unique<Impl>(std::move(plan), std::move(journal_path), std::move(opts))) {}

CoordinatorService::~CoordinatorService() = default;

void CoordinatorService::request_stop() { impl_->stop.store(true); }

const SweepJournalKey& CoordinatorService::key() const { return impl_->campaign; }

bool CoordinatorService::complete() const { return impl_->journal.complete(); }

std::size_t CoordinatorService::merged() const { return impl_->journal.completed(); }

std::size_t CoordinatorService::quarantined() const {
    return impl_->journal.quarantined().size();
}

CensusResult CoordinatorService::result() const {
    if (!impl_->journal.complete()) {
        if (impl_->journal.resolved()) {
            std::ostringstream why;
            why << "campaign resolved with " << impl_->journal.quarantined().size()
                << " quarantined poison cell(s):";
            for (const auto& [index, q] : impl_->journal.quarantined()) {
                why << " cell " << index << " (" << q.reason << ")";
            }
            throw core::LeaseExpired(why.str());
        }
        throw core::Error("coordinator journal '" + impl_->journal.path().string() + "' holds " +
                          std::to_string(impl_->journal.completed()) + "/" +
                          std::to_string(impl_->campaign.cells) + " cells; campaign incomplete");
    }
    CensusResult result;
    result.censuses.reserve(impl_->campaign.cells);
    for (std::size_t i = 0; i < impl_->campaign.cells; ++i) {
        result.censuses.push_back(*impl_->journal.find(i));
    }
    result.summary = summarize(result.censuses);
    return result;
}

namespace {

/// Tries for each reply frame a faulty link swallows as TransientError.
constexpr int kReplyAttempts = 4;

/// Coordinator-side view of one worker link.
struct LinkState {
    std::unique_ptr<core::Transport> link;
    bool welcomed = false;
    std::string holder;  ///< identity for the poison meter
    bool has_lease = false;
    Lease lease;
    std::uint64_t last_heard_op = 0;  ///< frames counter at its last valid frame
};

}  // namespace

CoordinatorReport CoordinatorService::serve(core::Listener& listener) {
    using Phase = CoordinatorCrashPlan::Phase;
    Impl& im = *impl_;
    std::vector<LinkState> links;
    std::size_t next_serial = 0;

    const auto say = [&](const std::string& line) {
        if (im.opts.log) im.opts.log("coordinator: " + line);
    };

    const auto settled = [&](std::size_t cell) {
        return im.journal.find(cell) != nullptr || im.journal.quarantined().count(cell) != 0;
    };

    // Planned process death: close everything a real kill would take down
    // (peers must observe the loss), then unwind as SimulatedCrash.
    const auto crash_check = [&](Phase phase, std::size_t frame_index) {
        if (frame_index != im.opts.crash.crash_at_frame || phase != im.opts.crash.phase) return;
        for (LinkState& ls : links) ls.link->close();
        links.clear();
        listener.close();
        throw core::SimulatedCrash("coordinator killed handling frame " +
                                   std::to_string(frame_index) + " (phase " +
                                   std::to_string(static_cast<int>(phase)) + ")");
    };

    // Bounded reply: a faulty link may swallow sends as TransientError — the
    // worker's resend / re-pull covers a reply abandoned after kReplyAttempts
    // tries.  TransportClosed propagates.
    const auto reply = [&](core::Transport& link, const std::string& frame) -> bool {
        for (int attempt = 0; attempt < kReplyAttempts; ++attempt) {
            try {
                link.send(frame);
                return true;
            } catch (const core::TransientError&) {
                // swallowed; retry
            }
        }
        return false;
    };

    // Withdraw a lease: unfinished cells return to the pool, the holder is
    // charged on each cell's poison meter, and a cell that has now failed
    // under kMaxLeaseAttempts distinct workers is quarantined.
    const auto fail_lease = [&](LinkState& ls, const std::string& why) {
        if (!ls.has_lease) return;
        ++im.report.leases_expired;
        std::size_t returned = 0;
        for (const std::size_t cell : ls.lease.cells) {
            im.leased.erase(cell);
            if (settled(cell)) continue;
            ++returned;
            im.scan_hint = std::min(im.scan_hint, cell);
            std::set<std::string>& holders = im.failed_holders[cell];
            holders.insert(ls.holder);
            if (holders.size() >= kMaxLeaseAttempts) {
                im.journal.quarantine(cell, holders.size(),
                                      std::string(core::to_string(core::ErrorCode::kLeaseExpired)) +
                                          " under " + std::to_string(holders.size()) +
                                          " distinct workers");
                say("QUARANTINE cell " + std::to_string(cell) + ": poisoned after " +
                    std::to_string(holders.size()) + " workers lost its lease");
            }
        }
        say("lease " + std::to_string(ls.lease.id) + " of " + ls.holder + " withdrawn (" + why +
            "); " + std::to_string(returned) + " cells back in the pool");
        ls.has_lease = false;
    };

    // Release a lease whose every cell has settled (journaled/quarantined).
    const auto settle = [&](LinkState& ls) {
        if (!ls.has_lease) return;
        for (const std::size_t cell : ls.lease.cells) {
            if (!settled(cell)) return;
        }
        for (const std::size_t cell : ls.lease.cells) im.leased.erase(cell);
        ls.has_lease = false;
    };

    // Grant the lowest free cells to a pulling worker.  Returns the encoded
    // LEASE frame, or empty when nothing is grantable right now.
    const auto grant = [&](LinkState& ls) -> std::string {
        while (im.scan_hint < im.campaign.cells &&
               (settled(im.scan_hint) || im.leased.count(im.scan_hint) != 0)) {
            ++im.scan_hint;
        }
        const std::size_t chunk = im.opts.lease_chunk < 1 ? 1 : im.opts.lease_chunk;
        Lease lease;
        lease.deadline_ops = im.opts.lease_deadline_ops;
        for (std::size_t i = im.scan_hint;
             i < im.campaign.cells && lease.cells.size() < chunk; ++i) {
            if (settled(i) || im.leased.count(i) != 0) continue;
            lease.cells.push_back(i);
        }
        if (lease.cells.empty()) return {};
        lease.id = im.next_lease_id++;
        for (const std::size_t cell : lease.cells) im.leased.insert(cell);
        ls.has_lease = true;
        ls.lease = lease;
        ++im.report.leases_granted;
        say("lease " + std::to_string(lease.id) + " -> " + ls.holder + ": " +
            std::to_string(lease.cells.size()) + " cells from " +
            std::to_string(lease.cells.front()));
        return encode_lease(lease);
    };

    // The progress/ETA line, clock-free: rate is cells per 1000 protocol ops.
    const auto progress_line = [&] {
        const std::size_t total = im.campaign.cells;
        const std::size_t settled_cells =
            im.journal.completed() + im.journal.quarantined().size();
        const std::size_t ops = im.report.frames < 1 ? 1 : im.report.frames;
        const std::size_t rate_per_kop = settled_cells * 1000 / ops;
        const std::size_t eta_ops =
            settled_cells == 0 ? 0 : (total - settled_cells) * ops / settled_cells;
        std::ostringstream out;
        out << "progress: " << settled_cells << "/" << total << " cells ("
            << (total == 0 ? 100 : settled_cells * 100 / total) << "%), " << rate_per_kop
            << " cells/kop";
        if (settled_cells > 0 && settled_cells < total) out << ", ~" << eta_ops << " ops left";
        say(out.str());
    };

    // Returns true when the frame was valid (resets the idle budget).
    const auto handle_frame = [&](LinkState& ls, const std::string& bytes) -> bool {
        const std::size_t frame_index = im.report.frames++;
        crash_check(Phase::kOnFrame, frame_index);
        Frame frame;
        try {
            frame = decode_frame(bytes);
            if (frame.type == FrameType::kCell && frame.cell.index >= im.campaign.cells) {
                throw core::CorruptData("cell index " + std::to_string(frame.cell.index) +
                                        " outside campaign of " +
                                        std::to_string(im.campaign.cells));
            }
        } catch (const core::CorruptData& err) {
            ++im.report.corrupt_frames;
            say(std::string("rejecting corrupt frame: ") + err.what());
            (void)reply(*ls.link, encode_reject(err.what()));
            return false;
        }
        ls.last_heard_op = im.report.frames;
        switch (frame.type) {
            case FrameType::kHello: {
                const bool match = frame.hello.key == im.campaign;
                if (!match) ++im.report.rejected_hellos;
                crash_check(Phase::kAfterRecord, frame_index);
                if (match) {
                    ls.welcomed = true;
                    say(ls.holder + " joined");
                    (void)reply(*ls.link, encode_welcome(im.journal.completed()));
                } else {
                    (void)reply(*ls.link,
                                encode_reject("campaign mismatch: coordinator serves the " +
                                              std::to_string(im.campaign.cells) +
                                              "-cell campaign at base_seed " +
                                              std::to_string(im.campaign.base_seed)));
                }
                crash_check(Phase::kAfterReply, frame_index);
                break;
            }
            case FrameType::kCell: {
                if (im.journal.find(frame.cell.index) != nullptr) {
                    ++im.report.duplicates;  // replay after a loss: dedupe, re-ack
                } else {
                    // record() also heals a quarantined slot: a zombie's late
                    // cell replaces the poison record with real data.
                    im.journal.record(frame.cell.index, frame.cell.census);
                    ++im.report.cells_recorded;
                }
                settle(ls);  // a finished lease frees its cells for granting
                crash_check(Phase::kAfterRecord, frame_index);
                if (reply(*ls.link, encode_ack(frame.cell.index))) ++im.report.acks_sent;
                crash_check(Phase::kAfterReply, frame_index);
                break;
            }
            case FrameType::kHeartbeat: {
                ++im.report.heartbeats;
                settle(ls);
                crash_check(Phase::kAfterRecord, frame_index);
                if (im.journal.resolved()) {
                    (void)reply(*ls.link, encode_done(im.journal.completed(),
                                                      im.journal.quarantined().size()));
                } else if (ls.welcomed && frame.lease_id == kNoLease) {
                    if (ls.has_lease) {
                        // The holder is pulling: its LEASE frame was lost, or
                        // it gave up on undelivered cells — re-announce.
                        (void)reply(*ls.link, encode_lease(ls.lease));
                    } else {
                        const std::string lease_frame = grant(ls);
                        if (!lease_frame.empty()) (void)reply(*ls.link, lease_frame);
                    }
                }
                crash_check(Phase::kAfterReply, frame_index);
                break;
            }
            case FrameType::kProgress: {
                ++im.report.progress_frames;
                crash_check(Phase::kAfterRecord, frame_index);
                progress_line();
                crash_check(Phase::kAfterReply, frame_index);
                break;
            }
            default:
                break;  // coordinator-to-worker frames echoed back; ignore
        }
        return true;
    };

    int idle_polls = 0;
    for (;;) {
        const bool stopping = im.stop.load();
        if (im.journal.resolved()) break;

        bool progress = false;
        while (std::unique_ptr<core::Transport> fresh = listener.accept(0)) {
            LinkState ls;
            ls.link = std::move(fresh);
            ls.holder = "worker#" + std::to_string(next_serial++);
            links.push_back(std::move(ls));
            ++im.report.links_accepted;
            progress = true;
        }

        for (auto it = links.begin(); it != links.end();) {
            bool dead = false;
            try {
                std::string bytes;
                while (it->link->try_recv(bytes)) {
                    if (handle_frame(*it, bytes)) progress = true;
                }
            } catch (const core::TransportClosed&) {
                dead = true;
            }
            if (dead) {
                // A dead link is a dead worker: its lease fails on the spot
                // and the cells go back to the pool for the survivors.
                fail_lease(*it, "link closed");
                ++im.report.links_dropped;
                it = links.erase(it);
            } else {
                ++it;
            }
        }

        // Deadline sweep: a lease holder silent past its op budget — while
        // other workers' chatter advanced the clock — is permanently dead.
        for (auto it = links.begin(); it != links.end();) {
            const std::uint64_t now = im.report.frames;
            if (it->has_lease && now > it->last_heard_op &&
                now - it->last_heard_op > it->lease.deadline_ops) {
                say(it->holder + " silent for " + std::to_string(now - it->last_heard_op) +
                    " ops; declaring it dead");
                fail_lease(*it, "deadline missed");
                it->link->close();
                ++im.report.links_dropped;
                it = links.erase(it);
            } else {
                ++it;
            }
        }

        if (progress) {
            idle_polls = 0;
        } else {
            if (stopping) break;
            if (im.opts.idle_give_up_polls > 0 && ++idle_polls >= im.opts.idle_give_up_polls) {
                say("idle timeout: giving up at " + std::to_string(im.journal.completed()) +
                    "/" + std::to_string(im.campaign.cells) + " cells (" +
                    std::to_string(links.size()) + " silent links)");
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    if (im.journal.resolved()) {
        // Hang-up broadcast: every connected worker learns the campaign is
        // over instead of discovering a dead socket.
        const std::string done_frame =
            encode_done(im.journal.completed(), im.journal.quarantined().size());
        for (LinkState& ls : links) {
            try {
                (void)reply(*ls.link, done_frame);
            } catch (const core::TransportClosed&) {
            }
        }
        progress_line();
    }
    for (const auto& [cell, q] : im.journal.quarantined()) {
        say("POISON cell " + std::to_string(cell) + ": " + q.reason + " — no data recorded; " +
            "the rendered table would have a hole");
    }
    im.report.quarantined = im.journal.quarantined().size();
    im.report.resolved = im.journal.resolved();
    im.report.completed = im.journal.complete();
    for (LinkState& ls : links) ls.link->close();
    return im.report;
}

// ---------------------------------------------------------------------------
// In-process distributed harness

fs::path merged_journal_path(const fs::path& scratch) { return scratch / "merged.journal"; }

fs::path worker_journal_path(const fs::path& scratch, std::size_t shard) {
    return scratch / ("worker-" + std::to_string(shard) + ".journal");
}

DistributedOutcome run_distributed(const CensusPlan& plan, const fs::path& scratch,
                                   const DistributedOptions& opts) {
    if (opts.workers == 0) throw core::InvalidArgument("a distributed run needs >= 1 worker");
    fs::create_directories(scratch);

    DistributedOutcome out;
    out.workers.resize(opts.workers);
    out.worker_crashed.assign(opts.workers, false);

    CoordinatorOptions copts;
    copts.crash = opts.coordinator_crash;
    copts.lease_chunk = opts.lease_chunk;
    CoordinatorService service(plan, merged_journal_path(scratch), copts);

    core::LoopbackListener listener;
    std::exception_ptr coordinator_error;
    std::thread coordinator([&] {
        try {
            out.coordinator = service.serve(listener);
        } catch (const core::SimulatedCrash&) {
            out.coordinator_crashed = true;
        } catch (...) {
            coordinator_error = std::current_exception();
        }
        // A finished (or dead) coordinator takes its socket down with it:
        // blocked and future connects observe TransportClosed, not a hang.
        listener.close();
    });

    // One worker pass over a possibly-faulty link.  Returns true if the
    // planned link kill fired (SimulatedCrash); other failures propagate.
    const auto run_one = [&](std::size_t shard, const core::TransportFaultPlan& faults,
                             const std::string& channel) -> bool {
        WorkerOptions wopts;
        wopts.retry = opts.retry;
        wopts.ack_timeout_ms = opts.ack_timeout_ms;
        wopts.reconnect = [&listener]() -> std::unique_ptr<core::Transport> {
            // Reconnects are clean links: the fault plan modelled the first
            // connection's network; a re-dial is the operator's fresh cable.
            try {
                return listener.connect();
            } catch (const core::TransportClosed&) {
                return nullptr;
            }
        };
        std::unique_ptr<core::Transport> link;
        try {
            link = std::make_unique<core::FaultyTransport>(faults, channel, listener.connect());
        } catch (const core::TransportClosed&) {
            link = nullptr;  // coordinator already gone: offline mode
        }
        try {
            out.workers[shard] = run_worker(plan, ShardSpec{shard, 0},
                                            worker_journal_path(scratch, shard), std::move(link),
                                            wopts);
            return false;
        } catch (const core::SimulatedCrash&) {
            return true;
        }
    };

    std::vector<std::exception_ptr> worker_errors(opts.workers);
    {
        std::vector<std::thread> threads;
        threads.reserve(opts.workers);
        for (std::size_t w = 0; w < opts.workers; ++w) {
            threads.emplace_back([&, w] {
                try {
                    const core::TransportFaultPlan faults = w < opts.worker_faults.size()
                                                               ? opts.worker_faults[w]
                                                               : core::TransportFaultPlan{};
                    out.worker_crashed[w] =
                        run_one(w, faults, "worker." + std::to_string(w));
                } catch (...) {
                    worker_errors[w] = std::current_exception();
                }
            });
        }
        for (std::thread& t : threads) t.join();
    }

    // The operator walks to the tent and reboots dead nodes: each crashed
    // worker gets one clean-link rerun that resumes from its local journal.
    if (opts.restart_crashed_workers) {
        for (std::size_t w = 0; w < opts.workers; ++w) {
            if (!out.worker_crashed[w] || worker_errors[w]) continue;
            ++out.worker_restarts;
            try {
                (void)run_one(w, core::TransportFaultPlan{},
                              "worker." + std::to_string(w) + ".restart");
            } catch (...) {
                worker_errors[w] = std::current_exception();
            }
        }
    }

    service.request_stop();
    coordinator.join();
    if (coordinator_error) std::rethrow_exception(coordinator_error);
    for (const std::exception_ptr& err : worker_errors) {
        if (err) std::rethrow_exception(err);
    }
    if (out.coordinator.completed) out.result = service.result();
    return out;
}

// ---------------------------------------------------------------------------
// Cross-process crash torture

namespace {

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw core::IoError("cannot read '" + path.string() + "'");
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void scrub(const fs::path& dir) {
    fs::remove_all(dir);
    fs::create_directories(dir);
}

/// Two workers: the fewest for which a permanently dead one always leaves a
/// survivor to absorb its lease.
constexpr std::size_t kTortureWorkers = 2;

}  // namespace

DistributedTortureReport distributed_torture(const CensusPlan& plan, const fs::path& scratch,
                                             std::ostream& log) {
    using Phase = CoordinatorCrashPlan::Phase;
    DistributedTortureReport report;
    fs::create_directories(scratch);

    // The uninterrupted local reference: rendered table + journal bytes.
    const fs::path ref_dir = scratch / "reference";
    scrub(ref_dir);
    const ParallelCensus reference(plan, 1);
    std::string ref_render;
    std::string ref_journal_bytes;
    {
        SweepJournal journal(merged_journal_path(ref_dir), reference.journal_key(), false);
        ref_render = render_census_table(reference.run(journal), plan.base_seed);
        ref_journal_bytes = slurp(merged_journal_path(ref_dir));
    }

    DistributedOptions base;
    base.workers = kTortureWorkers;
    base.ack_timeout_ms = 2000;

    const auto check = [&](const std::string& what, const fs::path& dir,
                           const DistributedOutcome& outcome) {
        if (!outcome.coordinator.completed) {
            ++report.mismatches;
            log << "MISMATCH " << what << ": campaign incomplete ("
                << outcome.coordinator.cells_recorded << " cells recorded)\n";
            return;
        }
        const std::string render = render_census_table(outcome.result, plan.base_seed);
        const std::string journal_bytes = slurp(merged_journal_path(dir));
        if (render != ref_render) {
            ++report.mismatches;
            log << "MISMATCH " << what << ": rendered census differs from reference\n";
        }
        if (journal_bytes != ref_journal_bytes) {
            ++report.mismatches;
            log << "MISMATCH " << what << ": merged journal bytes differ from reference\n";
        }
    };

    // Counting run: a clean distributed campaign sizes the kill matrices —
    // every worker's send count and the coordinator's frame count.  Lease
    // scheduling makes the exact counts interleaving-dependent, so these are
    // upper bounds to enumerate: a kill op a later run never reaches simply
    // yields a clean campaign (counted in unfired_kills), which must still
    // be byte-identical.
    const fs::path clean_dir = scratch / "clean";
    scrub(clean_dir);
    const DistributedOutcome clean = run_distributed(plan, clean_dir, base);
    check("clean distributed run", clean_dir, clean);
    std::vector<std::size_t> send_points;
    for (const WorkerReport& worker : clean.workers) {
        send_points.push_back(worker.link_sends);
        report.worker_send_points += worker.link_sends;
    }
    report.coordinator_frames = clean.coordinator.frames;
    log << "distributed torture: " << kTortureWorkers << " workers, " << report.worker_send_points
        << " worker send points, " << report.coordinator_frames << " coordinator frames\n";

    // Matrices 1 and 2 — kill worker w at every send op (every lease
    // boundary and heartbeat slot is a send).  Transient kills: the operator
    // reboots the dead node (restart_crashed_workers) and the campaign
    // converges.  Permanent death: nobody reboots it; the survivor must
    // absorb its lease and the output must not move by a byte.
    const fs::path kill_dir = scratch / "kill";
    for (const bool permanent : {false, true}) {
        for (std::size_t w = 0; w < kTortureWorkers; ++w) {
            for (std::size_t op = 0; op < send_points[w]; ++op) {
                for (const core::NetCrashPhase phase :
                     {core::NetCrashPhase::kBeforeOp, core::NetCrashPhase::kAfterOp}) {
                    scrub(kill_dir);
                    DistributedOptions run = base;
                    run.restart_crashed_workers = !permanent;
                    run.worker_faults.assign(kTortureWorkers, core::TransportFaultPlan{});
                    run.worker_faults[w].crash_at_send = op;
                    run.worker_faults[w].crash_phase = phase;
                    const DistributedOutcome outcome = run_distributed(plan, kill_dir, run);
                    ++report.crash_points;
                    ++(permanent ? report.permanent_kills : report.resumes);
                    const std::string what =
                        "worker " + std::to_string(w) +
                        (permanent ? " dead forever at send " : " killed at send ") +
                        std::to_string(op) +
                        (phase == core::NetCrashPhase::kBeforeOp ? " (before)" : " (after)");
                    if (!outcome.worker_crashed[w]) ++report.unfired_kills;
                    check(what, kill_dir, outcome);
                }
            }
        }
    }

    // Matrix 3 — kill the coordinator at every frame, all three phases: die
    // before anything durable, after the journal/lease update but before the
    // reply, and after the reply.  A second, clean run resumes the merged
    // journal and the workers' local journals and must converge.
    for (std::size_t frame = 0; frame < report.coordinator_frames; ++frame) {
        for (const Phase phase : {Phase::kOnFrame, Phase::kAfterRecord, Phase::kAfterReply}) {
            scrub(kill_dir);
            DistributedOptions run = base;
            run.coordinator_crash.crash_at_frame = frame;
            run.coordinator_crash.phase = phase;
            const DistributedOutcome crashed = run_distributed(plan, kill_dir, run);
            ++report.crash_points;
            const std::string what = "coordinator killed at frame " + std::to_string(frame) +
                                     " phase " + std::to_string(static_cast<int>(phase));
            if (!crashed.coordinator_crashed) {
                // This run's lease chatter never reached the planned frame;
                // the campaign simply completed — verify and move on.
                ++report.unfired_kills;
                check(what + " (never fired)", kill_dir, crashed);
                continue;
            }
            const DistributedOutcome resumed = run_distributed(plan, kill_dir, base);
            ++report.resumes;
            check(what + " + resume", kill_dir, resumed);
        }
    }

    // Poison scenario: one cell kills every worker that touches it, reboots
    // included.  Quarantine must engage, the campaign must resolve with
    // exactly that cell poisoned, and every other cell must match the
    // reference's record bytes.
    {
        scrub(kill_dir);
        // Last cell, chunk 1: every innocent cell completes first and the
        // fatal lease never drags a healthy neighbour into quarantine.
        const std::size_t poison_index = plan.seeds - 1;
        CensusPlan poisoned = plan;
        const auto orig_cell = plan.run_cell;
        poisoned.run_cell = [orig_cell, poison_index, base_seed = plan.base_seed](
                                const ExperimentConfig& cfg) -> FaultCensus {
            if (cfg.master_seed == base_seed + poison_index) {
                throw core::SimulatedCrash("poison cell " + std::to_string(poison_index));
            }
            return orig_cell ? orig_cell(cfg) : run_season_census(cfg);
        };
        DistributedOptions run = base;
        run.lease_chunk = 1;
        run.restart_crashed_workers = true;
        const DistributedOutcome outcome = run_distributed(poisoned, kill_dir, run);
        const std::string what = "poison cell " + std::to_string(poison_index);
        if (outcome.coordinator.quarantined == 1 && outcome.coordinator.resolved &&
            !outcome.coordinator.completed) {
            ++report.quarantine_checks;
            log << "distributed torture: " << what << " quarantined after "
                << outcome.coordinator.leases_expired << " expired leases\n";
        } else {
            ++report.mismatches;
            log << "MISMATCH " << what << ": quarantine did not engage (quarantined="
                << outcome.coordinator.quarantined
                << " resolved=" << outcome.coordinator.resolved
                << " completed=" << outcome.coordinator.completed << ")\n";
        }
    }

    log << "distributed torture: " << report.crash_points << " kills ("
        << report.permanent_kills << " permanent, " << report.unfired_kills << " unfired), "
        << report.resumes << " resumes, " << report.quarantine_checks
        << " quarantine checks, " << report.mismatches << " mismatches\n";
    return report;
}

}  // namespace zerodeg::experiment
