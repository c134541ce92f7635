// The worker/coordinator wire protocol of distributed sweeps ("zdsp1").
//
// Frames are text, checksummed exactly like v2 journal records: the payload
// followed by a fnv1a hex16 word, so damage anywhere (a bit flip, a torn
// buffer, a hostile edit) fails loudly as CorruptData before any field is
// trusted.  The transport layer underneath (core/transport.hpp) adds length
// prefixes; this layer adds meaning and integrity.
//
//   HELLO    worker -> coordinator   "I am worker <label> of the campaign
//                                    (base_seed, config_hash, cells)."
//   WELCOME  coordinator -> worker   "Same campaign; I already hold
//                                    <completed> cells — stream yours."
//   REJECT   coordinator -> worker   "Different campaign (or damaged
//                                    frame); go away: <reason>."
//   CELL     worker -> coordinator   One finished cell, embedding the
//                                    journal's own checksummed record line
//                                    verbatim — the coordinator persists
//                                    bit-for-bit what a local run would.
//   ACK      coordinator -> worker   "Cell <index> is durably journaled."
//   LEASE    coordinator -> worker   "You hold lease <id> over these cells;
//                                    report in within <deadline_ops> protocol
//                                    ops or I reassign them."
//   HEARTBEAT worker -> coordinator  "Still alive (on lease <id>)"; with
//                                    lease_id == kNoLease it doubles as the
//                                    pull request for the next lease.
//   PROGRESS worker -> coordinator   "Lease <id>: simulated <done>/<of>
//                                    cells" — liveness plus the feed for the
//                                    coordinator's progress/ETA line.
//   DONE     coordinator -> worker   "Campaign resolved (<completed> cells,
//                                    <quarantined> quarantined); hang up."
//
// Delivery contract: at-least-once with idempotent replay.  A worker resends
// any unacked CELL (after drops, reconnects or its own death — its local
// journal has every payload); the coordinator dedupes by cell index, so
// duplicates are harmless and the merged journal converges on the same bytes
// as an uninterrupted local campaign.  Lease grants self-heal the same way:
// a lost LEASE is re-sent when the holder's next HEARTBEAT shows it is still
// pulling, and a worker ignores a LEASE re-announcing the id it already
// holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/sweep_journal.hpp"

namespace zerodeg::experiment {

enum class FrameType {
    kHello,
    kWelcome,
    kReject,
    kCell,
    kAck,
    kLease,
    kHeartbeat,
    kProgress,
    kDone,
};
[[nodiscard]] const char* to_string(FrameType type);

/// The lease_id a HEARTBEAT carries when the worker holds no lease — the
/// "give me work" pull request.
inline constexpr std::uint64_t kNoLease = std::numeric_limits<std::uint64_t>::max();

/// The HELLO handshake: which campaign the worker journals for.
struct ShardHello {
    SweepJournalKey key;
    std::size_t shard = 0;  ///< self-chosen worker label, for diagnostics
};

/// A coordinator-granted work lease: compute these cells, check in (any
/// frame) at least every `deadline_ops` coordinator protocol ops.
struct Lease {
    std::uint64_t id = 0;
    std::uint64_t deadline_ops = 0;
    std::vector<std::size_t> cells;  ///< strictly ascending cell indices
};

/// One decoded frame; `type` selects which fields are meaningful.
struct Frame {
    FrameType type = FrameType::kAck;
    ShardHello hello;            ///< kHello
    std::size_t completed = 0;   ///< kWelcome / kDone: cells the coordinator holds
    std::string reason;          ///< kReject
    CellRecord cell;             ///< kCell
    std::size_t ack_index = 0;   ///< kAck
    Lease lease;                 ///< kLease
    std::uint64_t lease_id = kNoLease;  ///< kHeartbeat / kProgress
    std::size_t progress_done = 0;      ///< kProgress: cells simulated so far
    std::size_t progress_of = 0;        ///< kProgress: cells in the lease
    std::size_t quarantined = 0;        ///< kDone: poisoned cells at resolve
};

[[nodiscard]] std::string encode_hello(const ShardHello& hello);
[[nodiscard]] std::string encode_welcome(std::size_t completed);
[[nodiscard]] std::string encode_reject(std::string_view reason);
/// Embeds encode_cell_record(index, census) verbatim.
[[nodiscard]] std::string encode_cell(std::size_t index, const FaultCensus& census);
[[nodiscard]] std::string encode_ack(std::size_t index);
[[nodiscard]] std::string encode_lease(const Lease& lease);
[[nodiscard]] std::string encode_heartbeat(std::uint64_t lease_id);
[[nodiscard]] std::string encode_progress(std::uint64_t lease_id, std::size_t done,
                                          std::size_t of);
[[nodiscard]] std::string encode_done(std::size_t completed, std::size_t quarantined);

/// Verify the frame checksum, then parse.  Throws core::CorruptData on any
/// damage (checksum, magic, grammar, a bad embedded cell record).
[[nodiscard]] Frame decode_frame(std::string_view bytes);

}  // namespace zerodeg::experiment
