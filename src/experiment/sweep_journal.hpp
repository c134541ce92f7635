// Crash-safe checkpointing for Monte-Carlo sweeps.
//
// A SweepJournal records each finished cell of a census campaign as it
// completes, so a killed sweep can resume without redoing the cells that
// already ran.  Because a FaultCensus is all integers and cells are keyed by
// seed index, a resumed campaign folds the exact same integers in the exact
// same order as an uninterrupted one — byte-identical output, the property
// tests/test_sweep_journal.cpp pins for --jobs in {1, 2, 8}.
//
// The journal binds itself to its campaign: the header records the base
// seed, a fingerprint of every cell's config (experiment::fingerprint), and
// the cell count.  Resuming against a journal whose identity differs throws
// core::StaleJournal — a checkpoint from a different campaign is rejected,
// never silently reused.  Each cell record also carries its own checksum, so
// torn or hand-edited files fail loudly as CorruptData.
//
// Durability model: the whole journal is rewritten to `<path>.tmp` and
// renamed over `<path>` on every record.  rename(2) is atomic on POSIX, so a
// crash at any instant leaves either the previous complete journal or the
// new complete journal on disk — never a half-written one.  Campaign cells
// run for minutes; a full rewrite of a few-KB text file per cell is noise.
//
// All disk access goes through the core::io FileSystem seam, so the torture
// harness (experiment/torture.hpp) can crash a campaign at every single write
// point and inject short writes / ENOSPC / failed renames; transient faults
// are absorbed by a bounded deterministic retry of the tmp+rename sequence.
// One corruption case is recoverable: a *torn tail record* (the checksum of
// the final record line fails, i.e. a crash tore the last append).  That
// record is skipped with a warning on stderr and truncated off the file —
// the cell is simply re-simulated — while damage anywhere else, and a
// header naming a different campaign (StaleJournal), still fail loudly.
//
// Besides `cell` records a journal may carry `poison` records: cells the
// distributed supervisor quarantined after their lease expired under too
// many distinct workers.  A poison record holds a slot (so the campaign can
// resolve without wedging) but never data; a real cell record arriving later
// (e.g. from a returning zombie worker) replaces the poison entry, keeping
// the file byte-identical to a healthy campaign's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>

#include "experiment/census.hpp"

namespace zerodeg::core {
class FileSystem;
}  // namespace zerodeg::core

namespace zerodeg::experiment {

/// The identity a journal must match to be resumed against a campaign.
struct SweepJournalKey {
    std::uint64_t base_seed = 0;
    std::uint64_t config_hash = 0;  ///< combined fingerprint of every cell's config
    std::size_t cells = 0;

    [[nodiscard]] bool operator==(const SweepJournalKey& other) const = default;
};

/// One parsed cell record — the unit both the journal file and the shard
/// protocol's CELL frames traffic in.
struct CellRecord {
    std::size_t index = 0;
    FaultCensus census;
};

/// Why a cell sits in quarantine instead of holding data: how many distinct
/// workers lost their lease over it, and the supervisor's one-line reason.
struct QuarantineRecord {
    std::size_t attempts = 0;
    std::string reason;
};

/// "cell <index> <f1> ... <f21> <fnv1a-hex16>" — one complete, checksummed
/// cell-record line.  Shared verbatim between the journal file and the shard
/// protocol (experiment/shard_protocol.hpp), so a cell streamed from a worker
/// is bit-for-bit the journal record the coordinator persists.
[[nodiscard]] std::string encode_cell_record(std::size_t index, const FaultCensus& census);

/// Parse and verify one cell-record line.  Throws core::CorruptData when the
/// checksum is missing, unparseable or wrong, core::ParseError on grammar
/// damage inside a checksum-verified payload, and core::CorruptData when
/// `cells_limit` > 0 and the index is not below it.
[[nodiscard]] CellRecord decode_cell_record(std::string_view line, std::size_t cells_limit = 0);

class SweepJournal {
public:
    /// Open the journal at `path` for the campaign identified by `key`.
    /// With `resume` set, an existing file is loaded and validated: a wrong
    /// magic line or a failed record checksum throws CorruptData, a header
    /// that names a different campaign throws StaleJournal — except that a
    /// damaged *final* record (torn tail append) is skipped with a warning
    /// and truncated off the file instead of rejecting the journal.
    /// Without `resume` (or when no file exists) the journal starts empty
    /// and the file is (re)created with just the header.  All disk access
    /// goes through `fs` (nullptr = core::real_fs()).
    SweepJournal(std::filesystem::path path, SweepJournalKey key, bool resume = false,
                 core::FileSystem* fs = nullptr);

    SweepJournal(const SweepJournal&) = delete;
    SweepJournal& operator=(const SweepJournal&) = delete;

    /// Persist one finished cell.  Thread-safe: workers record cells as they
    /// complete, in any order.  The file on disk is atomically replaced
    /// before record() returns, so a crash immediately after still resumes
    /// past this cell.
    void record(std::size_t index, const FaultCensus& census);

    /// Quarantine a poisoned cell: persist a `poison` record holding its
    /// slot.  A later record() for the same index replaces the quarantine
    /// with real data (a zombie worker's late delivery heals the journal);
    /// quarantining a cell that already holds data is a no-op.  Thread-safe
    /// like record().  `reason` must be a single line.
    void quarantine(std::size_t index, std::size_t attempts, const std::string& reason);

    /// The recorded census for `index`, or nullptr if that cell has not
    /// completed.  Call from the coordinating thread before the fan-out
    /// starts — not concurrently with record().
    [[nodiscard]] const FaultCensus* find(std::size_t index) const;

    [[nodiscard]] std::size_t completed() const { return cells_.size(); }
    [[nodiscard]] bool complete() const { return cells_.size() == key_.cells; }

    /// Quarantined cells, by index.  Disjoint from the completed cells by
    /// construction.  Read from the coordinating thread.
    [[nodiscard]] const std::map<std::size_t, QuarantineRecord>& quarantined() const {
        return quarantined_;
    }

    /// Every cell accounted for — completed or quarantined.  A resolved but
    /// incomplete campaign has holes and must be reported loudly.
    [[nodiscard]] bool resolved() const {
        return cells_.size() + quarantined_.size() == key_.cells;
    }
    [[nodiscard]] const SweepJournalKey& key() const { return key_; }
    [[nodiscard]] const std::filesystem::path& path() const { return path_; }

    /// Torn tail records dropped (and truncated off the file) during load.
    [[nodiscard]] std::size_t recovered_tail_records() const { return recovered_tail_; }

    /// Transient write/rename faults absorbed by the bounded retry loop so
    /// far (only ever non-zero under fault injection or a genuinely flaky
    /// disk).  Read after the campaign — not concurrently with record().
    [[nodiscard]] int io_retries() const { return io_retries_; }

private:
    void load();           ///< parse + validate an existing file
    void rewrite() const;  ///< atomic tmp-write + rename; caller holds mutex_

    std::filesystem::path path_;
    SweepJournalKey key_;
    core::FileSystem* fs_;
    std::map<std::size_t, FaultCensus> cells_;  ///< ordered: file stays in index order
    std::map<std::size_t, QuarantineRecord> quarantined_;  ///< poisoned cells, no data
    std::size_t recovered_tail_ = 0;
    mutable int io_retries_ = 0;
    mutable std::mutex mutex_;
};

}  // namespace zerodeg::experiment
