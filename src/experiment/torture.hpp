// Crash-consistency torture for checkpointed sweeps.
//
// The contract under test is PR 2's headline claim: a campaign killed at
// *any* instant resumes from its journal to output byte-identical to an
// uninterrupted run, for any --jobs.  torture_campaign() proves it
// exhaustively rather than by spot checks: it counts the I/O operations of
// one journaled run, then replays the campaign once per (operation, crash
// phase) pair under a FaultyFs that kills the "process" exactly there —
// before the op, mid-write (torn prefix), after the op, and after a rename
// with torn tail bytes (the page-cache-never-flushed case).  Each death is
// followed by a resume against the real filesystem and a byte-compare of
// the rendered census tables.
//
// The engine is a library so `zerodeg census --torture` (torture the
// campaign you were about to run) and tests/test_torture.cpp (fast
// synthetic cells) share one implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>

#include "experiment/parallel_census.hpp"

namespace zerodeg::experiment {

struct TortureReport {
    std::size_t io_ops = 0;         ///< write points of one uninterrupted journaled run
    std::size_t crash_points = 0;   ///< (op, phase) pairs exercised
    std::size_t resumes = 0;        ///< successful resume-and-finish passes
    std::size_t tail_repairs = 0;   ///< resumes that dropped a torn tail record
    std::size_t journal_resets = 0; ///< resumes that found damage beyond the tail
                                    ///< contract (deleted the journal, restarted)
    std::size_t mismatches = 0;     ///< resumed output differed from the reference

    [[nodiscard]] bool passed() const { return mismatches == 0 && crash_points > 0; }
};

/// The census tables exactly as `zerodeg census` prints them (seed lines +
/// summary + harness incidents).  The torture byte-comparison runs on this
/// render, so "byte-identical" here means byte-identical CLI output.
[[nodiscard]] std::string render_census_table(const CensusResult& result,
                                              std::uint64_t base_seed);

/// A deterministic stand-in for run_season_census: a census derived purely
/// from the config's master seed via a named RNG stream, no simulation.
/// Lets the torture harness exercise every journal code path in
/// milliseconds; `zerodeg census --torture` uses real seasons instead.
[[nodiscard]] FaultCensus synthetic_census(const ExperimentConfig& config);

/// Crash `plan`'s campaign at every journal write point (times every crash
/// phase), resume each time, and compare against an uninterrupted run.
/// `journal_path` is scratch: it is deleted and recreated per crash point.
/// Mismatches go to `log`.
[[nodiscard]] TortureReport torture_campaign(const CensusPlan& plan, std::size_t jobs,
                                             const std::filesystem::path& journal_path,
                                             std::ostream& log);

}  // namespace zerodeg::experiment
