// Shared scaffolding for the bench binaries.
//
// Every bench regenerates its paper artifact (table rows / figure series)
// on stdout first, then runs its google-benchmark timings of the underlying
// computation.  This keeps `for b in build/bench/*; do $b; done` both the
// reproduction harness and the performance harness.
//
// Monte-Carlo benches shard their seeds across worker threads; the
// `--jobs N` flag (or `--jobs=N`) sets the worker count for the report
// phase.  `--jobs 0` means one worker per hardware thread (the default).
// Report output is byte-identical for every jobs value — parallelism only
// changes wall clock, a property the determinism test suite pins.
//
// `--checkpoint FILE` journals each finished sweep cell so a killed bench
// resumes (`--resume`) instead of re-simulating; see
// experiment/sweep_journal.hpp.  Benches whose cells are full season
// censuses honour it; others ignore it.
//
// `--inject-faults SEED` routes the journal through a core::FaultyFs with
// deterministic seed-scheduled write/rename faults — the quickest way to
// see the bounded retry machinery absorb a flaky disk on a real sweep.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/bench_clock.hpp"
#include "core/csv.hpp"
#include "core/error.hpp"
#include "core/io.hpp"
#include "core/task_pool.hpp"
#include "experiment/parallel_census.hpp"
#include "experiment/sweep_journal.hpp"

namespace zerodeg::benchutil {

namespace detail {
inline std::size_t& jobs_storage() {
    static std::size_t jobs = core::TaskPool::hardware_workers();
    return jobs;
}
inline std::string& checkpoint_storage() {
    static std::string path;
    return path;
}
inline bool& resume_storage() {
    static bool resume = false;
    return resume;
}
inline std::uint64_t& fault_seed_storage() {
    static std::uint64_t seed = 0;
    return seed;
}
}  // namespace detail

/// Worker count for the report phase (set by --jobs, default all hardware
/// threads).
[[nodiscard]] inline std::size_t jobs() { return detail::jobs_storage(); }

/// Journal path from `--checkpoint FILE`; empty when checkpointing is off.
[[nodiscard]] inline const std::string& checkpoint_path() {
    return detail::checkpoint_storage();
}

/// True when `--resume` was given (reuse cells already in the journal).
[[nodiscard]] inline bool resume() { return detail::resume_storage(); }

/// FaultyFs seed from `--inject-faults SEED`; 0 = no injection.
[[nodiscard]] inline std::uint64_t fault_seed() { return detail::fault_seed_storage(); }

/// The value of `--name` as a nonnegative integer; exits 2 naming the flag
/// otherwise, as the CLI does.
inline std::uint64_t flag_u64(const char* name, const std::string& value) {
    try {
        return core::parse_csv_u64(value);
    } catch (const core::Error&) {
        std::cerr << "error: --" << name << " wants a nonnegative integer, got '" << value
                  << "'\n";
        std::exit(2);
    }
}

/// Strip the sweep flags (`--jobs N`, `--checkpoint FILE`, `--resume`,
/// `--inject-faults SEED`) out of argv — so google-benchmark never sees
/// them — and record the values.
inline void parse_sweep_flags(int& argc, char** argv) {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--resume") {
            detail::resume_storage() = true;
            continue;
        }
        if (arg.rfind("--checkpoint=", 0) == 0) {
            detail::checkpoint_storage() = arg.substr(13);
            continue;
        }
        if (arg == "--checkpoint" && i + 1 < argc) {
            detail::checkpoint_storage() = argv[++i];
            continue;
        }
        if (arg.rfind("--inject-faults=", 0) == 0) {
            detail::fault_seed_storage() = flag_u64("inject-faults", arg.substr(16));
            continue;
        }
        if (arg == "--inject-faults" && i + 1 < argc) {
            detail::fault_seed_storage() = flag_u64("inject-faults", argv[++i]);
            continue;
        }
        if (arg.rfind("--jobs=", 0) == 0) {
            value = arg.substr(7);
        } else if (arg == "--jobs" && i + 1 < argc) {
            value = argv[++i];
        } else {
            argv[out++] = argv[i];
            continue;
        }
        const std::uint64_t v = flag_u64("jobs", value);
        detail::jobs_storage() =
            v == 0 ? core::TaskPool::hardware_workers() : static_cast<std::size_t>(v);
    }
    argc = out;
    if (detail::resume_storage() && detail::checkpoint_storage().empty()) {
        std::cerr << "error: --resume needs --checkpoint FILE\n";
        std::exit(2);
    }
}

/// Run a census plan across jobs() workers, honouring --checkpoint/--resume:
/// with a checkpoint set, every finished cell is journalled as it completes
/// and a resumed run reuses the recorded cells instead of re-simulating.
/// The result is byte-identical with or without a journal.
[[nodiscard]] inline experiment::CensusResult run_plan(const experiment::CensusPlan& plan) {
    const experiment::ParallelCensus campaign(plan, jobs());
    if (checkpoint_path().empty()) return campaign.run();
    const experiment::SweepJournalKey key = campaign.journal_key();
    // --inject-faults: the journal writes go through a deterministic
    // FaultyFs; the journal's bounded tmp+rename retry absorbs the faults.
    std::unique_ptr<core::FaultyFs> faulty;
    if (fault_seed() != 0) {
        core::FaultPlan fault_plan;
        fault_plan.seed = fault_seed();
        fault_plan.write_fault_rate = 0.15;
        fault_plan.rename_fault_rate = 0.05;
        faulty = std::make_unique<core::FaultyFs>(fault_plan);
    }
    experiment::SweepJournal journal(checkpoint_path(), key, resume(), faulty.get());
    if (journal.completed() > 0) {
        std::cout << "checkpoint: resuming " << journal.completed() << "/" << key.cells
                  << " cells from " << checkpoint_path() << "\n";
    }
    experiment::CensusResult result = campaign.run(journal);
    if (faulty) {
        std::cout << "fault injection: " << faulty->fault_trace().size() << " fault(s) over "
                  << faulty->op_count() << " io ops; journal absorbed " << journal.io_retries()
                  << " transient retr" << (journal.io_retries() == 1 ? "y" : "ies") << "\n";
    }
    return result;
}

/// Wall-clock stopwatch for the report phase ("census: 10 seeds in 3.2 s,
/// jobs=8" lines — the number the speedup acceptance criterion reads).
/// Built on core::bench_clock, the lint-sanctioned timing seam (ZD013), so
/// no per-line suppressions are needed here or in any bench target.
class WallTimer {
public:
    WallTimer() : start_(core::bench_clock::now()) {}
    [[nodiscard]] double seconds() const {
        return core::bench_clock::seconds_between(start_, core::bench_clock::now());
    }

private:
    core::bench_clock::time_point start_;
};

/// Call from main(): print the reproduction report, then run benchmarks.
template <typename ReportFn>
int run(int argc, char** argv, const char* title, ReportFn&& report) {
    parse_sweep_flags(argc, argv);
    std::cout << "==========================================================================\n"
              << title << '\n'
              << "==========================================================================\n";
    report();
    std::cout.flush();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

}  // namespace zerodeg::benchutil
