// The torture engine itself, run fast: a small synthetic sweep crashed at
// every journal write point (times every crash phase) must resume to
// byte-identical census tables for jobs 1 and 8 — the engine behind
// `zerodeg census --torture`, milliseconds per cell.  The figure export
// gets the same treatment at a seed-chosen subset of its writes.
#include "experiment/torture.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/io.hpp"
#include "core/rng.hpp"
#include "experiment/figures.hpp"
#include "experiment/parallel_census.hpp"
#include "experiment/runner.hpp"

namespace zerodeg::experiment {
namespace {

namespace fs = std::filesystem;

CensusPlan synthetic_plan(std::size_t seeds) {
    CensusPlan plan;
    plan.base_seed = 42;
    plan.seeds = seeds;
    plan.run_cell = [](const ExperimentConfig& cfg) { return synthetic_census(cfg); };
    return plan;
}

fs::path scratch_journal(const std::string& name) {
    fs::path p = fs::path(::testing::TempDir()) / ("torture_" + name + ".journal");
    fs::remove(p);
    fs::remove(fs::path(p.string() + ".tmp"));
    return p;
}

TEST(SyntheticCensus, IsAPureFunctionOfTheSeed) {
    ExperimentConfig cfg;
    cfg.master_seed = 1234;
    const FaultCensus a = synthetic_census(cfg);
    const FaultCensus b = synthetic_census(cfg);
    EXPECT_EQ(a.load_runs, b.load_runs);
    EXPECT_EQ(a.wrong_hashes, b.wrong_hashes);
    EXPECT_EQ(a.system_failures, b.system_failures);

    cfg.master_seed = 1235;
    const FaultCensus c = synthetic_census(cfg);
    EXPECT_TRUE(a.load_runs != c.load_runs || a.wrong_hashes != c.wrong_hashes ||
                a.page_ops != c.page_ops);
}

TEST(RenderCensusTable, HungNodeLineOnlyAppearsWithHungCells) {
    const CensusResult result = ParallelCensus(synthetic_plan(2), 1).run();
    const std::string clean = render_census_table(result, 42);
    EXPECT_NE(clean.find("seed 42:"), std::string::npos);
    EXPECT_NE(clean.find("mean fleet failure rate:"), std::string::npos);
    EXPECT_EQ(clean.find("harness hung nodes"), std::string::npos);

    CensusResult hung = result;
    hung.harness.hung_cells = 2;
    hung.harness.hung_cell_labels = {"cell 0", "cell 3"};
    const std::string reported = render_census_table(hung, 42);
    EXPECT_NE(reported.find("harness hung nodes: 2 cancelled by watchdog (cell 0, cell 3)"),
              std::string::npos);
}

/// The acceptance property, as a fast deterministic unit test: crash at
/// every write point of a 3-cell sweep, under both a serial and a saturated
/// worker pool.
class TortureSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TortureSweep, EveryCrashPointResumesByteIdentical) {
    const std::size_t jobs = GetParam();
    const fs::path journal = scratch_journal("jobs" + std::to_string(jobs));
    std::ostringstream log;
    const TortureReport report = torture_campaign(synthetic_plan(3), jobs, journal, log);
    EXPECT_TRUE(report.passed()) << log.str();
    EXPECT_EQ(report.mismatches, 0u) << log.str();
    EXPECT_GT(report.io_ops, 0u);
    // Four crash phases per write point, one resume per crash point.
    EXPECT_EQ(report.crash_points, report.io_ops * 4);
    EXPECT_EQ(report.resumes, report.crash_points);
    // Torn-write/torn-tail phases must actually exercise the recovery
    // machinery somewhere in the sweep, or the test is weaker than it looks.
    EXPECT_GT(report.tail_repairs + report.journal_resets, 0u) << log.str();
}

INSTANTIATE_TEST_SUITE_P(Jobs, TortureSweep, ::testing::Values<std::size_t>(1, 8),
                         [](const auto& param_info) {
                             return "jobs" + std::to_string(param_info.param);
                         });

/// Crash the figure export at a seed-chosen subset of its write ops, before
/// the write and mid-write (torn prefix); the re-export that follows must
/// leave every file byte-identical to an undisturbed export.  Every op would
/// re-render the season's series many times over for little extra coverage:
/// the journal torture above already covers every op exhaustively.
TEST(ExportTorture, ReExportAfterACrashIsByteIdentical) {
    ExperimentConfig cfg;
    cfg.master_seed = 20100219;
    cfg.end = cfg.start + core::Duration::days(3);
    cfg.load.corpus.total_bytes = 64 * 1024;
    cfg.load.target_blocks = 20;
    ExperimentRunner run(cfg);
    run.run();

    const fs::path root = fs::path(::testing::TempDir()) / "export_torture";
    fs::remove_all(root);
    const fs::path ref_dir = root / "reference";
    const fs::path tort_dir = root / "torture";
    fs::create_directories(ref_dir);
    fs::create_directories(tort_dir);
    const std::vector<std::string> reference = export_figure_data(run, ref_dir.string());

    // Count the export's write ops (this also leaves a complete export in
    // tort_dir for the crashes to damage), then pick the crash ops.
    core::FaultyFs counter(core::FaultPlan{});
    (void)export_figure_data(run, tort_dir.string(), FigureFiles(), 1, &counter);
    const std::size_t ops = counter.op_count();
    ASSERT_GE(ops, reference.size());
    std::set<std::size_t> crash_ops;
    std::uint64_t pick_state = 0xe4a027ULL;
    while (crash_ops.size() < std::min<std::size_t>(5, ops)) {
        crash_ops.insert(static_cast<std::size_t>(core::splitmix64(pick_state) % ops));
    }

    for (const std::size_t op : crash_ops) {
        for (const core::CrashPhase phase :
             {core::CrashPhase::kBeforeOp, core::CrashPhase::kTornWrite}) {
            SCOPED_TRACE(testing::Message() << "crash at op " << op << " phase "
                                            << core::to_string(phase));
            core::FaultPlan fault_plan;
            fault_plan.crash_at_op = op;
            fault_plan.crash_phase = phase;
            core::FaultyFs faulty(fault_plan);
            EXPECT_THROW((void)export_figure_data(run, tort_dir.string(), FigureFiles(), 1,
                                                  &faulty),
                         core::SimulatedCrash);
            // The survivor re-runs the export against the real disk.
            const std::vector<std::string> redone = export_figure_data(run, tort_dir.string());
            ASSERT_EQ(redone.size(), reference.size());
            for (std::size_t i = 0; i < reference.size(); ++i) {
                EXPECT_EQ(core::real_fs().read_file(redone[i]),
                          core::real_fs().read_file(reference[i]))
                    << redone[i];
            }
        }
    }
    fs::remove_all(root);
}

}  // namespace
}  // namespace zerodeg::experiment
