// core::Watchdog: the harness-level answer to the paper's hung machines.
// A cell that outlives its deadline must be detected, cancelled
// cooperatively, charged against its retry budget, and reported as a hung
// node — never silently wedge the sweep.
#include "core/watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "core/error.hpp"
#include "core/io.hpp"
#include "experiment/parallel_census.hpp"
#include "experiment/torture.hpp"

namespace zerodeg::core {
namespace {

/// Poll `done` every ~1ms for up to ~5s; returns whether it came true.
template <typename Pred>
bool eventually(Pred done) {
    for (int i = 0; i < 5000; ++i) {
        if (done()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

TEST(CancelToken, SharedFlagAndCooperativeThrow) {
    const CancelToken token;
    const CancelToken copy = token;
    EXPECT_FALSE(token.cancelled());
    token.throw_if_cancelled("no-op while live");

    copy.cancel();
    EXPECT_TRUE(token.cancelled());
    try {
        token.throw_if_cancelled("cell 3 overran");
        FAIL() << "expected TransientError";
    } catch (const TransientError& e) {
        EXPECT_NE(std::string(e.what()).find("cell 3 overran"), std::string::npos);
    }
}

TEST(ScopedCellToken, InstallsAndRestoresTheThreadLocalToken) {
    EXPECT_EQ(current_cell_token(), nullptr);
    CancelToken outer;
    {
        ScopedCellToken outer_scope(outer);
        ASSERT_NE(current_cell_token(), nullptr);
        EXPECT_FALSE(current_cell_token()->cancelled());
        {
            CancelToken inner;
            ScopedCellToken inner_scope(inner);
            inner.cancel();
            EXPECT_TRUE(current_cell_token()->cancelled());
        }
        // Back to the outer (uncancelled) token — nesting restores, so a
        // retried cell never sees its predecessor's cancelled token.
        EXPECT_FALSE(current_cell_token()->cancelled());
    }
    EXPECT_EQ(current_cell_token(), nullptr);
}

TEST(Watchdog, RejectsNonPositiveDeadline) {
    EXPECT_THROW(Watchdog(0), InvalidArgument);
    EXPECT_THROW(Watchdog(-5), InvalidArgument);
}

TEST(Watchdog, CancelsAScopeThatOutlivesTheDeadline) {
    Watchdog dog(40);
    const Watchdog::Scope scope = dog.watch("cell 7");
    EXPECT_TRUE(eventually([&scope] { return scope.token().cancelled(); }));
    EXPECT_EQ(dog.hung_count(), 1u);
    ASSERT_EQ(dog.hung_labels().size(), 1u);
    EXPECT_EQ(dog.hung_labels()[0], "cell 7");
}

TEST(Watchdog, LeavesFastWorkAlone) {
    Watchdog dog(60);
    {
        const Watchdog::Scope scope = dog.watch("quick cell");
        EXPECT_FALSE(scope.token().cancelled());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_EQ(dog.hung_count(), 0u);
}

TEST(Watchdog, StalledFaultyFsWriteIsCancelledAsAHungNode) {
    Watchdog dog(30);
    const Watchdog::Scope scope = dog.watch("stalled writer");
    ScopedCellToken install(scope.token());

    FaultPlan plan;
    plan.stall_rate = 1.0;
    plan.max_stall_polls = 60000;  // without the watchdog this would stall ~1 min
    FaultyFs faulty(plan);
    try {
        faulty.write_file(std::filesystem::path(::testing::TempDir()) / "stalled.txt", "x");
        FAIL() << "expected TransientError from the cancelled stall";
    } catch (const TransientError& e) {
        EXPECT_NE(std::string(e.what()).find("hung node"), std::string::npos) << e.what();
    }
    ASSERT_FALSE(faulty.fault_trace().empty());
    EXPECT_EQ(faulty.fault_trace().back().kind, FaultKind::kStall);
    EXPECT_EQ(dog.hung_count(), 1u);
}

TEST(Watchdog, UnwatchedStallGivesUpAndProceeds) {
    // No watchdog, no token: the stall burns its poll budget and the write
    // then lands, so a stray stall fault can never hang a plain test run.
    FaultPlan plan;
    plan.stall_rate = 1.0;
    plan.max_stall_polls = 3;
    FaultyFs faulty(plan);
    const std::filesystem::path p =
        std::filesystem::path(::testing::TempDir()) / "unwatched_stall.txt";
    faulty.write_file(p, "landed anyway");
    EXPECT_EQ(real_fs().read_file(p), "landed anyway");
}

}  // namespace
}  // namespace zerodeg::core

namespace zerodeg::experiment {
namespace {

// End-to-end: a census cell that hangs on its first attempt is cancelled by
// the plan's deadline, charged against cell_attempts, succeeds on retry, and
// shows up in the harness stats — the sweep finishes with correct output.
TEST(ParallelCensusWatchdog, HungCellIsCancelledRetriedAndReported) {
    CensusPlan plan;
    plan.base_seed = 500;
    plan.seeds = 2;
    plan.cell_attempts = 2;
    plan.cell_deadline_ms = 50;

    auto first_attempt_done = std::make_shared<std::map<std::uint64_t, bool>>();
    auto mutex = std::make_shared<std::mutex>();
    plan.run_cell = [first_attempt_done, mutex](const ExperimentConfig& cfg) -> FaultCensus {
        bool hang = false;
        {
            std::lock_guard<std::mutex> lock(*mutex);
            bool& done = (*first_attempt_done)[cfg.master_seed];
            hang = !done;
            done = true;
        }
        if (hang) {
            const core::CancelToken* token = core::current_cell_token();
            if (token != nullptr) {
                for (int i = 0; i < 10000 && !token->cancelled(); ++i) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                }
                token->throw_if_cancelled("cell hung in run_cell");
            }
            throw core::TransientError("no watchdog token installed");
        }
        return synthetic_census(cfg);
    };

    const CensusResult result = ParallelCensus(plan, 2).run();
    EXPECT_EQ(result.harness.hung_cells, 2u);
    ASSERT_EQ(result.harness.hung_cell_labels.size(), 2u);
    EXPECT_EQ(result.harness.hung_cell_labels[0], "cell 0");
    EXPECT_EQ(result.harness.hung_cell_labels[1], "cell 1");
    ASSERT_EQ(result.censuses.size(), 2u);
    for (std::size_t i = 0; i < plan.seeds; ++i) {
        ExperimentConfig cfg;
        cfg.master_seed = plan.base_seed + i;
        EXPECT_EQ(result.censuses[i].load_runs, synthetic_census(cfg).load_runs);
    }
}

// The same property under a saturated pool: every cell's first attempt
// hangs on a FaultyFs stall (not a polling loop in the cell), so the
// watchdog must cancel it inside the io seam.  Apart from the harness
// section that names the hung nodes, the census must equal an undisturbed
// run's.
TEST(ParallelCensusWatchdog, StalledFirstAttemptsLeaveTheCensusUnchanged) {
    constexpr std::size_t kJobs = 8;
    CensusPlan plan;
    plan.base_seed = 20100219;
    plan.seeds = 3;
    plan.run_cell = synthetic_census;
    const std::string want = render_census_table(ParallelCensus(plan, kJobs).run(), plan.base_seed);

    // Every write through this FaultyFs stalls until cancelled (the poll cap
    // is a parachute, not the expected exit).
    core::FaultPlan stall_plan;
    stall_plan.stall_rate = 1.0;
    stall_plan.max_stall_polls = 60000;
    auto stalling = std::make_shared<core::FaultyFs>(stall_plan);
    const std::filesystem::path heartbeat_dir =
        std::filesystem::path(::testing::TempDir()) / "watchdog_heartbeats";
    std::filesystem::create_directories(heartbeat_dir);
    auto first_attempt_done = std::make_shared<std::map<std::uint64_t, std::atomic<bool>>>();
    for (std::size_t i = 0; i < plan.seeds; ++i) (*first_attempt_done)[plan.base_seed + i] = false;

    CensusPlan hung = plan;
    hung.cell_attempts = 3;
    hung.cell_deadline_ms = 150;
    hung.run_cell = [stalling, first_attempt_done, heartbeat_dir](const ExperimentConfig& cfg) {
        if (!first_attempt_done->at(cfg.master_seed).exchange(true)) {
            // First attempt: the heartbeat write hangs on the injected stall
            // until the watchdog cancels this cell (TransientError).
            stalling->write_file(
                heartbeat_dir / ("cell_" + std::to_string(cfg.master_seed) + ".alive"), "alive\n");
        }
        return synthetic_census(cfg);
    };

    CensusResult result = ParallelCensus(hung, kJobs).run();
    EXPECT_GE(result.harness.hung_cells, plan.seeds);
    EXPECT_NE(render_census_table(result, plan.base_seed).find("harness hung nodes"),
              std::string::npos);
    result.harness = CensusHarnessStats{};
    EXPECT_EQ(render_census_table(result, plan.base_seed), want);
}

}  // namespace
}  // namespace zerodeg::experiment
