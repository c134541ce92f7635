#include "workload/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "experiment/census.hpp"
#include "experiment/runner.hpp"
#include "experiment/sweep_journal.hpp"

namespace zerodeg::workload {

// Readable failure output for the settle comparisons below.
void PrintTo(const WrongHashIncident& inc, std::ostream* os) {
    *os << "{host " << inc.host_id << " at " << inc.time.to_string() << ", " << inc.corrupt_blocks
        << "/" << inc.total_blocks << " blocks" << (inc.recovered ? ", recovered" : "") << "}";
}
void PrintTo(const HostLoadStats& st, std::ostream* os) {
    *os << "{runs " << st.runs << ", wrong " << st.wrong_hashes << ", skipped " << st.skipped
        << ", ecc " << st.ecc_corrected << ", page_ops " << st.page_ops << ", blocks "
        << st.blocks_decoded << ", md5 " << st.md5_bytes << "}";
}

namespace {

using core::Duration;
using core::Simulator;
using core::TimePoint;

LoadJob small_job() {
    LoadJobConfig cfg;
    cfg.corpus.total_bytes = 64 * 1024;
    cfg.target_blocks = 20;
    return LoadJob(cfg, 2010);
}

TEST(Scheduler, TenMinuteCadence) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    bool up = true;
    sched.add_host({1, false, [&up] { return up; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(10) + Duration::minutes(5));
    // 10 h at 6 runs/h, +1 for the t=0 cycle.
    EXPECT_EQ(sched.stats(1).runs, 61u);
    EXPECT_EQ(sched.total_runs(), 61u);
}

TEST(Scheduler, StartFuzzWithinTwoMinutes) {
    // "each host sleeps for 0 to 119 seconds before commencing"
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    // After 119 s the first cycle must have fired; before 0 s it cannot.
    sim.run_until(sim.now() + Duration::seconds(120));
    EXPECT_EQ(sched.stats(1).runs, 1u);
}

TEST(Scheduler, DownHostSkipsCycles) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    bool up = true;
    sched.add_host({15, false, [&up] { return up; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(1) + Duration::minutes(5));
    const auto runs_before = sched.stats(15).runs;
    up = false;  // host #15 crashes
    sim.run_until(sim.now() + Duration::hours(1));
    EXPECT_EQ(sched.stats(15).runs, runs_before);
    EXPECT_GT(sched.stats(15).skipped, 0u);
}

TEST(Scheduler, InstallDateDelaysFirstRun) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    const TimePoint install = TimePoint::from_date(2010, 3, 10);  // host #15's date
    sched.add_host({15, false, [] { return true; }}, install);
    sim.run_until(TimePoint::from_date(2010, 3, 9));
    EXPECT_EQ(sched.stats(15).runs, 0u);
    sim.run_until(TimePoint::from_date(2010, 3, 11));
    EXPECT_GT(sched.stats(15).runs, 100u);
}

TEST(Scheduler, RemoveHostStopsScheduling) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(1));
    const auto before = sched.stats(1).runs;
    sched.remove_host(1);
    sim.run_until(sim.now() + Duration::hours(2));
    EXPECT_EQ(sched.stats(1).runs, before);
}

TEST(Scheduler, DuplicateAndUnknownHostsThrow) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    EXPECT_THROW(sched.add_host({1, false, [] { return true; }}, sim.now()),
                 core::InvalidArgument);
    EXPECT_THROW(sched.remove_host(9), core::InvalidArgument);
    EXPECT_THROW((void)sched.stats(9), core::InvalidArgument);
    EXPECT_THROW(sched.add_host({2, false, nullptr}, sim.now()), core::InvalidArgument);
}

TEST(Scheduler, WrongHashIncidentsCarryForensics) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    faults::MemoryFaultParams noisy;
    noisy.flip_probability_per_page_op = 1.0 / 2000.0;  // frequent flips
    LoadScheduler sched(sim, small_job(), noisy, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(12));
    ASSERT_GT(sched.total_wrong_hashes(), 0u);
    const auto& incidents = sched.incidents();
    ASSERT_FALSE(incidents.empty());
    EXPECT_EQ(incidents[0].host_id, 1);
    EXPECT_GT(incidents[0].total_blocks, 0u);
    EXPECT_GE(incidents[0].corrupt_blocks, 1u);
    EXPECT_EQ(sched.total_wrong_hashes(), incidents.size());
}

TEST(Scheduler, PageOpsAccumulate) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(1) + Duration::minutes(5));
    EXPECT_EQ(sched.total_page_ops(),
              sched.stats(1).runs * sched.job().page_ops_per_run());
}

TEST(Scheduler, TwoHostsIndependentStreams) {
    Simulator sim(TimePoint::from_date(2010, 2, 19));
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, 1);
    sched.add_host({1, false, [] { return true; }}, sim.now());
    sched.add_host({2, true, [] { return true; }}, sim.now());
    sim.run_until(sim.now() + Duration::hours(5));
    EXPECT_EQ(sched.stats(1).runs, sched.stats(2).runs);
}

// --- settling on first read ------------------------------------------------

/// Everything a season's archive outcomes are: per-host stats, incidents
/// and the census record the journal stores.
struct Outcomes {
    std::map<int, HostLoadStats> stats;
    std::vector<WrongHashIncident> incidents;
    std::string census_record;
};

enum class ReadPattern { kEveryStep, kRandomPoints, kOnlyAtEnd };

Outcomes season_read(ReadPattern pattern) {
    const experiment::ExperimentConfig config;
    experiment::ExperimentRunner run(config);
    core::Simulator& sim = run.simulator();
    const LoadScheduler& load = run.load();
    const TimePoint stop = config.end - Duration::days(1);
    if (pattern == ReadPattern::kEveryStep) {
        // What a traced benchmark does: every corrupting run settles alone.
        while (sim.now() < stop && sim.step()) (void)load.incidents();
    } else if (pattern == ReadPattern::kRandomPoints) {
        core::RngStream rng(5, "settle.read-points");
        while (sim.now() < stop) {
            run.run_until(std::min(stop, sim.now() + Duration::minutes(rng.uniform_int(1, 6000))));
            const auto& all = load.all_stats();
            if (all.empty()) continue;
            const auto host = static_cast<std::int64_t>(all.size()) - 1;
            (void)load.stats(std::next(all.begin(), rng.uniform_int(0, host))->first);
        }
    }
    run.run();
    Outcomes out;
    out.stats = load.all_stats();
    out.incidents = load.incidents();
    out.census_record = experiment::encode_cell_record(0, experiment::take_census(run));
    return out;
}

TEST(SchedulerSettle, OutcomesDoNotDependOnWhenTheyAreRead) {
    const Outcomes at_end = season_read(ReadPattern::kOnlyAtEnd);
    ASSERT_EQ(at_end.incidents.size(), 13u);
    for (const ReadPattern pattern : {ReadPattern::kEveryStep, ReadPattern::kRandomPoints}) {
        SCOPED_TRACE(static_cast<int>(pattern));
        const Outcomes read = season_read(pattern);
        EXPECT_EQ(read.stats, at_end.stats);
        EXPECT_EQ(read.incidents, at_end.incidents);
        EXPECT_EQ(read.census_record, at_end.census_record);
    }
}

TEST(SchedulerSettle, NoisyHostsSettleAlikeStepByStepAndInOneBatch) {
    // Many multi-flip corrupting runs across hosts, settled one at a time
    // or all at once on the last read.
    faults::MemoryFaultParams noisy;
    noisy.flip_probability_per_page_op = 1.0 / 3000.0;
    const auto season = [&noisy](bool read_every_step) {
        Simulator sim(TimePoint::from_date(2010, 2, 19));
        LoadScheduler sched(sim, small_job(), noisy, 3);
        for (int id = 1; id <= 3; ++id) sched.add_host({id, false, [] { return true; }}, sim.now());
        const TimePoint end = sim.now() + Duration::hours(8);
        while (sim.now() < end && sim.step()) {
            if (read_every_step) (void)sched.total_wrong_hashes();
        }
        return std::make_pair(sched.all_stats(), sched.incidents());
    };
    const auto batched = season(false);
    const auto stepped = season(true);
    EXPECT_GT(batched.second.size(), 8u);
    EXPECT_EQ(stepped.first, batched.first);
    EXPECT_EQ(stepped.second, batched.second);
}

// --- run order: one event per cycle against a trigger per cycle -------------

/// Each cycle's (sim time, host id), in the order the cycles ran.
using CycleLog = std::vector<std::pair<TimePoint, int>>;

/// The load cycle as two events: a recurring trigger per host at its cycle
/// instants draws the fuzz from the host's stream and schedules the run.
/// This is the order LoadScheduler must keep.
class TwoEventCycles {
public:
    TwoEventCycles(Simulator& sim, std::uint64_t master_seed, CycleLog& log)
        : sim_(sim), master_seed_(master_seed), log_(log) {}

    void add_host(int id, TimePoint first_cycle) {
        fuzz_.emplace(id, core::RngStream{master_seed_, "load.fuzz." + std::to_string(id)});
        const TimePoint start = std::max(first_cycle, sim_.now());
        triggers_[id] = sim_.schedule_every(start, Duration::minutes(10), [this, id] {
            const auto fuzz = Duration::seconds(fuzz_.at(id).uniform_int(0, 119));
            sim_.schedule_in(fuzz, [this, id] {
                if (!removed_.contains(id)) log_.emplace_back(sim_.now(), id);
            });
        });
    }

    void remove_host(int id) {
        removed_.insert(id);
        sim_.cancel(triggers_.at(id));
    }

private:
    Simulator& sim_;
    std::uint64_t master_seed_;
    CycleLog& log_;
    std::map<int, core::RngStream> fuzz_;
    std::map<int, core::EventId> triggers_;
    std::set<int> removed_;
};

/// A fleet plan: hosts added before the season in plan order, hosts added
/// at their own first instant mid-season, and removals.
struct FleetPlan {
    TimePoint start;
    TimePoint end;
    std::vector<std::pair<int, TimePoint>> hosts;          ///< (id, first cycle)
    std::vector<std::pair<int, TimePoint>> added_at_first;  ///< (id, add time)
    std::vector<std::pair<int, TimePoint>> removals;        ///< (id, time)
};

/// Drive `cycles` (LoadScheduler or TwoEventCycles) through `plan`.
template <class Cycles, class MakeBinding>
void drive(Simulator& sim, Cycles& cycles, const FleetPlan& plan, MakeBinding binding) {
    for (const auto& [id, first] : plan.hosts) cycles.add_host(binding(id), first);
    for (const auto& [id, when] : plan.added_at_first) {
        sim.schedule_at(when, [&sim, &cycles, binding, id] {
            cycles.add_host(binding(id), sim.now());
        });
    }
    for (const auto& [id, when] : plan.removals) {
        sim.schedule_at(when, [&cycles, id] { cycles.remove_host(id); });
    }
    sim.run_until(plan.end);
}

CycleLog scheduler_order(const FleetPlan& plan, std::uint64_t seed) {
    Simulator sim(plan.start);
    LoadScheduler sched(sim, small_job(), faults::MemoryFaultParams{}, seed);
    CycleLog log;
    drive(sim, sched, plan, [&sim, &log](int id) {
        return LoadScheduler::HostBinding{id, false, [&sim, &log, id] {
                                              log.emplace_back(sim.now(), id);
                                              return true;
                                          }};
    });
    return log;
}

CycleLog reference_order(const FleetPlan& plan, std::uint64_t seed) {
    Simulator sim(plan.start);
    CycleLog log;
    TwoEventCycles cycles(sim, seed, log);
    drive(sim, cycles, plan, [](int id) { return id; });
    return log;
}

/// Runs of different hosts at one instant: the ties whose order the rank
/// rule decides.
std::size_t same_time_pairs(const CycleLog& log) {
    std::size_t n = 0;
    for (std::size_t i = 1; i < log.size(); ++i) n += log[i].first == log[i - 1].first;
    return n;
}

/// Empty when the logs are equal, else where they first part.
std::string first_difference(const CycleLog& got, const CycleLog& want) {
    const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(), want.end());
    if (g == got.end() && w == want.end()) return "";
    const auto show = [](const CycleLog& log, CycleLog::const_iterator it) {
        return it == log.end() ? std::string("the end")
                               : "host " + std::to_string(it->second) + " at " +
                                     it->first.to_string();
    };
    return "cycle " + std::to_string(g - got.begin()) + ": got " + show(got, g) + ", want " +
           show(want, w);
}

TEST(SchedulerOrder, DefaultSeasonRunsInTriggerOrder) {
    // The default seed, and two seeds whose seasons start a host with fuzz 0
    // at its first cycle (host 10 at its 2010-02-25 install under 20100228,
    // host 4 at the season start under 20100235).
    for (const std::uint64_t seed :
         {experiment::ExperimentConfig{}.master_seed, std::uint64_t{20100228},
          std::uint64_t{20100235}}) {
        SCOPED_TRACE(seed);
        experiment::ExperimentConfig config;
        config.master_seed = seed;
        experiment::ExperimentRunner run(config);
        run.run();
        FleetPlan plan{config.start, config.end, {}, {}, {}};
        for (const hardware::HostRecord& rec : run.fleet().hosts()) {
            auto& into = rec.replaces_id != 0 ? plan.added_at_first : plan.hosts;
            into.emplace_back(rec.server->id(), rec.install_date);
        }
        const CycleLog want = reference_order(plan, seed);
        EXPECT_GT(same_time_pairs(want), 100u);
        EXPECT_EQ(first_difference(scheduler_order(plan, seed), want), "");
    }
}

TEST(SchedulerOrder, InstallBatchesReplacementAndRemovalRunInTriggerOrder) {
    const TimePoint start = TimePoint::from_date(2010, 2, 19);
    FleetPlan plan{start, start + Duration::days(9), {}, {}, {}};
    // Three install batches, added in an order that is not their date
    // order; the first is already installed when the season starts.
    for (int id = 1; id <= 5; ++id) plan.hosts.emplace_back(id, start - Duration::days(3));
    for (int id = 6; id <= 10; ++id) plan.hosts.emplace_back(id, start + Duration::days(5));
    for (int id = 11; id <= 15; ++id) plan.hosts.emplace_back(id, start + Duration::days(2));
    // A replacement at its own first instant, on the cycle grid and off it.
    plan.added_at_first.emplace_back(16, start + Duration::days(3) + Duration::minutes(30));
    plan.added_at_first.emplace_back(17, start + Duration::days(6) + Duration::seconds(77));
    // A retirement with a run pending, then one mid-fuzz.
    plan.removals.emplace_back(7, start + Duration::days(6) + Duration::minutes(5));
    plan.removals.emplace_back(2, start + Duration::days(7) + Duration::seconds(30));
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        const CycleLog want = reference_order(plan, seed);
        EXPECT_GT(same_time_pairs(want), 20u);
        EXPECT_EQ(first_difference(scheduler_order(plan, seed), want), "");
    }
}

}  // namespace
}  // namespace zerodeg::workload
