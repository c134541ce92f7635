// Golden-number regression suite: the paper's reproduced claims, pinned at
// the default seeds, so future refactors can't silently drift the
// reproduction.  Each test names the claim as the paper states it.  Bands
// are deliberately loose where the claim is statistical (the simulation
// regenerates the *regime*) and exact where the run is deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "energy/pue.hpp"
#include "experiment/census.hpp"
#include "experiment/figures.hpp"
#include "experiment/parallel_census.hpp"
#include "experiment/prototype.hpp"
#include "experiment/runner.hpp"
#include "faults/memory_faults.hpp"
#include "workload/slo.hpp"
#include "workload/traffic.hpp"

namespace zerodeg {
namespace {

// --- Section 5: "a rather efficient 1.74" --------------------------------

TEST(GoldenClaims, PueOfTheNewClusterIs174) {
    const energy::PueBreakdown p = energy::helsinki_cluster_pue();
    EXPECT_NEAR(p.it_load.kilowatts(), 75.0, 1e-9);
    EXPECT_NEAR(p.cooling.kilowatts(), 6.9 + 44.7 + 3.8, 1e-9);
    EXPECT_NEAR(p.pue, 1.74, 0.005);
    // "unfortunately, such is not the case": the legacy-CRAC correction only
    // makes it worse.
    EXPECT_GT(energy::helsinki_cluster_pue_with_legacy_cracs().pue, p.pue);
}

// --- Section 3.1: the prototype weekend ----------------------------------

TEST(GoldenClaims, PrototypeWeekendReproducesThePaperRegime) {
    const experiment::PrototypeResult r = experiment::run_prototype();
    // Paper: minimum -10.2 degC, mean -9.2 degC, CPU as cold as -4 degC,
    // and the machine survived with clean S.M.A.R.T. data.  At the default
    // seed this reproduction lands on -12.4 / -9.2 / -4.8 (the minimum runs
    // colder because the synthetic weekend keeps a realistic diurnal spread;
    // see "Known deviations" in EXPERIMENTS.md).
    EXPECT_TRUE(r.survived);
    EXPECT_TRUE(r.smart_ok);
    EXPECT_NEAR(r.outside_mean.value(), -9.2, 0.5);   // the paper's mean, matched
    EXPECT_NEAR(r.outside_min.value(), -12.4, 1.0);   // pinned reproduction value
    EXPECT_NEAR(r.cpu_min_reported.value(), -4.8, 2.0);
    EXPECT_LT(r.cpu_min_reported.value(), 0.0);       // "as low as -4 degC": sub-zero CPU
}

// --- Section 4 / 4.2: the fault census at the default seed ---------------

/// One full default season (the paper's Feb 19 - Mar 27 window, seed
/// 20100219) under `workload`, run once per process and shared by the
/// golden tests below.
std::unique_ptr<experiment::ExperimentRunner> run_default_season(
    experiment::WorkloadKind workload) {
    experiment::ExperimentConfig cfg;
    cfg.workload = workload;
    auto run = std::make_unique<experiment::ExperimentRunner>(cfg);
    run->run();
    return run;
}

const experiment::ExperimentRunner& default_season() {
    static const auto run = run_default_season(experiment::WorkloadKind::kArchive);
    return *run;
}

const experiment::ExperimentRunner& default_traffic_season() {
    static const auto run = run_default_season(experiment::WorkloadKind::kTraffic);
    return *run;
}

const experiment::FaultCensus& default_season_census() {
    static const experiment::FaultCensus census = experiment::take_census(default_season());
    return census;
}

/// FNV-1a of faults.log and events.log exactly as export_figure_data writes
/// them.  The logs pin ordering as well as totals: same-tick fault records
/// and event lines that swapped places would move these, not the census.
struct LogPins {
    std::uint64_t faults_log_fnv = 0;
    std::uint64_t events_log_fnv = 0;
};

LogPins exported_log_pins(const experiment::ExperimentRunner& run, const std::string& name) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / ("golden_logs_" + name);
    fs::create_directories(dir);
    const experiment::FigureFiles files;
    (void)experiment::export_figure_data(run, dir.string(), files);
    core::FileSystem& disk = core::real_fs();
    const LogPins pins{core::fnv1a(disk.read_file(dir / files.fault_log)),
                       core::fnv1a(disk.read_file(dir / files.events))};
    fs::remove_all(dir);
    return pins;
}

TEST(GoldenClaims, HostFailureRateIsThePapers56Percent) {
    const experiment::FaultCensus& c = default_season_census();
    // Paper: one of eighteen installed hosts failed -- 5.6%, vs Intel's
    // 4.46% comparator -- and the failure was in the tent group.
    EXPECT_EQ(c.tent_hosts, 9u);
    EXPECT_EQ(c.basement_hosts, 9u);
    EXPECT_EQ(c.tent_hosts_failed, 1u);
    EXPECT_EQ(c.basement_hosts_failed, 0u);
    EXPECT_NEAR(c.fleet_failure_rate(), 1.0 / 18.0, 1e-12);
    // Same band as Intel's economizer PoC, the paper's headline comparison.
    EXPECT_LT(c.fleet_failure_rate(), 2.0 * experiment::FaultCensus::kIntelFailureRate);
}

TEST(GoldenClaims, DefaultSeasonCensusGoldenNumbers) {
    const experiment::FaultCensus& c = default_season_census();
    // Exact pins at the default seed: any behavioural drift in weather,
    // thermals, hazards, scheduling or RNG stream derivation moves at least
    // one of these.  Update them ONLY for an intentional model change, and
    // say so in EXPERIMENTS.md.
    EXPECT_EQ(c.system_failures, 1u);
    EXPECT_EQ(c.load_runs, 70183u);
    EXPECT_EQ(c.wrong_hashes, 13u);
    EXPECT_EQ(c.sensor_incidents, 0u);
    EXPECT_EQ(c.switch_failures, 3u);
}

/// The load cycle's deterministic work counters for one archive season.
struct LoadWork {
    std::uint64_t blocks_decoded = 0;
    std::uint64_t md5_bytes = 0;
    std::uint64_t incident_blocks = 0;  ///< sum of total_blocks over the incidents

    bool operator==(const LoadWork&) const = default;
};

LoadWork season_load_work(std::uint64_t seed) {
    experiment::ExperimentConfig cfg;
    cfg.master_seed = seed;
    experiment::ExperimentRunner run(cfg);
    run.run();
    LoadWork w;
    w.blocks_decoded = run.load().total_blocks_decoded();
    w.md5_bytes = run.load().total_md5_bytes();
    for (const workload::WrongHashIncident& inc : run.load().incidents()) {
        w.incident_blocks += inc.total_blocks;
    }
    return w;
}

TEST(GoldenClaims, DefaultSeasonLoadWorkCountersRepeatAcrossJobs) {
    // Forensics decodes only the blocks a flip touched and MD5 re-hashes
    // only from the checkpoint below the first flipped byte.  The counters
    // are exact: pinned at the default seed and identical for any jobs.
    const auto cell = [](std::size_t i) { return season_load_work(20100219 + i); };
    const std::vector<LoadWork> serial = experiment::SweepRunner(1).map(2, cell);
    const std::vector<LoadWork> pooled = experiment::SweepRunner(2).map(2, cell);
    EXPECT_EQ(serial, pooled);
    const LoadWork& golden = serial[0];
    EXPECT_EQ(golden.blocks_decoded, 13u);
    EXPECT_EQ(golden.md5_bytes, 9145562u);
    // Each wrong hash still reports all 397 blocks, as bzip2recover did.
    EXPECT_EQ(golden.incident_blocks, 5161u);
}

TEST(GoldenClaims, DefaultSeasonLogBytes) {
    const LogPins p = exported_log_pins(default_season(), "archive");
    EXPECT_EQ(p.faults_log_fnv, 0xe03a38884b3efe45ULL);
    EXPECT_EQ(p.events_log_fnv, 0xf82bca0c82320f55ULL);
}

TEST(GoldenClaims, WrongHashRatioOfTheSeasonNear570Million) {
    const experiment::FaultCensus& c = default_season_census();
    // Paper: "around one in 570 million" page operations.  The default
    // season realizes one in ~657 million -- same order, well inside the
    // Poisson spread of 13 events.
    ASSERT_GT(c.wrong_hashes, 0u);
    const double ops_per_corruption = 1.0 / c.page_fault_ratio();
    EXPECT_GT(ops_per_corruption, 570e6 / 2.0);
    EXPECT_LT(ops_per_corruption, 570e6 * 2.0);
}

// --- Traffic workload: the default request-serving season -----------------

TEST(GoldenClaims, DefaultTrafficSeasonGoldenNumbers) {
    const experiment::FaultCensus c = experiment::take_census(default_traffic_season());
    // Exact pins at the default seed: the whole coupling chain is upstream
    // of these numbers — arrival thinning, PS service, JSQ dispatch, host
    // install/crash schedule, utilization -> heat -> hazard.  Any drift in
    // any layer moves at least one.  Update ONLY for an intentional model
    // change, and say so in EXPERIMENTS.md.
    EXPECT_EQ(c.requests_completed, 787661u);
    EXPECT_EQ(c.requests_dropped, 0u);
    EXPECT_EQ(c.deadline_misses, 18625u);
    EXPECT_EQ(c.p99_sojourn_us, 888624838u);
    // The two default flash crowds transiently saturate the fleet; misses
    // stay a small minority of the season's traffic.
    EXPECT_NEAR(c.deadline_miss_fraction(), 0.024, 0.002);
    // Faults under the traffic workload at the default seed: same fleet
    // failure story as the archive season (one tent host).
    EXPECT_EQ(c.system_failures, 1u);
    EXPECT_EQ(c.switch_failures, 3u);
    // The archive pipeline really was off: no batch runs, no hash checks.
    EXPECT_EQ(c.load_runs, 0u);
    EXPECT_EQ(c.wrong_hashes, 0u);
}

/// Byte-level fingerprint of one traffic season: the FNV-1a of the rendered
/// SLO CSV pins every per-tick p50/p95/p99 bit, and the dispatch counters
/// pin cloning and cancellation.
struct TrafficPins {
    std::uint64_t slo_csv_fnv = 0;
    std::uint64_t requests_issued = 0;
    std::uint64_t clones_issued = 0;
    std::uint64_t clones_cancelled = 0;
};

TrafficPins traffic_pins(const experiment::ExperimentRunner& run) {
    const workload::TrafficEngine& t = run.traffic();
    return {core::fnv1a(workload::render_slo_csv(t.slo())), t.requests_issued(),
            t.clones_issued(), t.clones_cancelled()};
}

TrafficPins traffic_pins(const experiment::ExperimentConfig& cfg) {
    experiment::ExperimentRunner run(cfg);
    run.run();
    return traffic_pins(run);
}

/// Five days over the early fleet with a flash crowd inside the window.
experiment::ExperimentConfig short_traffic_season() {
    experiment::ExperimentConfig cfg;
    cfg.end = core::TimePoint::from_date(2010, 2, 24);
    cfg.workload = experiment::WorkloadKind::kTraffic;
    cfg.traffic.open.flash_crowds = {{core::TimePoint::from_civil({2010, 2, 20, 18, 0, 0}),
                                      core::Duration::hours(2), 3.0}};
    return cfg;
}

TEST(GoldenClaims, DefaultTrafficSeasonSloCsvBytes) {
    const TrafficPins p = traffic_pins(default_traffic_season());
    EXPECT_EQ(p.slo_csv_fnv, 0x462a4f0f62fcdecfULL);
    EXPECT_EQ(p.requests_issued, 787666u);
    EXPECT_EQ(p.clones_issued, 787666u);
    EXPECT_EQ(p.clones_cancelled, 0u);
}

TEST(GoldenClaims, DefaultTrafficSeasonThinningCounts) {
    // Every candidate draws its exponential and its uniform whether or not
    // the squeeze settles it, so the candidate count is the unsqueezed
    // loop's.  The per-bucket bounds leave under 1% of candidates to an
    // exact arrival_rate call.  The generator reads one arrival ahead of
    // the requests issued.
    const workload::TrafficEngine& t = default_traffic_season().traffic();
    const workload::ThinningCounts c = t.thinning();
    EXPECT_EQ(c.candidates, 4357570u);
    EXPECT_EQ(c.exact_evaluations, 8688u);
    EXPECT_EQ(c.accepted, 787667u);
    EXPECT_EQ(c.accepted, t.requests_issued() + 1);
    EXPECT_LT(c.exact_evaluations * 100, c.candidates);
}

TEST(GoldenClaims, DefaultTrafficSeasonLogBytes) {
    const LogPins p = exported_log_pins(default_traffic_season(), "traffic");
    EXPECT_EQ(p.faults_log_fnv, 0x83ef8be45a28bc61ULL);
    EXPECT_EQ(p.events_log_fnv, 0x03e8cc1db62e8f64ULL);
}

TEST(GoldenClaims, ClonedTrafficSeasonSloCsvBytes) {
    experiment::ExperimentConfig cfg = short_traffic_season();
    cfg.traffic.clone_across_split = true;
    const TrafficPins p = traffic_pins(cfg);
    EXPECT_EQ(p.slo_csv_fnv, 0x43ac16d073098cd4ULL);
    EXPECT_EQ(p.requests_issued, 113162u);
    EXPECT_EQ(p.clones_issued, 226324u);
    EXPECT_EQ(p.clones_cancelled, 113159u);
}

TEST(GoldenClaims, ClosedLoopTrafficSeasonSloCsvBytes) {
    experiment::ExperimentConfig cfg = short_traffic_season();
    cfg.traffic.mode = workload::TrafficConfig::Mode::kClosed;
    const TrafficPins p = traffic_pins(cfg);
    EXPECT_EQ(p.slo_csv_fnv, 0x2e13a884d171bba1ULL);
    EXPECT_EQ(p.requests_issued, 215693u);
    EXPECT_EQ(p.clones_issued, 215693u);
    EXPECT_EQ(p.clones_cancelled, 0u);
}

TEST(GoldenClaims, WideChurningClonedEngineBytes) {
    // Engine-level pin past the default fleet: 70 hosts, so any per-host
    // bookkeeping spans more than one 64-bit word, with the tent side at
    // hosts 56..69 straddling the word boundary.  A quarter of the basement
    // and half the tent follow a scripted down/up schedule, so host crashes
    // drop resident clones (some requests lose one sibling, a few lose both)
    // while a flash crowd keeps the tent queues deep and the cancel traffic
    // heavy.
    workload::TrafficConfig cfg;
    cfg.clone_across_split = true;
    const core::TimePoint origin = core::TimePoint::from_date(2010, 2, 19);
    cfg.open.flash_crowds = {{core::TimePoint::from_civil({2010, 2, 20, 19, 0, 0}),
                              core::Duration::hours(3), 8.0}};
    workload::TrafficEngine engine(cfg, /*master_seed=*/20100219, origin);
    int tick = 0;
    std::vector<double> peak_load(70, 0.0);
    for (int h = 0; h < 70; ++h) {
        workload::TrafficEngine::HostBinding b;
        b.host_id = "host" + std::to_string(h);
        b.in_tent = h >= 56;
        if (h % 4 == 1 || (h >= 56 && h % 2 == 0)) {
            // Down for two hours out of every eight, in three staggered
            // phases, so some crashes hit both sides of a clone pair.
            b.operational = [&tick, h] { return ((tick + 4 * (h % 3)) / 12) % 4 != 0; };
        }
        b.set_load = [&peak_load, h](double busy) {
            double& peak = peak_load[static_cast<std::size_t>(h)];
            peak = std::max(peak, busy);
        };
        engine.add_host(std::move(b));
    }
    const core::TimePoint end = origin + core::Duration::days(3);
    for (core::TimePoint t = origin; t < end; ++tick) {
        t = t + core::Duration::minutes(10);
        engine.advance(t);
    }
    EXPECT_EQ(core::fnv1a(workload::render_slo_csv(engine.slo())), 0x4f81fdea7bf75bd5ULL);
    EXPECT_EQ(engine.slo().completed(), 90993u);
    EXPECT_EQ(engine.slo().dropped(), 4u);
    EXPECT_EQ(engine.clones_cancelled(), 90978u);
    // The crowd reached the hosts in the second word.
    EXPECT_GT(peak_load[69], 0.5);
}

// --- Section 4.2.2: "around one in 570 million" --------------------------

TEST(GoldenClaims, WrongHashRatioNearOneIn570Million) {
    const faults::MemoryFaultParams params;  // defaults ARE the paper's rate
    EXPECT_DOUBLE_EQ(params.flip_probability_per_page_op, 1.0 / 570e6);

    faults::MemoryFaultModel model(params, core::RngStream(20100219, "golden-hashes"));
    // Simulate ~20x the paper's denominator and require the realized ratio
    // inside a 4-sigma Poisson band around 1/570M.
    constexpr std::uint64_t kPageOpsPerSlice = 570'000'000;
    constexpr int kSlices = 20;
    std::uint64_t corrupting = 0;
    for (int i = 0; i < kSlices; ++i) {
        corrupting += model.run(kPageOpsPerSlice, /*ecc=*/false).corrupting_flips;
    }
    EXPECT_GT(corrupting, 0u);
    EXPECT_NEAR(static_cast<double>(corrupting), kSlices, 4.0 * std::sqrt(kSlices));
}

}  // namespace
}  // namespace zerodeg
