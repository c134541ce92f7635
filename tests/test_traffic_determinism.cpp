// Determinism claims of the traffic workload: the request stream derives
// from the master seed's named RNG streams alone, so (a) sharding a traffic
// census over any worker count is unobservable in the results, and (b) two
// runs of the same season agree to the last bit, down to the rendered SLO
// CSV.  Labelled `parallel` for the TSan gate and `traffic` so the workload
// suites can be selected together.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "experiment/census.hpp"
#include "experiment/parallel_census.hpp"
#include "experiment/runner.hpp"
#include "workload/slo.hpp"

namespace zerodeg::experiment {
namespace {

using core::Duration;
using core::TimePoint;

/// A short traffic season: five days over the six-host early fleet, with a
/// flash crowd inside the window so the bursty path is exercised too.
ExperimentConfig traffic_config(std::uint64_t seed, bool clone = false) {
    ExperimentConfig cfg;
    cfg.master_seed = seed;
    cfg.end = TimePoint::from_date(2010, 2, 24);
    cfg.workload = WorkloadKind::kTraffic;
    cfg.traffic.open.flash_crowds = {
        {TimePoint::from_civil({2010, 2, 20, 18, 0, 0}), Duration::hours(2), 3.0}};
    cfg.traffic.clone_across_split = clone;
    return cfg;
}

void expect_census_identical(const FaultCensus& a, const FaultCensus& b) {
    EXPECT_EQ(a.tent_hosts_failed, b.tent_hosts_failed);
    EXPECT_EQ(a.basement_hosts_failed, b.basement_hosts_failed);
    EXPECT_EQ(a.system_failures, b.system_failures);
    EXPECT_EQ(a.sensor_incidents, b.sensor_incidents);
    EXPECT_EQ(a.switch_failures, b.switch_failures);
    EXPECT_EQ(a.fan_faults, b.fan_faults);
    EXPECT_EQ(a.disk_faults, b.disk_faults);
    EXPECT_EQ(a.requests_completed, b.requests_completed);
    EXPECT_EQ(a.requests_dropped, b.requests_dropped);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.p99_sojourn_us, b.p99_sojourn_us);
}

/// Run a season and capture everything determinism-relevant as one string:
/// the rendered SLO CSV pins every per-tick percentile bit.
struct SeasonResult {
    FaultCensus census;
    std::string slo_csv;
};

SeasonResult run_season(const ExperimentConfig& cfg) {
    ExperimentRunner run(cfg);
    run.run();
    SeasonResult r;
    r.census = take_census(run);
    r.slo_csv = workload::render_slo_csv(run.traffic().slo());
    return r;
}

TEST(TrafficDeterminism, RepeatedSeasonsAgreeBitForBit) {
    const SeasonResult a = run_season(traffic_config(31415, true));
    const SeasonResult b = run_season(traffic_config(31415, true));
    expect_census_identical(a.census, b.census);
    EXPECT_EQ(a.slo_csv, b.slo_csv);
}

// --- parallel sharding ------------------------------------------------------

constexpr std::uint64_t kBaseSeed = 60321;
constexpr std::size_t kSeeds = 4;

CensusPlan traffic_plan() {
    CensusPlan plan;
    plan.base_seed = kBaseSeed;
    plan.seeds = kSeeds;
    plan.make_config = [](std::size_t /*index*/, std::uint64_t seed) {
        return traffic_config(seed);
    };
    return plan;
}

const CensusResult& serial_reference() {
    static const CensusResult reference = [] {
        CensusResult r;
        for (std::size_t i = 0; i < kSeeds; ++i) {
            ExperimentConfig cfg = traffic_config(kBaseSeed + i);
            ExperimentRunner run(cfg);
            run.run();
            r.censuses.push_back(take_census(run));
        }
        r.summary = summarize(r.censuses);
        return r;
    }();
    return reference;
}

void expect_bitwise(double a, double b, const char* what) {
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
        << what << ": " << a << " vs " << b << " differ in bits";
}

class TrafficParallelCensus : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrafficParallelCensus, ShardingIsUnobservable) {
    const std::size_t jobs = GetParam();
    const CensusResult parallel = ParallelCensus(traffic_plan(), jobs).run();
    const CensusResult& serial = serial_reference();

    ASSERT_EQ(parallel.censuses.size(), serial.censuses.size());
    for (std::size_t i = 0; i < kSeeds; ++i) {
        SCOPED_TRACE("seed index " + std::to_string(i));
        ASSERT_GT(serial.censuses[i].requests_completed, 0u);
        expect_census_identical(parallel.censuses[i], serial.censuses[i]);
    }
    expect_bitwise(parallel.summary.mean_requests_completed,
                   serial.summary.mean_requests_completed, "mean_requests_completed");
    expect_bitwise(parallel.summary.mean_deadline_miss_fraction,
                   serial.summary.mean_deadline_miss_fraction, "mean_deadline_miss_fraction");
}

INSTANTIATE_TEST_SUITE_P(Jobs, TrafficParallelCensus,
                         ::testing::Values<std::size_t>(1, 4, 8),
                         [](const auto& param_info) {
                             return "jobs" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace zerodeg::experiment
