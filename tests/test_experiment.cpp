// Integration tests over the full experiment runner, plus the prototype
// phase and the operator-behavior helpers.
#include <gtest/gtest.h>

#include "experiment/census.hpp"
#include "experiment/prototype.hpp"
#include "experiment/runner.hpp"

namespace zerodeg::experiment {
namespace {

using core::Duration;
using core::TimePoint;

ExperimentConfig short_config(std::uint64_t seed = 7) {
    ExperimentConfig cfg;
    cfg.master_seed = seed;
    cfg.end = TimePoint::from_date(2010, 3, 2);  // ~11 days, fast
    // Shrink the corpus so constructing the job is quick.
    cfg.load.corpus.total_bytes = 128 * 1024;
    cfg.load.target_blocks = 30;
    return cfg;
}

TEST(OperatorModel, NextVisitSkipsWeekend) {
    // Host #15 crashed Saturday 04:40 and was reset "on the following
    // Monday".  (March 7 2010 is a Sunday; the paper's Saturday March 7 is
    // taken as written — any weekend crash waits for Monday 10:00.)
    const TimePoint saturday_night = TimePoint::from_civil({2010, 3, 6, 4, 40, 0});
    const TimePoint visit = next_operator_visit(saturday_night, 10);
    EXPECT_EQ(visit.to_civil().hour, 10);
    EXPECT_EQ(visit.iso_weekday(), 1);  // Monday
    EXPECT_EQ(visit.date_string(), "2010-03-08");
}

TEST(OperatorModel, SameDayVisitIfBeforeTen) {
    const TimePoint tuesday_early = TimePoint::from_civil({2010, 3, 9, 6, 0, 0});
    const TimePoint visit = next_operator_visit(tuesday_early, 10);
    EXPECT_EQ(visit.date_string(), "2010-03-09");
    const TimePoint tuesday_noon = TimePoint::from_civil({2010, 3, 9, 12, 0, 0});
    EXPECT_EQ(next_operator_visit(tuesday_noon, 10).date_string(), "2010-03-10");
}

TEST(Runner, InstallTimelineRespected) {
    ExperimentRunner run(short_config());
    run.run_until(TimePoint::from_date(2010, 2, 23));
    // By Feb 23 only the first three pairs are up.
    std::size_t powered = 0;
    for (const auto& rec : run.fleet().hosts()) {
        if (rec.server->state() != hardware::RunState::kPoweredOff) ++powered;
    }
    EXPECT_EQ(powered, 6u);
    run.run_until(TimePoint::from_date(2010, 2, 26));
    powered = 0;
    for (const auto& rec : run.fleet().hosts()) {
        if (rec.server->state() != hardware::RunState::kPoweredOff) ++powered;
    }
    EXPECT_EQ(powered, 10u);  // + Feb 24 and Feb 25 pairs
}

TEST(Runner, TentIsWarmerThanOutsideUnderLoad) {
    ExperimentRunner run(short_config());
    run.run();
    const auto tent = run.tent_truth_temperature().stats_between(
        TimePoint::from_date(2010, 2, 20), TimePoint::from_date(2010, 3, 2));
    const auto outside = run.station().temperature_series().stats_between(
        TimePoint::from_date(2010, 2, 20), TimePoint::from_date(2010, 3, 2));
    EXPECT_GT(tent.mean, outside.mean + 3.0);
}

TEST(Runner, TentModificationsLoggedOnSchedule) {
    ExperimentConfig cfg = short_config();
    cfg.end = TimePoint::from_date(2010, 2, 28);
    ExperimentRunner run(cfg);
    run.run();
    // Only R (Feb 26) fits in this window.
    EXPECT_TRUE(run.tent().has_modification(thermal::TentMod::kReflectiveFoil));
    EXPECT_FALSE(run.tent().has_modification(thermal::TentMod::kInnerTentRemoved));
    bool logged = false;
    for (const auto& e : run.event_log().entries()) {
        logged |= e.source == "tent" && e.message.find("reflective foil") != std::string::npos;
    }
    EXPECT_TRUE(logged);
}

TEST(Runner, BasementStaysInSpec) {
    ExperimentRunner run(short_config());
    run.run();
    const auto basement = run.basement_temperature().stats();
    EXPECT_GT(basement.min, 19.0);
    EXPECT_LT(basement.max, 24.0);
}

TEST(Runner, LoadRunsAccumulateOnlyOnInstalledHosts) {
    ExperimentRunner run(short_config());
    run.run();
    // Host 1 installed Feb 19, host 15 installed Mar 10 (after cfg.end).
    EXPECT_GT(run.load().stats(1).runs, 1000u);
    EXPECT_EQ(run.load().stats(15).runs, 0u);
    EXPECT_TRUE(run.load().job().planned());
}

TEST(Runner, TrafficSeasonNeverBuildsTheLoadJob) {
    // The scheduler exists in every season, but a traffic season registers
    // no hosts with it, so its job never plans: no corpus, no archive.
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::kTraffic;
    ExperimentRunner run(cfg);
    run.run();
    EXPECT_EQ(run.load().total_runs(), 0u);
    EXPECT_FALSE(run.load().job().planned());
    EXPECT_FALSE(run.load().job().emitted());
}

TEST(Runner, DeterministicAcrossRuns) {
    const auto census_of = [](std::uint64_t seed) {
        ExperimentRunner run(short_config(seed));
        run.run();
        return take_census(run);
    };
    const FaultCensus a = census_of(99);
    const FaultCensus b = census_of(99);
    EXPECT_EQ(a.system_failures, b.system_failures);
    EXPECT_EQ(a.wrong_hashes, b.wrong_hashes);
    EXPECT_EQ(a.load_runs, b.load_runs);
    EXPECT_EQ(a.switch_failures, b.switch_failures);
}

TEST(Runner, CensusShapesMatchFleet) {
    ExperimentRunner run(short_config());
    run.run();
    const FaultCensus census = take_census(run);
    EXPECT_EQ(census.tent_hosts, 9u);
    EXPECT_EQ(census.basement_hosts, 9u);
    EXPECT_EQ(census.load_runs, run.load().total_runs());
    EXPECT_GE(census.system_failures,
              census.tent_hosts_failed > 0 || census.basement_hosts_failed > 0 ? 1u : 0u);
    EXPECT_GT(census.page_ops, 0u);
}

TEST(Runner, LoggerStartsLate) {
    ExperimentConfig cfg = short_config();
    cfg.logger_start = TimePoint::from_date(2010, 2, 25);
    ExperimentRunner run(cfg);
    run.run();
    EXPECT_GE(run.tent_logger().temperature_series().front().time,
              TimePoint::from_date(2010, 2, 25));
    // The station (outside) has data from the start, like Fig. 3.
    EXPECT_LT(run.station().temperature_series().front().time,
              TimePoint::from_date(2010, 2, 20));
}

TEST(Runner, CondensationNeverOnPoweredHost) {
    // Section 5's conclusion, verified over the simulated window: a powered
    // case never reaches the tent air's dew point.
    ExperimentRunner run(short_config());
    run.run();
    EXPECT_FALSE(run.condensation().condensation_occurred());
    EXPECT_GT(run.condensation().observations(), 100u);
}

TEST(Runner, PowerMeterSeesInstallSteps) {
    ExperimentRunner run(short_config());
    run.run();
    const auto& power = run.tent_meter().power_series();
    ASSERT_FALSE(power.empty());
    // More machines = more power: the last reading (9 tent hosts... minus
    // crashes) exceeds the first (3 hosts).
    EXPECT_GT(power.back().value, power.front().value);
    EXPECT_GT(run.tent_meter().metered_energy().kilowatt_hours(), 10.0);
}

TEST(Prototype, SurvivesTheWeekend) {
    const PrototypeResult r = run_prototype();
    EXPECT_TRUE(r.survived);
    EXPECT_TRUE(r.smart_ok);
    // The paper's weekend: minimum -10.2 degC, average -9.2 degC.  The
    // synthetic weather reproduces the regime, not the exact values.
    EXPECT_LT(r.outside_min.value(), -6.0);
    EXPECT_GT(r.outside_min.value(), -16.0);
    EXPECT_LT(r.outside_mean.value(), -5.0);
    EXPECT_GT(r.outside_mean.value(), -13.0);
    // "the CPU had been operating in temperatures as low as -4 degC".
    EXPECT_LT(r.cpu_min_reported.value(), 0.0);
    EXPECT_GT(r.cpu_min_reported.value(), -12.0);
    EXPECT_FALSE(r.outside_series.empty());
    EXPECT_FALSE(r.cpu_series.empty());
}

TEST(Prototype, BoxesBarelyWarmerThanOutside) {
    const PrototypeResult r = run_prototype();
    EXPECT_GT(r.box_min.value(), r.outside_min.value());
    EXPECT_LT(r.box_min.value(), r.outside_min.value() + 5.0);
}


TEST(Runner, ComponentFaultsFlowThroughToHardware) {
    // Crank component hazards so events certainly fire, and verify the
    // whole path: process -> hardware state -> fault log -> census.
    ExperimentConfig cfg = short_config();
    cfg.component_faults.fan_afr = 80.0;
    cfg.component_faults.disk_afr = 80.0;
    cfg.component_faults.media_events_per_year = 200.0;
    ExperimentRunner run(cfg);
    run.run();

    const FaultCensus census = take_census(run);
    EXPECT_GT(census.fan_faults, 0u);
    EXPECT_GT(census.disk_faults, 0u);

    // Hardware state changed accordingly somewhere in the fleet.
    bool any_seized = false;
    bool any_disk_dead = false;
    for (const auto& rec : run.fleet().hosts()) {
        for (auto& fan : rec.server->fans()) any_seized |= fan.seized();
        for (const auto& d : rec.server->storage().drives()) any_disk_dead |= d.failed();
    }
    EXPECT_TRUE(any_seized);
    EXPECT_TRUE(any_disk_dead);

    // With disks dying at this rate, some vendor-B single-drive host loses
    // its array and crashes ("storage array lost").
    bool storage_crash = false;
    for (const auto& e : run.event_log().entries()) {
        storage_crash |= e.message.find("storage array lost") != std::string::npos;
    }
    EXPECT_TRUE(storage_crash);
}

TEST(Runner, QuietComponentFaultsAtDefaultRates) {
    // At the defaults the paper's observation holds: no fan or disk deaths
    // in a typical season (media events are rare but possible).
    ExperimentRunner run(short_config(3));
    run.run();
    const FaultCensus census = take_census(run);
    EXPECT_EQ(census.fan_faults, 0u);
    EXPECT_LE(census.disk_faults, 2u);
}

TEST(Runner, TentEnvelopeMeteredAsMostlyOutside) {
    ExperimentRunner run(short_config());
    run.run();
    const thermal::EnvelopeTracker& env = run.tent_envelope();
    EXPECT_GT(env.hours_total(), 200.0);
    // A Finnish February is far below the allowable envelope almost always.
    EXPECT_LT(env.fraction_within(), 0.1);
    EXPECT_GT(env.hours(thermal::EnvelopeVerdict::kTooCold), 0.9 * env.hours_total());
}


TEST(Runner, TraceDrivenExperiment) {
    // Record a trace from the synthetic model, feed it back as if it were
    // real SMEAR data, and verify the experiment consumes it faithfully.
    ExperimentConfig cfg = short_config();
    weather::WeatherModel model(cfg.weather, cfg.master_seed);
    cfg.weather_trace = weather::generate_trace(model, cfg.start - Duration::days(1),
                                                cfg.end + Duration::days(1),
                                                Duration::minutes(30));
    ExperimentRunner run(cfg);
    run.run();

    // The station's record interpolates the trace: values at trace points
    // match, and the series covers the window.
    const auto& temps = run.station().temperature_series();
    ASSERT_FALSE(temps.empty());
    for (const weather::WeatherSample& s : cfg.weather_trace) {
        if (s.time < cfg.start || s.time > cfg.end) continue;
        const auto v = temps.interpolate(s.time);
        ASSERT_TRUE(v.has_value());
        EXPECT_NEAR(*v, s.temperature.value(), 1.5);  // station samples every 10 min
    }
    // And the tent still behaves (warmer than outside under load).
    const auto tent = run.tent_truth_temperature().stats();
    EXPECT_GT(tent.mean, temps.stats().mean);
}

TEST(Runner, TraceDrivenIsDeterministic) {
    ExperimentConfig cfg = short_config();
    weather::WeatherModel model(cfg.weather, 5);
    cfg.weather_trace = weather::generate_trace(model, cfg.start - Duration::days(1),
                                                cfg.end + Duration::days(1),
                                                Duration::minutes(30));
    const auto run_once = [&cfg] {
        ExperimentRunner run(cfg);
        run.run();
        return take_census(run);
    };
    const FaultCensus a = run_once();
    const FaultCensus b = run_once();
    EXPECT_EQ(a.system_failures, b.system_failures);
    EXPECT_EQ(a.wrong_hashes, b.wrong_hashes);
}

}  // namespace
}  // namespace zerodeg::experiment


