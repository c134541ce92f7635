// Closed-form queueing validation of the traffic engine.  A single-host
// TrafficEngine with exponential demands and Poisson arrivals (diurnal
// amplitude zero) *is* an M/M/1-PS queue, so its long-run mean sojourn time
// must converge to 1/(mu - lambda) and its utilization to rho = lambda/mu —
// textbook results the simulator has no way to know except by getting the
// dynamics right.  Closed-loop throughput is checked against the asymptotic
// bound min(N/(Z+R), mu), and cloning against its low-load advantage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "core/sim_time.hpp"
#include "workload/ps_queue.hpp"
#include "workload/request_gen.hpp"
#include "workload/traffic.hpp"

namespace zerodeg::workload {
namespace {

using core::Duration;
using core::TimePoint;

const TimePoint kOrigin = TimePoint::from_date(2010, 2, 19);

/// Drive a TrafficEngine for `days` simulated days in ten-minute ticks —
/// the same cadence the experiment runner uses.
void drive(TrafficEngine& engine, int days) {
    const Duration tick = Duration::minutes(10);
    TimePoint t = kOrigin;
    const TimePoint end = kOrigin + Duration::days(days);
    while (t < end) {
        t = t + tick;
        engine.advance(t);
    }
}

/// One always-up host, flat Poisson arrivals: an exact M/M/1-PS system.
TrafficEngine make_mm1(double lambda, double mu, std::uint64_t seed) {
    TrafficConfig cfg;
    cfg.mode = TrafficConfig::Mode::kOpen;
    cfg.open.base_rps = lambda;
    cfg.open.diurnal_amplitude = 0.0;
    cfg.open.flash_crowds.clear();
    cfg.mean_demand_seconds = 1.0 / mu;
    cfg.service_rate = 1.0;
    cfg.deadline_seconds = 1e9;  // latency accounting only, no miss pressure
    TrafficEngine engine(cfg, seed, kOrigin);
    engine.add_host({"host1", /*in_tent=*/false, /*operational=*/nullptr,
                     /*set_load=*/nullptr});
    return engine;
}

class Mm1PsClosedForm : public ::testing::TestWithParam<double> {};

TEST_P(Mm1PsClosedForm, MeanSojournAndUtilizationMatchTheory) {
    // mu = 0.1/s keeps demands long enough that ten-minute ticks see real
    // queueing.  The sojourn variance explodes as rho -> 1 (busy periods
    // lengthen), so the heavy-load point gets a 4x longer horizon to land
    // the sample mean inside 2%.  (PS sojourn is exponential-demand
    // *insensitive*, but we use exponential demands anyway — that's the
    // engine default.)
    const double rho = GetParam();
    const double mu = 0.1;
    const double lambda = rho * mu;
    TrafficEngine engine = make_mm1(lambda, mu, /*seed=*/987654321);
    drive(engine, rho < 0.8 ? 40 : 160);

    const double expected_sojourn = 1.0 / (mu - lambda);
    const double measured_sojourn = engine.slo().mean_sojourn_seconds();
    EXPECT_NEAR(measured_sojourn, expected_sojourn, 0.02 * expected_sojourn)
        << "rho = " << rho;

    const double measured_rho = engine.mean_utilization();
    EXPECT_NEAR(measured_rho, rho, 0.02 * rho) << "rho = " << rho;

    EXPECT_EQ(engine.slo().dropped(), 0u);
    EXPECT_EQ(engine.slo().deadline_misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Rho, Mm1PsClosedForm, ::testing::Values(0.3, 0.6, 0.9),
                         [](const auto& param_info) {
                             return "rho" +
                                    std::to_string(static_cast<int>(param_info.param * 10));
                         });

TEST(ClosedLoop, ThroughputObeysAsymptoticBound) {
    // Interactive response-time law: X = N/(Z+R) when the server is not the
    // bottleneck, saturating at mu.  With N = 4, Z = 100 s, S = 10 s the
    // population bound N/(Z+S) = 0.036/s rules (mu = 0.1/s), and R stays
    // close to S, so X ~= N/(Z+S) within the queueing slack.
    TrafficConfig cfg;
    cfg.mode = TrafficConfig::Mode::kClosed;
    cfg.closed.users = 4;
    cfg.closed.think_seconds = 100.0;
    cfg.mean_demand_seconds = 10.0;
    cfg.service_rate = 1.0;
    cfg.deadline_seconds = 1e9;
    TrafficEngine engine(cfg, /*master_seed=*/13579, kOrigin);
    engine.add_host({"host1", false, nullptr, nullptr});
    drive(engine, 40);

    const double horizon = 40.0 * 86400.0;
    const double throughput = static_cast<double>(engine.slo().completed()) / horizon;
    const double mu = 1.0 / 10.0;
    const double mean_sojourn = engine.slo().mean_sojourn_seconds();
    const double bound = std::min(4.0 / (100.0 + mean_sojourn), mu);
    // The response-time law X = N/(Z+R) is exact in steady state; 5% covers
    // finite-horizon noise on a ~138k-completion run.
    EXPECT_NEAR(throughput, bound, 0.05 * bound);
    // Sanity: nowhere near server saturation.
    EXPECT_LT(throughput, 0.6 * mu);
}

TEST(ClosedLoop, SaturatesAtServiceCapacity) {
    // N = 60 eager users (Z = 1 s) against mu = 0.1/s: the server is the
    // bottleneck and throughput pins at mu, not at N/(Z+R).
    TrafficConfig cfg;
    cfg.mode = TrafficConfig::Mode::kClosed;
    cfg.closed.users = 60;
    cfg.closed.think_seconds = 1.0;
    cfg.mean_demand_seconds = 10.0;
    cfg.service_rate = 1.0;
    cfg.deadline_seconds = 1e9;
    TrafficEngine engine(cfg, /*master_seed=*/24680, kOrigin);
    engine.add_host({"host1", false, nullptr, nullptr});
    drive(engine, 20);

    const double horizon = 20.0 * 86400.0;
    const double throughput = static_cast<double>(engine.slo().completed()) / horizon;
    EXPECT_NEAR(throughput, 0.1, 0.02 * 0.1);
    EXPECT_GT(engine.mean_utilization(), 0.98);
}

TEST(Cloning, BeatsSingleDispatchAtLowLoad) {
    // At low load a clone pair completes at min(two iid sojourns): strictly
    // faster in expectation than one draw.  Same seed with and without the
    // clone flag; tent + basement host so both split sides are present.
    const auto run_one = [](bool clone) {
        TrafficConfig cfg;
        cfg.mode = TrafficConfig::Mode::kOpen;
        cfg.open.base_rps = 0.002;  // rho ~= 0.02 per host: near-idle
        cfg.open.diurnal_amplitude = 0.0;
        cfg.open.flash_crowds.clear();
        cfg.mean_demand_seconds = 10.0;
        cfg.service_rate = 1.0;
        cfg.deadline_seconds = 1e9;
        cfg.clone_across_split = clone;
        TrafficEngine engine(cfg, /*master_seed=*/11223344, kOrigin);
        engine.add_host({"tent1", /*in_tent=*/true, nullptr, nullptr});
        engine.add_host({"cellar1", /*in_tent=*/false, nullptr, nullptr});
        drive(engine, 40);
        return engine.slo().mean_sojourn_seconds();
    };

    const double cloned = run_one(true);
    const double single = run_one(false);
    // E[min(X,Y)] = 5 s vs E[X] = 10 s for near-idle exponential service;
    // require a decisive (>25%) improvement rather than the full 50% to
    // absorb sampling noise and the rare in-flight overlap.
    EXPECT_LT(cloned, 0.75 * single) << "cloned " << cloned << " vs single " << single;
}

TEST(Cloning, CancelsTheSlowerSibling) {
    TrafficConfig cfg;
    cfg.open.base_rps = 0.01;
    cfg.open.diurnal_amplitude = 0.0;
    cfg.open.flash_crowds.clear();
    cfg.mean_demand_seconds = 5.0;
    cfg.clone_across_split = true;
    TrafficEngine engine(cfg, /*master_seed=*/5, kOrigin);
    engine.add_host({"tent1", true, nullptr, nullptr});
    engine.add_host({"cellar1", false, nullptr, nullptr});
    drive(engine, 10);

    EXPECT_GT(engine.slo().completed(), 0u);
    // Every completed request had exactly one sibling cancelled, and every
    // dispatched request placed a clone on each side of the split.
    EXPECT_EQ(engine.clones_cancelled(), engine.slo().completed());
    EXPECT_EQ(engine.clones_issued(), 2 * engine.requests_issued());
    EXPECT_EQ(engine.in_flight(), engine.requests_issued() - engine.slo().completed());
}

TEST(PsQueue, SharesCapacityExactly) {
    // Two unit-demand jobs admitted together at rate 1: both finish at t = 2
    // (each sees rate 1/2).  A third admitted at t = 2 runs alone.
    PsQueue q(/*service_rate=*/1.0);
    q.admit(1, 1.0, 0.0);
    q.admit(2, 1.0, 0.0);
    std::vector<PsQueue::Completion> done;
    q.advance_to(3.0, done);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_DOUBLE_EQ(done[0].time, 2.0);
    EXPECT_DOUBLE_EQ(done[1].time, 2.0);
    EXPECT_EQ(done[0].id, 1u);  // admission order breaks the tie
    EXPECT_EQ(done[1].id, 2u);

    done.clear();
    q.admit(3, 0.5, 3.0);
    q.advance_to(4.0, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_DOUBLE_EQ(done[0].time, 3.5);
}

TEST(PsQueue, ExactTiesLeaveInAdmissionOrderAroundSurvivors) {
    // A, C and D drain together at t = 4 while B (admitted between them)
    // survives with 2 units left; E joins at t = 4 with exactly 2 units, so
    // B and E tie again at t = 8.  Departures keep admission order both
    // times, and the compacted survivors keep it too.
    PsQueue q(/*service_rate=*/1.0);
    q.admit(1, 1.0, 0.0);  // A
    q.admit(2, 3.0, 0.0);  // B
    q.admit(3, 1.0, 0.0);  // C
    q.admit(4, 1.0, 0.0);  // D
    std::vector<PsQueue::Completion> done;
    q.advance_to(4.0, done);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0].id, 1u);
    EXPECT_EQ(done[1].id, 3u);
    EXPECT_EQ(done[2].id, 4u);
    for (const PsQueue::Completion& c : done) EXPECT_EQ(c.time, 4.0);
    EXPECT_EQ(q.in_service(), 1u);
    EXPECT_EQ(q.next_completion_time(), 6.0);

    done.clear();
    q.admit(5, 2.0, 4.0);  // E
    EXPECT_EQ(q.next_completion_time(), 8.0);
    q.advance_to(10.0, done);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].id, 2u);
    EXPECT_EQ(done[1].id, 5u);
    EXPECT_EQ(done[0].time, 8.0);
    EXPECT_EQ(done[1].time, 8.0);
    EXPECT_EQ(q.next_completion_time(), std::numeric_limits<double>::infinity());
}

/// The processor-sharing model recomputed from scratch: the next departure
/// is rescanned on every query and each departure rebuilds the job list.
/// PsQueue caches the former and compacts in place for the latter; both
/// must agree with this model to the last bit.
class RescanPsModel {
public:
    explicit RescanPsModel(double rate) : rate_(rate) {}

    void admit(std::uint64_t id, double demand, double now) {
        if (!jobs_.empty()) {
            const double work = (now - clock_) * rate_ / static_cast<double>(jobs_.size());
            for (Job& j : jobs_) j.remaining -= work;
        }
        clock_ = now;
        jobs_.push_back({id, demand});
    }

    void advance_to(double t, std::vector<PsQueue::Completion>& out) {
        while (!jobs_.empty()) {
            const double n = static_cast<double>(jobs_.size());
            const double min_rem = min_remaining();
            const double dt_to_departure = min_rem * n / rate_;
            if (clock_ + dt_to_departure > t) {
                const double work = (t - clock_) * rate_ / n;
                for (Job& j : jobs_) j.remaining -= work;
                clock_ = t;
                return;
            }
            clock_ += dt_to_departure;
            for (Job& j : jobs_) j.remaining -= min_rem;
            std::vector<Job> still;
            for (const Job& j : jobs_) {
                if (j.remaining <= 1e-12) {
                    out.push_back({j.id, clock_});
                } else {
                    still.push_back(j);
                }
            }
            jobs_ = still;
        }
        clock_ = t;
    }

    bool cancel(std::uint64_t id) {
        const auto it = std::find_if(jobs_.begin(), jobs_.end(),
                                     [id](const Job& j) { return j.id == id; });
        if (it == jobs_.end()) return false;
        jobs_.erase(it);
        return true;
    }

    void drop_all(std::vector<std::uint64_t>& out) {
        for (const Job& j : jobs_) out.push_back(j.id);
        jobs_.clear();
    }

    [[nodiscard]] double next_completion_time() const {
        if (jobs_.empty()) return std::numeric_limits<double>::infinity();
        return clock_ + min_remaining() * static_cast<double>(jobs_.size()) / rate_;
    }

private:
    struct Job {
        std::uint64_t id = 0;
        double remaining = 0.0;
    };

    [[nodiscard]] double min_remaining() const {
        double m = jobs_.front().remaining;
        for (const Job& j : jobs_) m = std::min(m, j.remaining);
        return m;
    }

    double rate_;
    double clock_ = 0.0;
    std::vector<Job> jobs_;
};

bool same_completions(const std::vector<PsQueue::Completion>& a,
                      const std::vector<PsQueue::Completion>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const PsQueue::Completion& x, const PsQueue::Completion& y) {
                          return x.id == y.id && x.time == y.time;
                      });
}

TEST(PsQueue, CachedNextCompletionMatchesARescanAfterEveryOperation) {
    // A seeded random mix of admit / advance_to / cancel / drop_all.  Half
    // the demands and time steps come from a coarse grid and admissions
    // often share an instant, so exact-tie departures happen often.
    core::RngStream rng(20100219, "test.ps_queue.ops");
    const double rate = 1.5;
    PsQueue q(rate);
    RescanPsModel model(rate);
    const auto grid_or_exp = [&rng](double mean) {
        return rng.chance(0.5) ? 0.5 * static_cast<double>(rng.uniform_int(1, 4))
                               : rng.exponential(1.0 / mean);
    };
    double now = 0.0;
    std::uint64_t next_id = 1;
    std::vector<PsQueue::Completion> got, want;
    std::vector<std::uint64_t> got_ids, want_ids;
    std::uint64_t tied_departures = 0;
    const auto count_ties = [&tied_departures](const std::vector<PsQueue::Completion>& out) {
        for (std::size_t i = 1; i < out.size(); ++i) {
            if (out[i].time == out[i - 1].time) ++tied_departures;
        }
    };
    for (int op = 0; op < 20000; ++op) {
        const double u = rng.uniform01();
        if (u < 0.45) {
            // Callers drain departures up to the admission instant first.
            // Every other admission shares the previous one's instant.
            if (rng.chance(0.5)) now += grid_or_exp(0.5);
            got.clear();
            want.clear();
            q.advance_to(now, got);
            model.advance_to(now, want);
            ASSERT_TRUE(same_completions(got, want)) << "op " << op;
            count_ties(got);
            const double demand = grid_or_exp(1.0);
            q.admit(next_id, demand, now);
            model.admit(next_id, demand, now);
            ++next_id;
        } else if (u < 0.8) {
            now += grid_or_exp(1.0);
            got.clear();
            want.clear();
            q.advance_to(now, got);
            model.advance_to(now, want);
            ASSERT_TRUE(same_completions(got, want)) << "op " << op;
            count_ties(got);
        } else if (u < 0.97) {
            const auto id = static_cast<std::uint64_t>(
                rng.uniform_int(1, static_cast<std::int64_t>(next_id)));
            ASSERT_EQ(q.cancel(id), model.cancel(id)) << "op " << op;
        } else {
            got_ids.clear();
            want_ids.clear();
            q.drop_all(got_ids);
            model.drop_all(want_ids);
            ASSERT_EQ(got_ids, want_ids) << "op " << op;
        }
        ASSERT_EQ(q.next_completion_time(), model.next_completion_time()) << "op " << op;
    }
    EXPECT_GT(next_id, 5000u);
    EXPECT_GT(tied_departures, 100u);
}

TEST(ArrivalRate, DiurnalAndFlashCrowdCompose) {
    OpenLoopConfig cfg;
    cfg.base_rps = 1.0;
    cfg.diurnal_amplitude = 0.5;
    cfg.peak_hour = 12.0;
    const TimePoint noon = TimePoint::from_civil({2010, 3, 1, 12, 0, 0});
    const TimePoint midnight = TimePoint::from_date(2010, 3, 1);
    EXPECT_NEAR(arrival_rate(cfg, noon), 1.5, 1e-9);
    EXPECT_NEAR(arrival_rate(cfg, midnight), 0.5, 1e-9);

    cfg.flash_crowds = {{noon, core::Duration::hours(1), 4.0}};
    EXPECT_NEAR(arrival_rate(cfg, noon), 6.0, 1e-9);          // inside: x4
    EXPECT_NEAR(arrival_rate(cfg, midnight), 0.5, 1e-9);      // outside
    const TimePoint after = noon + core::Duration::hours(1);  // half-open end
    EXPECT_LT(arrival_rate(cfg, after), 2.0);
}

TEST(ArrivalRate, EnvelopeBoundsOverlappingFlashCrowds) {
    // Three crowds, two of them overlapping from 14:00 to 18:00: the rate
    // there is 3 x 2 times the diurnal curve, and the thinning envelope
    // must cover it at every instant.
    const TimePoint day = TimePoint::from_date(2010, 3, 1);
    OpenLoopConfig cfg;
    cfg.base_rps = 0.25;
    cfg.flash_crowds = {{day + Duration::hours(8), Duration::hours(10), 3.0},
                        {day + Duration::hours(14), Duration::hours(6), 2.0},
                        {day + Duration::hours(30), Duration::hours(2), 4.0}};
    const double envelope = rate_envelope(cfg);
    for (int s = 0; s <= 3 * 86400; s += 30) {
        const TimePoint t = day + Duration::seconds(s);
        EXPECT_LE(arrival_rate(cfg, t), envelope) << t.to_string();
    }

    // With no diurnal swing the envelope is attained exactly, inside the
    // overlap.
    cfg.diurnal_amplitude = 0.0;
    double highest = 0.0;
    for (int s = 0; s <= 3 * 86400; s += 30) {
        highest = std::max(highest, arrival_rate(cfg, day + Duration::seconds(s)));
    }
    EXPECT_EQ(highest, rate_envelope(cfg));
    EXPECT_EQ(highest, 0.25 * 3.0 * 2.0);
}

TEST(OpenLoopGenerator, OverlappingCrowdsGenerateTheirFullRate) {
    // Two identical 10 h crowds of 3.0 on a flat 0.25 rps: 2.25 rps inside
    // the window, so 81,000 expected arrivals there (Poisson, sigma ~285).
    OpenLoopConfig cfg;
    cfg.base_rps = 0.25;
    cfg.diurnal_amplitude = 0.0;
    const TimePoint start = kOrigin + Duration::days(1);
    const Duration window = Duration::hours(10);
    cfg.flash_crowds = {{start, window, 3.0}, {start, window, 3.0}};
    OpenLoopGenerator gen(cfg, /*master_seed=*/20100219, kOrigin);
    const auto from = static_cast<double>((start - kOrigin).count());
    const double to = from + static_cast<double>(window.count());
    std::uint64_t inside = 0;
    for (double t = gen.next_arrival(); t < to; t = gen.next_arrival()) {
        if (t >= from) ++inside;
    }
    const double expected = 2.25 * static_cast<double>(window.count());
    EXPECT_EQ(expected, 81000.0);
    EXPECT_NEAR(static_cast<double>(inside), expected, 5.0 * std::sqrt(expected));
}

}  // namespace
}  // namespace zerodeg::workload
