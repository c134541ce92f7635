// Closed-form queueing validation of the traffic engine.  A single-host
// TrafficEngine with exponential demands and Poisson arrivals (diurnal
// amplitude zero) *is* an M/M/1-PS queue, so its long-run mean sojourn time
// must converge to 1/(mu - lambda) and its utilization to rho = lambda/mu —
// textbook results the simulator has no way to know except by getting the
// dynamics right.  Closed-loop throughput is checked against the asymptotic
// bound min(N/(Z+R), mu), and cloning against its low-load advantage.
// The open-loop generator's squeezed thinning is replayed against an
// unsqueezed copy of the loop, arrival for arrival, bit for bit, and the
// one-pass PsQueue against a multi-pass copy, operation for operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/sim_time.hpp"
#include "experiment/config.hpp"
#include "workload/ps_queue.hpp"
#include "workload/request_gen.hpp"
#include "workload/slo.hpp"
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

/// The reference processor-sharing queue, in multi-pass form: the least
/// remaining work is rescanned before every departure, and again after
/// every operation to refresh the cached next departure.  PsQueue caches
/// that minimum and updates it inside the loops that already touch every
/// job; both must agree with this reference to the last bit.
class MultiPassPsQueue {
public:
    explicit MultiPassPsQueue(double rate)
        : rate_(rate), next_completion_(std::numeric_limits<double>::infinity()) {}

    void admit(std::uint64_t id, double demand, double now) {
        if (!jobs_.empty()) {
            const double dt = now - clock_;
            const double work = dt * rate_ / static_cast<double>(jobs_.size());
            for (Job& j : jobs_) j.remaining -= work;
            busy_seconds_ += dt;
        }
        clock_ = now;
        jobs_.push_back({id, demand});
        refresh_next_completion();
    }

    void advance_to(double t, std::vector<PsQueue::Completion>& out) {
        while (!jobs_.empty()) {
            const double n = static_cast<double>(jobs_.size());
            double min_rem = jobs_.front().remaining;
            for (const Job& j : jobs_) min_rem = std::min(min_rem, j.remaining);
            const double dt_to_departure = min_rem * n / rate_;
            if (clock_ + dt_to_departure > t) {
                const double dt = t - clock_;
                const double work = dt * rate_ / n;
                for (Job& j : jobs_) j.remaining -= work;
                busy_seconds_ += dt;
                clock_ = t;
                refresh_next_completion();
                return;
            }
            busy_seconds_ += dt_to_departure;
            clock_ += dt_to_departure;
            std::size_t kept = 0;
            for (Job& j : jobs_) {
                j.remaining -= min_rem;
                if (j.remaining <= 1e-12) {
                    out.push_back({j.id, clock_});
                } else {
                    jobs_[kept++] = j;
                }
            }
            jobs_.resize(kept);
        }
        clock_ = t;
        refresh_next_completion();
    }

    bool cancel(std::uint64_t id) {
        for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
            if (it->id == id) {
                jobs_.erase(it);
                refresh_next_completion();
                return true;
            }
        }
        return false;
    }

    void drop_all(std::vector<std::uint64_t>& out) {
        for (const Job& j : jobs_) out.push_back(j.id);
        jobs_.clear();
        refresh_next_completion();
    }

    [[nodiscard]] std::size_t in_service() const { return jobs_.size(); }
    [[nodiscard]] double clock() const { return clock_; }
    [[nodiscard]] double next_completion_time() const { return next_completion_; }

    double take_busy_seconds() {
        const double b = busy_seconds_;
        busy_seconds_ = 0.0;
        return b;
    }

private:
    struct Job {
        std::uint64_t id = 0;
        double remaining = 0.0;
    };

    void refresh_next_completion() {
        if (jobs_.empty()) {
            next_completion_ = std::numeric_limits<double>::infinity();
            return;
        }
        double min_rem = jobs_.front().remaining;
        for (const Job& j : jobs_) min_rem = std::min(min_rem, j.remaining);
        next_completion_ = clock_ + min_rem * static_cast<double>(jobs_.size()) / rate_;
    }

    double rate_;
    double clock_ = 0.0;
    double busy_seconds_ = 0.0;
    double next_completion_;
    std::vector<Job> jobs_;
};

/// A double's bit pattern, so equality tells -0.0 from +0.0.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool same_completions(const std::vector<PsQueue::Completion>& a,
                      const std::vector<PsQueue::Completion>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const PsQueue::Completion& x, const PsQueue::Completion& y) {
                          return x.id == y.id && bits(x.time) == bits(y.time);
                      });
}

TEST(PsQueue, CachedNextCompletionMatchesARescanAfterEveryOperation) {
    // A seeded random mix of admit / advance_to / cancel / drop_all.  Half
    // the demands and time steps come from a coarse grid and admissions
    // often share an instant, so exact-tie departures happen often.
    core::RngStream rng(20100219, "test.ps_queue.ops");
    const double rate = 1.5;
    PsQueue q(rate);
    MultiPassPsQueue model(rate);
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

TEST(PsQueue, OnePassMatchesTheMultiPassQueueBitForBit) {
    // Seeded admit / advance_to / cancel / drop_all sequences in rounds of
    // two phases: a burst that piles 200+ jobs into the queue, then a mixed
    // phase.  Demands come from a coarse grid (exact ties), from the grid
    // plus 4e-13 to 2e-12 (survivors left with a remnant just under or just
    // over the 1e-12 departure threshold), or from an exponential.  Some
    // advances land exactly on next_completion_time(), and some cancels
    // remove the job holding the minimum remaining work.  Every observable
    // is compared bit for bit after every operation.
    core::RngStream rng(20100219, "test.ps_queue.one_pass");
    const double rate = 1.25;
    PsQueue q(rate);
    MultiPassPsQueue ref(rate);
    const auto demand = [&rng]() -> double {
        const double grid = 0.5 * static_cast<double>(rng.uniform_int(1, 4));
        switch (rng.uniform_int(0, 4)) {
            case 0:
            case 1: return grid;
            case 2: return grid + 4e-13 * static_cast<double>(rng.uniform_int(1, 5));
            default: return rng.exponential(1.0);
        }
    };
    double now = 0.0;
    std::uint64_t next_id = 1;
    std::vector<PsQueue::Completion> got, want;
    std::vector<std::uint64_t> got_ids, want_ids;
    std::size_t deepest = 0;
    std::uint64_t tied_departures = 0, exact_advances = 0, min_cancels = 0;
    const auto advance_both = [&](double t) {
        got.clear();
        want.clear();
        q.advance_to(t, got);
        ref.advance_to(t, want);
        for (std::size_t i = 1; i < got.size(); ++i) {
            if (got[i].time == got[i - 1].time) ++tied_departures;
        }
        return same_completions(got, want);
    };
    const auto admit_both = [&]() {
        const double d = demand();
        q.admit(next_id, d, now);
        ref.admit(next_id, d, now);
        ++next_id;
    };
    for (int round = 0; round < 30; ++round) {
        for (int i = 0; i < 250; ++i) {
            if (rng.chance(0.3)) now += rng.exponential(1000.0);
            ASSERT_TRUE(advance_both(now)) << "round " << round << " burst " << i;
            admit_both();
            deepest = std::max(deepest, q.in_service());
        }
        for (int op = 0; op < 600; ++op) {
            const double u = rng.uniform01();
            if (u < 0.3) {
                if (rng.chance(0.5)) now += rng.exponential(2.0);
                ASSERT_TRUE(advance_both(now)) << "round " << round << " op " << op;
                admit_both();
            } else if (u < 0.55) {
                now += rng.exponential(1.0);
                ASSERT_TRUE(advance_both(now)) << "round " << round << " op " << op;
            } else if (u < 0.7) {
                // Land exactly on the next departure, then sometimes admit
                // at that very instant.
                if (q.in_service() == 0) continue;
                now = q.next_completion_time();
                ASSERT_TRUE(advance_both(now)) << "round " << round << " op " << op;
                ASSERT_FALSE(got.empty()) << "round " << round << " op " << op;
                ++exact_advances;
                if (rng.chance(0.5)) admit_both();
            } else if (u < 0.8) {
                // Cancel the job that would depart next: a copy of the queue
                // advanced to its next completion names it.
                if (q.in_service() == 0) continue;
                PsQueue peek = q;
                std::vector<PsQueue::Completion> next;
                peek.advance_to(q.next_completion_time(), next);
                ASSERT_FALSE(next.empty());
                const std::uint64_t id = next[rng.chance(0.5) ? 0 : next.size() - 1].id;
                ASSERT_TRUE(q.cancel(id));
                ASSERT_TRUE(ref.cancel(id));
                ++min_cancels;
            } else if (u < 0.997) {
                const auto id = static_cast<std::uint64_t>(
                    rng.uniform_int(1, static_cast<std::int64_t>(next_id)));
                ASSERT_EQ(q.cancel(id), ref.cancel(id)) << "round " << round << " op " << op;
            } else {
                got_ids.clear();
                want_ids.clear();
                q.drop_all(got_ids);
                ref.drop_all(want_ids);
                ASSERT_EQ(got_ids, want_ids) << "round " << round << " op " << op;
            }
            ASSERT_EQ(bits(q.clock()), bits(ref.clock())) << "round " << round << " op " << op;
            ASSERT_EQ(bits(q.next_completion_time()), bits(ref.next_completion_time()))
                << "round " << round << " op " << op;
            ASSERT_EQ(q.in_service(), ref.in_service()) << "round " << round << " op " << op;
            if (op % 50 == 0) {
                ASSERT_EQ(bits(q.take_busy_seconds()), bits(ref.take_busy_seconds()))
                    << "round " << round << " op " << op;
            }
        }
    }
    EXPECT_GE(deepest, 200u);
    EXPECT_GT(tied_departures, 100u);
    EXPECT_GT(exact_advances, 1000u);
    EXPECT_GT(min_cancels, 1000u);
}

TEST(PsQueue, RejectsNaNTimesAndNonFiniteDemands) {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    PsQueue q(/*service_rate=*/1.0);
    q.admit(1, 2.0, 1.0);
    std::vector<PsQueue::Completion> done;
    EXPECT_THROW(q.advance_to(kNaN, done), core::InvalidArgument);
    EXPECT_THROW(q.advance_to(0.5, done), core::InvalidArgument);
    EXPECT_THROW(q.admit(2, 1.0, kNaN), core::InvalidArgument);
    EXPECT_THROW(q.admit(3, kInf, 1.0), core::InvalidArgument);
    EXPECT_THROW(q.admit(4, kNaN, 1.0), core::InvalidArgument);
    EXPECT_THROW(q.admit(5, 0.0, 1.0), core::InvalidArgument);
    // The rejected calls left the queue as it was.
    EXPECT_TRUE(done.empty());
    EXPECT_EQ(q.clock(), 1.0);
    EXPECT_EQ(q.in_service(), 1u);
    EXPECT_EQ(q.next_completion_time(), 3.0);
}

TEST(SloTracker, RejectsNaNNegativeAndInfiniteSojourns) {
    SloTracker slo(/*deadline_seconds=*/60.0);
    slo.record(1.5);
    slo.record(0.0);  // an instant response is a valid sojourn
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -5.0,
                             std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(slo.record(bad), core::InvalidArgument) << bad;
    }
    EXPECT_EQ(slo.completed(), 2u);
    EXPECT_EQ(slo.mean_sojourn_seconds(), 0.75);
}

TEST(SloTracker, RenderedQuantilesReadEachTicksOwnCompletions) {
    // Three ticks: three unsorted completions, none, then one.  Each CSV
    // row's quantiles come from its own tick's completions only.
    SloTracker slo(/*deadline_seconds=*/2.5);
    slo.record(3.0);
    slo.record(1.0);
    slo.record(2.0);
    slo.close_tick(kOrigin + Duration::minutes(10), 0.5);
    slo.record_dropped();
    slo.close_tick(kOrigin + Duration::minutes(20), 0.0);
    slo.record(10.0);
    slo.close_tick(kOrigin + Duration::minutes(30), 0.25);
    ASSERT_EQ(slo.tick_rows().size(), 3u);
    EXPECT_EQ(slo.tick_rows()[2].first_sojourn, 3u);
    const std::string csv = render_slo_csv(slo);
    const std::vector<std::string> want = {
        "time,completed,dropped,deadline_misses,p50_s,p95_s,p99_s,mean_utilization",
        (kOrigin + Duration::minutes(10)).to_string() +
            ",3,0,1,2.000000,2.900000,2.980000,0.500000",
        (kOrigin + Duration::minutes(20)).to_string() +
            ",0,1,1,0.000000,0.000000,0.000000,0.000000",
        (kOrigin + Duration::minutes(30)).to_string() +
            ",1,0,1,10.000000,10.000000,10.000000,0.250000",
    };
    std::string expected;
    for (const std::string& line : want) expected += line + "\n";
    EXPECT_EQ(csv, expected);
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

/// The thinning loop without the squeeze: every candidate evaluates
/// arrival_rate.  Same stream and the same two draws per candidate, in the
/// same order, as OpenLoopGenerator.
class UnsqueezedThinning {
public:
    UnsqueezedThinning(OpenLoopConfig config, std::uint64_t master_seed, TimePoint origin)
        : config_(std::move(config)),
          origin_(origin),
          rng_(master_seed, "traffic.arrivals"),
          rate_max_(rate_envelope(config_)) {}

    double next_arrival() {
        for (;;) {
            ++candidates_;
            t_ += rng_.exponential(rate_max_);
            const TimePoint at = origin_ + Duration::seconds(static_cast<std::int64_t>(t_));
            const double accept = arrival_rate(config_, at) / rate_max_;
            if (rng_.uniform01() < accept) return t_;
        }
    }

    [[nodiscard]] std::uint64_t candidates() const { return candidates_; }

private:
    OpenLoopConfig config_;
    TimePoint origin_;
    core::RngStream rng_;
    double rate_max_;
    double t_ = 0.0;
    std::uint64_t candidates_ = 0;
};

struct SqueezeCase {
    const char* name;
    OpenLoopConfig config;
    TimePoint origin;
};

/// Thinning buckets are 600 whole seconds counted from the origin; crowds
/// below start or end on those edges, one second off them, inside buckets,
/// and overlap, under three amplitudes and peak hours at either end of the
/// day (and one far outside it).
std::vector<SqueezeCase> squeeze_cases() {
    std::vector<SqueezeCase> cases;
    {
        // Flat curve: the crowds alone shape the rate.
        const TimePoint o = kOrigin;
        OpenLoopConfig c;
        c.base_rps = 1.2;
        c.diurnal_amplitude = 0.0;
        c.peak_hour = 0.0;
        c.flash_crowds = {{o - Duration::hours(1), Duration::hours(3), 2.5},  // active at t = 0
                          {o + Duration::hours(5), Duration::hours(2), 1.7},  // on bucket edges
                          {o + Duration::hours(6) + Duration::seconds(123),
                           Duration::hours(1) + Duration::seconds(17), 2.3},  // mid-bucket
                          {o + Duration::hours(20), Duration::minutes(10), 3.1}};
        cases.push_back({"amp0_peak0_midnight", c, o});
    }
    {
        // Origin mid-afternoon: buckets straddle midnight, and the day's
        // maximum sits 36 s before it.
        const TimePoint o = TimePoint::from_civil({2010, 2, 19, 13, 47, 23});
        OpenLoopConfig c;
        c.base_rps = 1.5;
        c.diurnal_amplitude = 0.4;
        c.peak_hour = 23.99;
        c.flash_crowds = {{o - Duration::seconds(600), Duration::hours(1), 3.0},
                          {o + Duration::hours(9) + Duration::seconds(77), Duration::hours(3), 1.9},
                          {o + Duration::hours(10), Duration::hours(1) + Duration::seconds(599),
                           1.3},
                          {o + Duration::hours(10) + Duration::seconds(1), Duration::minutes(50),
                           2.1},
                          {o + Duration::hours(18), Duration::hours(2), 2.7}};
        cases.push_back({"amp04_peak2399_afternoon", c, o});
    }
    {
        // Nearly the full swing: at the trough the rate is 1% of its mean.
        const TimePoint o = kOrigin + Duration::seconds(299);
        OpenLoopConfig c;
        c.base_rps = 2.0;
        c.diurnal_amplitude = 0.99;
        c.peak_hour = 0.0;
        c.flash_crowds = {{o, Duration::hours(4), 1.6},
                          {o + Duration::hours(2) + Duration::seconds(300), Duration::hours(4),
                           2.2},
                          {o + Duration::hours(3) + Duration::seconds(599), Duration::seconds(1),
                           4.0},
                          {o + Duration::hours(12), Duration::hours(1), 1.45}};
        cases.push_back({"amp099_peak0_offset", c, o});
    }
    {
        // A peak hour so far out that the phase is one constant double, well
        // past the range where multiples of pi can be located.
        OpenLoopConfig c;
        c.base_rps = 1.5;
        c.diurnal_amplitude = 0.4;
        c.peak_hour = 1e18;
        c.flash_crowds = {{kOrigin + Duration::hours(3), Duration::hours(2), 2.0}};
        cases.push_back({"amp04_far_peak_hour", c, kOrigin});
    }
    return cases;
}

TEST(OpenLoopGenerator, SqueezedArrivalsMatchAnUnsqueezedRescanBitForBit) {
    for (const SqueezeCase& sc : squeeze_cases()) {
        OpenLoopGenerator gen(sc.config, /*master_seed=*/20100219, sc.origin);
        UnsqueezedThinning ref(sc.config, /*master_seed=*/20100219, sc.origin);
        constexpr std::uint64_t kArrivals = 150000;
        for (std::uint64_t i = 0; i < kArrivals; ++i) {
            ASSERT_EQ(gen.next_arrival(), ref.next_arrival()) << sc.name << " arrival " << i;
        }
        const ThinningCounts& n = gen.counts();
        EXPECT_EQ(n.candidates, ref.candidates()) << sc.name;
        EXPECT_EQ(n.accepted, kArrivals) << sc.name;
        // The band between the bounds is exercised, not only the squeeze.
        EXPECT_GT(n.exact_evaluations, 0u) << sc.name;
    }
}

TEST(AcceptanceBounds, CoverTheRateAtEverySecond) {
    // Every second of two days, under spans of one bucket (the generator's)
    // and of a whole day less a second (several cos extrema inside).
    for (const SqueezeCase& sc : squeeze_cases()) {
        const double envelope = rate_envelope(sc.config);
        for (const std::int64_t span : {std::int64_t{600}, std::int64_t{86399}}) {
            std::uint64_t uncovered = 0;
            for (std::int64_t first = 0; first < 2 * 86400; first += span) {
                const TimePoint a = sc.origin + Duration::seconds(first);
                const TimePoint b = a + Duration::seconds(span - 1);
                const AcceptanceBounds bounds = acceptance_bounds(sc.config, envelope, a, b);
                for (TimePoint t = a; t <= b; t += Duration::seconds(1)) {
                    const double ratio = arrival_rate(sc.config, t) / envelope;
                    if (!(bounds.lo <= ratio && ratio <= bounds.hi)) ++uncovered;
                }
            }
            EXPECT_EQ(uncovered, 0u) << sc.name << " span " << span;
        }
    }
}

/// Each entry breaks one open-loop knob so the thinning loop could never
/// return: a NaN acceptance ratio, or an infinite envelope.
std::vector<std::pair<const char*, void (*)(OpenLoopConfig&)>> bad_open_loop_knobs() {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    return {
        {"base_rps NaN", [](OpenLoopConfig& c) { c.base_rps = kNaN; }},
        {"base_rps inf", [](OpenLoopConfig& c) { c.base_rps = kInf; }},
        {"amplitude NaN", [](OpenLoopConfig& c) { c.diurnal_amplitude = kNaN; }},
        {"peak_hour NaN", [](OpenLoopConfig& c) { c.peak_hour = kNaN; }},
        {"peak_hour inf", [](OpenLoopConfig& c) { c.peak_hour = -kInf; }},
        {"multiplier inf",
         [](OpenLoopConfig& c) { c.flash_crowds = {{kOrigin, Duration::hours(1), kInf}}; }},
        {"multiplier NaN",
         [](OpenLoopConfig& c) { c.flash_crowds = {{kOrigin, Duration::hours(1), kNaN}}; }},
        {"multiplier below 1",
         [](OpenLoopConfig& c) { c.flash_crowds = {{kOrigin, Duration::hours(1), 0.5}}; }},
        {"empty crowd", [](OpenLoopConfig& c) { c.flash_crowds = {{kOrigin, Duration{0}, 2.0}}; }},
        {"envelope overflow",
         [](OpenLoopConfig& c) {
             c.base_rps = 1e300;
             c.flash_crowds = {{kOrigin, Duration::hours(1), 1e10}};
         }},
    };
}

TEST(OpenLoopGenerator, RejectsKnobsThatWouldHangTheLoop) {
    for (const auto& [name, breaks] : bad_open_loop_knobs()) {
        OpenLoopConfig open;
        breaks(open);
        EXPECT_THROW(OpenLoopGenerator(open, 1, kOrigin), core::InvalidArgument) << name;

        experiment::ExperimentConfig cfg;
        cfg.traffic.open = open;
        EXPECT_THROW(experiment::validate(cfg), core::InvalidArgument) << name;
    }
}

TEST(ExperimentConfig, RejectsNonFiniteTrafficKnobs) {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::vector<std::pair<const char*, void (*)(TrafficConfig&)>> bad = {
        {"service_rate NaN", [](TrafficConfig& t) { t.service_rate = kNaN; }},
        {"service_rate inf", [](TrafficConfig& t) { t.service_rate = kInf; }},
        {"mean_demand_seconds NaN", [](TrafficConfig& t) { t.mean_demand_seconds = kNaN; }},
        {"deadline_seconds NaN", [](TrafficConfig& t) { t.deadline_seconds = kNaN; }},
        {"think_seconds NaN", [](TrafficConfig& t) { t.closed.think_seconds = kNaN; }},
    };
    experiment::validate(experiment::ExperimentConfig{});  // the defaults pass
    for (const auto& [name, breaks] : bad) {
        experiment::ExperimentConfig cfg;
        breaks(cfg.traffic);
        EXPECT_THROW(experiment::validate(cfg), core::InvalidArgument) << name;
    }
}

}  // namespace
}  // namespace zerodeg::workload
