#include "core/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace zerodeg::core {
namespace {

TimePoint at(std::int64_t s) { return TimePoint{s}; }

TEST(EventQueue, RunsInTimeOrder) {
    Simulator sim(at(0));
    std::vector<int> order;
    sim.schedule_at(at(30), [&] { order.push_back(3); });
    sim.schedule_at(at(10), [&] { order.push_back(1); });
    sim.schedule_at(at(20), [&] { order.push_back(2); });
    sim.run_until(at(100));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), at(100));
}

TEST(EventQueue, TiesAreFifo) {
    Simulator sim(at(0));
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        sim.schedule_at(at(10), [&order, i] { order.push_back(i); });
    }
    sim.run_until(at(10));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ClockAdvancesDuringCallbacks) {
    Simulator sim(at(0));
    TimePoint seen;
    sim.schedule_at(at(42), [&] { seen = sim.now(); });
    sim.run_until(at(100));
    EXPECT_EQ(seen, at(42));
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
    Simulator sim(at(0));
    int fired = 0;
    sim.schedule_at(at(50), [&] { ++fired; });
    sim.schedule_at(at(150), [&] { ++fired; });
    sim.run_until(at(100));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.run_until(at(200));
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, Recurring) {
    Simulator sim(at(0));
    int count = 0;
    sim.schedule_every(at(0), Duration::seconds(10), [&] { ++count; });
    sim.run_until(at(95));
    EXPECT_EQ(count, 10);  // t = 0, 10, ..., 90
}

TEST(EventQueue, RecurringCancelFromInside) {
    Simulator sim(at(0));
    int count = 0;
    EventId id = 0;
    id = sim.schedule_every(at(0), Duration::seconds(10), [&] {
        if (++count == 3) sim.cancel(id);
    });
    sim.run_until(at(1000));
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, CancelPending) {
    Simulator sim(at(0));
    bool fired = false;
    const EventId id = sim.schedule_at(at(10), [&] { fired = true; });
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.cancel(id));  // double-cancel reports false
    sim.run_until(at(100));
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFiringIsFalse) {
    Simulator sim(at(0));
    int fired = 0;
    const EventId id = sim.schedule_at(at(10), [&] { ++fired; });
    sim.schedule_at(at(50), [] {});
    sim.run_until(at(20));
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(sim.cancel(id));  // a fired one-shot is no longer queued
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.run_until(at(100));
    EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EventQueue, RunUntilSkipsACancelledHeadWithoutOverrunning) {
    Simulator sim(at(0));
    int fired = 0;
    const EventId early = sim.schedule_at(at(10), [&] { ++fired; });
    sim.schedule_at(at(200), [&] { ++fired; });
    EXPECT_TRUE(sim.cancel(early));
    sim.run_until(at(100));
    EXPECT_EQ(fired, 0);  // the +200 s event is beyond the horizon
    EXPECT_EQ(sim.now(), at(100));
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.run_until(at(200));
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelUnknownIsFalse) {
    Simulator sim(at(0));
    EXPECT_FALSE(sim.cancel(12345));
    EXPECT_FALSE(sim.cancel(0));
}

TEST(EventQueue, EventsScheduledDuringRun) {
    Simulator sim(at(0));
    std::vector<int> order;
    sim.schedule_at(at(10), [&] {
        order.push_back(1);
        sim.schedule_at(at(20), [&] { order.push_back(2); });
    });
    sim.run_until(at(100));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, SchedulingInPastThrows) {
    Simulator sim(at(100));
    EXPECT_THROW(sim.schedule_at(at(50), [] {}), InvalidArgument);
    EXPECT_THROW(sim.schedule_every(at(50), Duration::seconds(10), [] {}), InvalidArgument);
}

TEST(EventQueue, EmptyCallbackThrows) {
    Simulator sim(at(0));
    EXPECT_THROW(sim.schedule_at(at(10), Simulator::Callback{}), InvalidArgument);
}

TEST(EventQueue, NonPositivePeriodThrows) {
    Simulator sim(at(0));
    EXPECT_THROW(sim.schedule_every(at(10), Duration::seconds(0), [] {}), InvalidArgument);
    EXPECT_THROW(sim.schedule_every(at(10), Duration::seconds(-5), [] {}), InvalidArgument);
}

TEST(EventQueue, StepOneAtATime) {
    Simulator sim(at(0));
    int fired = 0;
    sim.schedule_at(at(10), [&] { ++fired; });
    sim.schedule_at(at(20), [&] { ++fired; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(EventQueue, ScheduleInIsRelative) {
    Simulator sim(at(1000));
    TimePoint when;
    sim.schedule_in(Duration::seconds(50), [&] { when = sim.now(); });
    sim.run_until(at(2000));
    EXPECT_EQ(when, at(1050));
}

TEST(EventQueue, PendingCountExcludesCancelled) {
    Simulator sim(at(0));
    const EventId a = sim.schedule_at(at(10), [] {});
    sim.schedule_at(at(20), [] {});
    EXPECT_EQ(sim.pending_events(), 2u);
    sim.cancel(a);
    EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(EventQueue, RankedEventsRunAsOfTheirStamp) {
    Simulator sim(at(0));
    std::vector<std::string> order;
    const auto log = [&order](const char* name) { return [&order, name] { order.push_back(name); }; };
    sim.schedule_ranked(at(20), at(10), 7, log("ranked 7"));
    sim.schedule_ranked(at(20), at(10), 3, log("ranked 3"));
    sim.schedule_ranked(at(19), at(10), 9, log("earlier time"));
    sim.schedule_ranked(at(20), at(5), 9, log("earlier stamp"));
    sim.schedule_at(at(20), log("stamped 0"));
    // Stamped 10, the ranked events' own stamp: ordinary events go first,
    // even though these are queued after the ranked ones.
    sim.schedule_at(at(10), [&] { sim.schedule_at(at(20), log("stamped 10")); });
    sim.schedule_at(at(15), [&] { sim.schedule_at(at(20), log("stamped 15")); });
    sim.run_until(at(100));
    EXPECT_EQ(order, (std::vector<std::string>{"earlier time", "stamped 0", "earlier stamp",
                                               "stamped 10", "ranked 3", "ranked 7",
                                               "stamped 15"}));
}

TEST(EventQueue, RankedEventAsOfNowFollowsTheOrdinaryOnesOfNow) {
    Simulator sim(at(0));
    std::vector<int> order;
    sim.schedule_ranked(at(0), at(0), 0, [&] { order.push_back(2); });
    sim.schedule_at(at(0), [&] { order.push_back(1); });
    sim.run_until(at(0));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RankedPreconditions) {
    Simulator sim(at(100));
    EXPECT_THROW(sim.schedule_ranked(at(200), at(50), 0, [] {}), InvalidArgument);   // as_of < now
    EXPECT_THROW(sim.schedule_ranked(at(150), at(160), 0, [] {}), InvalidArgument);  // when < as_of
    EXPECT_THROW(sim.schedule_ranked(at(150), at(120), Simulator::kRankedSeq, [] {}),
                 InvalidArgument);
    EXPECT_THROW(sim.schedule_ranked(at(150), at(120), 0, Simulator::Callback{}),
                 InvalidArgument);
    EXPECT_EQ(sim.pending_events(), 0u);
    bool fired = false;
    const EventId id =
        sim.schedule_ranked(at(100), at(100), Simulator::kRankedSeq - 1, [&] { fired = true; });
    EXPECT_EQ(sim.pending_events(), 1u);
    EXPECT_TRUE(sim.cancel(id));
    sim.run_until(at(200));
    EXPECT_FALSE(fired);
}

TEST(EventQueue, RequeuedEventKeepsItsIdAndRunsAgain) {
    Simulator sim(at(0));
    std::vector<std::int64_t> times;
    EventId id = 0;
    id = sim.schedule_ranked(at(5), at(0), 1, [&] {
        times.push_back(sim.now().seconds_since_epoch());
        if (times.size() < 3) {
            const TimePoint next = sim.now() + Duration::seconds(10);
            sim.requeue_ranked(next + Duration::seconds(1), next, 1);
            EXPECT_THROW(sim.requeue_ranked(next, next, 1), InvalidArgument);  // once per run
        }
    });
    sim.run_until(at(20));
    EXPECT_EQ(times, (std::vector<std::int64_t>{5, 16}));
    EXPECT_EQ(sim.pending_events(), 1u);
    EXPECT_TRUE(sim.cancel(id));  // the id still names the requeued event
    sim.run_until(at(100));
    EXPECT_EQ(times.size(), 2u);
}

TEST(EventQueue, RequeueNeedsARunningOneShotEvent) {
    Simulator sim(at(0));
    EXPECT_THROW(sim.requeue_ranked(at(10), at(10), 0), InvalidArgument);
    sim.schedule_at(at(1), [] {});
    sim.run_until(at(2));
    EXPECT_THROW(sim.requeue_ranked(at(10), at(10), 0), InvalidArgument);  // it has finished
    bool threw = false;
    const EventId every = sim.schedule_every(at(5), Duration::seconds(5), [&] {
        try {
            sim.requeue_ranked(at(50), at(50), 0);
        } catch (const InvalidArgument&) {
            threw = true;
        }
    });
    sim.run_until(at(5));
    EXPECT_TRUE(threw);
    EXPECT_TRUE(sim.cancel(every));
    // Requeued and cancelled in one run: it does not run again.
    int runs = 0;
    EventId self = 0;
    self = sim.schedule_at(at(6), [&] {
        ++runs;
        EXPECT_THROW(sim.requeue_ranked(at(7), at(5), 0), InvalidArgument);  // as_of < now
        sim.requeue_ranked(at(7), at(7), 0);
        EXPECT_TRUE(sim.cancel(self));
    });
    sim.run_until(at(100));
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(sim.pending_events(), 0u);
}

// Under ASan, a callback run from storage that moved when the slot table
// grew would read its captures from freed memory after the loop below.  The
// captures fit std::function's inline buffer, so they live in the slot.
TEST(EventQueue, CallbackThatGrowsTheSlotTableKeepsItsCaptures) {
    Simulator sim(at(0));
    std::vector<int> order;
    sim.schedule_at(at(10), [&sim, &order] {
        for (int i = 0; i < 300; ++i) {
            sim.schedule_at(at(20), [&order, i] { order.push_back(i); });
        }
        order.push_back(-1);
    });
    int rounds = 0;
    const EventId every = sim.schedule_every(at(30), Duration::seconds(10), [&sim, &rounds] {
        for (int i = 0; i < 300; ++i) sim.schedule_in(Duration::seconds(1), [] {});
        ++rounds;
    });
    sim.run_until(at(50));
    ASSERT_EQ(order.size(), 301u);
    EXPECT_EQ(order.front(), -1);
    for (int i = 0; i < 300; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
    EXPECT_EQ(rounds, 3);
    EXPECT_TRUE(sim.cancel(every));
    EXPECT_EQ(sim.events_executed(), 1u + 300u + 3u + 600u);
}

TEST(EventQueue, PeriodicEventCancelsItselfAndFreesItsSlot) {
    Simulator sim(at(0));
    int count = 0;
    bool cancelled_inside = false;
    EventId id = 0;
    id = sim.schedule_every(at(0), Duration::seconds(10), [&] {
        if (++count == 3) cancelled_inside = sim.cancel(id);
    });
    sim.run_until(at(25));
    EXPECT_TRUE(cancelled_inside);
    EXPECT_EQ(sim.pending_events(), 0u);
    EXPECT_FALSE(sim.cancel(id));
    sim.run_until(at(1000));
    EXPECT_EQ(count, 3);
    // The cancelled key left the heap at t = 30, so its slot is free again.
    const EventId next = sim.schedule_in(Duration::seconds(5), [] {});
    EXPECT_EQ(static_cast<std::uint32_t>(next), static_cast<std::uint32_t>(id));
    EXPECT_FALSE(sim.cancel(id));
    EXPECT_TRUE(sim.cancel(next));
}

TEST(EventQueue, CancelOfAFiredIdIsFalseAfterItsSlotIsReused) {
    Simulator sim(at(0));
    int fired = 0;
    const EventId first = sim.schedule_at(at(10), [&] { ++fired; });
    sim.run_until(at(10));
    const EventId second = sim.schedule_at(at(20), [&] { fired += 10; });
    ASSERT_EQ(static_cast<std::uint32_t>(second), static_cast<std::uint32_t>(first));
    EXPECT_NE(second, first);
    EXPECT_FALSE(sim.cancel(first));
    sim.run_until(at(30));
    EXPECT_EQ(fired, 11);
    EXPECT_FALSE(sim.cancel(second));
}

// --- the compact heap against the engine it replaced ------------------------

/// The event engine before compact keys: one (when, seq) heap of whole
/// events, each carrying its callback, and a list of cancelled ids.
class ReferenceSimulator {
public:
    explicit ReferenceSimulator(TimePoint start) : now_(start) {}

    [[nodiscard]] TimePoint now() const { return now_; }

    EventId schedule_at(TimePoint when, std::function<void()> fn) {
        return push(when, Duration{0}, std::move(fn));
    }
    EventId schedule_every(TimePoint first, Duration period, std::function<void()> fn) {
        return push(first, period, std::move(fn));
    }

    bool cancel(EventId id) {
        if (std::find(cancelled_.begin(), cancelled_.end(), id) != cancelled_.end()) return false;
        const bool queued = std::any_of(heap_.begin(), heap_.end(),
                                        [id](const Event& ev) { return ev.id == id; });
        if (queued) cancelled_.push_back(id);
        return queued;
    }

    void run_until(TimePoint until) {
        for (;;) {
            while (!heap_.empty()) {
                const auto it = std::find(cancelled_.begin(), cancelled_.end(), heap_.front().id);
                if (it == cancelled_.end()) break;
                cancelled_.erase(it);
                (void)pop();
            }
            if (heap_.empty() || heap_.front().when > until) break;
            Event ev = pop();
            now_ = ev.when;
            if (ev.period.count() > 0) {
                heap_push(Event{ev.when + ev.period, next_seq_++, ev.id, ev.fn, ev.period});
            }
            ev.fn();
        }
        if (until > now_) now_ = until;
    }

private:
    struct Event {
        TimePoint when;
        std::uint64_t seq = 0;
        EventId id = 0;
        std::function<void()> fn;
        Duration period{0};

        bool operator>(const Event& rhs) const {
            if (when != rhs.when) return when > rhs.when;
            return seq > rhs.seq;
        }
    };

    TimePoint now_;
    std::vector<Event> heap_;
    std::uint64_t next_seq_ = 0;
    EventId next_id_ = 1;
    std::vector<EventId> cancelled_;

    EventId push(TimePoint when, Duration period, std::function<void()> fn) {
        const EventId id = next_id_++;
        heap_push(Event{when, next_seq_++, id, std::move(fn), period});
        return id;
    }
    void heap_push(Event ev) {
        heap_.push_back(std::move(ev));
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    Event pop() {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        Event ev = std::move(heap_.back());
        heap_.pop_back();
        return ev;
    }
};

/// What a random program did: each firing's (time, label), then the result
/// of each cancel it made.
struct Trace {
    std::vector<std::pair<TimePoint, int>> fired;
    std::vector<bool> cancels;
};

/// A seeded random program of one-shot and recurring events, cancels, and
/// scheduling from inside callbacks.  Its choices are drawn in firing
/// order, so two engines make the same choices as long as they fire alike.
template <class Sim>
Trace run_program(std::uint64_t seed) {
    Sim sim(at(0));
    RngStream rng(seed, "event-queue.program");
    Trace trace;
    std::vector<EventId> ids;  // by label
    int budget = 300;
    std::function<void()> spawn = [&] {
        --budget;
        const int label = static_cast<int>(ids.size());
        const auto body = [&, label] {
            trace.fired.emplace_back(sim.now(), label);
            for (std::int64_t n = rng.uniform_int(0, 2); n > 0 && budget > 0; --n) spawn();
            if (rng.chance(0.25)) {
                const auto victim = rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1);
                trace.cancels.push_back(sim.cancel(ids[static_cast<std::size_t>(victim)]));
            }
        };
        const TimePoint when = sim.now() + Duration::seconds(rng.uniform_int(0, 12));
        if (rng.chance(0.2)) {
            ids.push_back(
                sim.schedule_every(when, Duration::seconds(rng.uniform_int(1, 15)), body));
        } else {
            ids.push_back(sim.schedule_at(when, body));
        }
    };
    for (int i = 0; i < 20; ++i) spawn();
    sim.run_until(at(400));
    return trace;
}

TEST(EventQueue, RandomProgramsFireInTheReferenceOrder) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        const Trace got = run_program<Simulator>(seed);
        const Trace want = run_program<ReferenceSimulator>(seed);
        ASSERT_GT(want.fired.size(), 300u);
        const auto tied = std::adjacent_find(
            want.fired.begin(), want.fired.end(),
            [](const auto& a, const auto& b) { return a.first == b.first; });
        EXPECT_NE(tied, want.fired.end()) << "the program should tie some events";
        EXPECT_NE(std::find(want.cancels.begin(), want.cancels.end(), true), want.cancels.end());
        EXPECT_EQ(got.fired, want.fired);
        EXPECT_EQ(got.cancels, want.cancels);
    }
}

}  // namespace
}  // namespace zerodeg::core
