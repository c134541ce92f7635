#include "core/event_queue.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"

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

}  // namespace
}  // namespace zerodeg::core
