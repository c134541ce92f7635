// Discrete-event simulation engine.
//
// The whole experiment is event-driven: weather ticks, thermal integration
// steps, each host's 10-minute workload cycle (with its 0-119 s start fuzz),
// the monitor's 20-minute collection sweep, fault arrivals, and the operator
// interventions (tent modifications, host replacement) are all events on one
// queue.  Ties are broken by insertion order so runs are fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/sim_time.hpp"

namespace zerodeg::core {

/// Handle used to cancel a scheduled event.
using EventId = std::uint64_t;

/// The simulation event loop.
class Simulator {
public:
    using Callback = std::function<void()>;

    explicit Simulator(TimePoint start = TimePoint{}) : now_(start) {}

    [[nodiscard]] TimePoint now() const { return now_; }

    /// Schedule `fn` to run at absolute time `when` (>= now).
    EventId schedule_at(TimePoint when, Callback fn);

    /// Schedule `fn` to run `delay` from now.
    EventId schedule_in(Duration delay, Callback fn) {
        return schedule_at(now_ + delay, std::move(fn));
    }

    /// Schedule `fn` every `period`, first firing at `first`.  The callback
    /// may call cancel() on the returned id to stop the recurrence.
    EventId schedule_every(TimePoint first, Duration period, Callback fn);

    /// Cancel a queued (or recurring) event.  Returns false if it is not
    /// queued: already fired and non-recurring, already cancelled, or unknown.
    bool cancel(EventId id);

    /// Run all events with time <= `until`; the clock ends at `until`.
    void run_until(TimePoint until);

    /// Run a single event; returns false if the queue is empty.
    bool step();

    [[nodiscard]] std::size_t pending_events() const;
    [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

private:
    struct Event {
        TimePoint when;
        std::uint64_t seq = 0;  ///< tie-breaker: FIFO among equal timestamps
        EventId id = 0;
        Callback fn;
        Duration period{0};  ///< zero => one-shot

        bool operator>(const Event& rhs) const {
            if (when != rhs.when) return when > rhs.when;
            return seq > rhs.seq;
        }
    };

    TimePoint now_;
    std::vector<Event> heap_;  ///< min-heap on (when, seq)
    std::uint64_t next_seq_ = 0;
    EventId next_id_ = 1;
    std::uint64_t executed_ = 0;
    std::vector<EventId> cancelled_;  ///< queued but cancelled; small, scanned linearly

    void push(Event ev);
    [[nodiscard]] Event pop();
    /// Discard cancelled events sitting at the top of the heap.
    void drop_cancelled_head();
};

}  // namespace zerodeg::core
