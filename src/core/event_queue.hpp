// Discrete-event simulation engine.
//
// The whole experiment is event-driven: weather ticks, thermal integration
// steps, each host's 10-minute workload cycle (with its 0-119 s start fuzz),
// the monitor's 20-minute collection sweep, fault arrivals, and the operator
// interventions (tent modifications, host replacement) are all events on one
// queue.
//
// Order.  Events run in (when, stamp, seq) order, so runs are fully
// deterministic:
//  - `stamp` is the sim time an event is logically scheduled at.  Every
//    ordinary push (schedule_at, schedule_in, a schedule_every re-push)
//    stamps `now`; schedule_ranked stamps a later instant `as_of`.
//  - `seq` breaks ties within one stamp.  An ordinary push takes the next
//    value of a counter that only rises, and it rises with sim time, so
//    among ordinary events the order is insertion order (FIFO).
//  - A ranked push's seq is kRankedSeq + rank, above every counter value:
//    the ranked events of one (when, stamp) run after its ordinary ones, in
//    rank order.  A ranked event never overtakes an ordinary event of the
//    same (when, stamp), whenever that one was queued.
//
// Storage.  The heap holds small keys (when, stamp, seq, slot).  Callbacks
// live in a slot table beside it; a slot is reused through a free list once
// its event has run or its cancelled key has left the heap.  A recurring
// event re-pushes only its key and keeps its slot, and so does a one-shot
// event that requeues itself.  Callbacks may schedule
// events while they run, which grows the table, so slots live in a deque:
// the callback being run never moves.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/sim_time.hpp"

namespace zerodeg::core {

/// Handle used to cancel a scheduled event.  It names its slot and the
/// slot's generation, so it goes stale when the slot is reused.
using EventId = std::uint64_t;

/// The simulation event loop.
class Simulator {
public:
    using Callback = std::function<void()>;

    /// The seq of rank 0 (see the header comment); ranks lie below
    /// 2^64 - kRankedSeq.
    static constexpr std::uint64_t kRankedSeq = std::uint64_t{1} << 63;

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

    /// Schedule `fn` at `when` as though it had been scheduled at the later
    /// instant `as_of` (now <= as_of <= when), placed by `rank` among the
    /// ranked events of the same (when, as_of) and after the ordinary ones.
    EventId schedule_ranked(TimePoint when, TimePoint as_of, std::uint64_t rank, Callback fn);

    /// Called by the one-shot event now running: queue it again as
    /// schedule_ranked would, keeping its callback, slot and id.
    void requeue_ranked(TimePoint when, TimePoint as_of, std::uint64_t rank);

    /// Cancel a queued (or recurring) event.  Returns false if it is not
    /// queued: already fired and non-recurring, already cancelled, or unknown.
    bool cancel(EventId id);

    /// Run all events with time <= `until`; the clock ends at `until`.
    void run_until(TimePoint until);

    /// Run a single event; returns false if the queue is empty.
    bool step();

    [[nodiscard]] std::size_t pending_events() const { return heap_.size() - cancelled_; }
    [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

private:
    struct Key {
        TimePoint when;
        TimePoint stamp;
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;
    };

    enum class SlotState : std::uint8_t { kFree, kQueued, kRunning, kCancelled };

    struct Slot {
        Callback fn;
        Duration period{0};  ///< zero => one-shot
        std::uint32_t generation = 1;
        SlotState state = SlotState::kFree;
    };

    TimePoint now_;
    std::vector<Key> heap_;  ///< min-heap on (when, stamp, seq)
    std::deque<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t cancelled_ = 0;  ///< keys in heap_ whose slot is cancelled
    std::uint32_t running_ = 0;  ///< slot of the event being run

    EventId push(TimePoint when, TimePoint stamp, std::uint64_t seq, Duration period,
                 Callback fn);
    static void check_ranked(TimePoint now, TimePoint when, TimePoint as_of, std::uint64_t rank);
    void push_key(const Key& key);
    [[nodiscard]] Key pop_key();
    void release(std::uint32_t slot);
    /// Discard cancelled events sitting at the top of the heap.
    void drop_cancelled_head();
};

}  // namespace zerodeg::core
