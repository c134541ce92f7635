#include "core/event_queue.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace zerodeg::core {

namespace {

/// Heap order: true if `a` runs after `b`.
struct RunsLater {
    template <class Key>
    bool operator()(const Key& a, const Key& b) const {
        if (a.when != b.when) return a.when > b.when;
        if (a.stamp != b.stamp) return a.stamp > b.stamp;
        return a.seq > b.seq;
    }
};

}  // namespace

EventId Simulator::schedule_at(TimePoint when, Callback fn) {
    if (when < now_) throw InvalidArgument("Simulator::schedule_at: time is in the past");
    if (!fn) throw InvalidArgument("Simulator::schedule_at: empty callback");
    return push(when, now_, next_seq_++, Duration{0}, std::move(fn));
}

EventId Simulator::schedule_every(TimePoint first, Duration period, Callback fn) {
    if (period.count() <= 0) {
        throw InvalidArgument("Simulator::schedule_every: period must be positive");
    }
    if (first < now_) throw InvalidArgument("Simulator::schedule_every: time is in the past");
    if (!fn) throw InvalidArgument("Simulator::schedule_every: empty callback");
    return push(first, now_, next_seq_++, period, std::move(fn));
}

void Simulator::check_ranked(TimePoint now, TimePoint when, TimePoint as_of,
                             std::uint64_t rank) {
    if (as_of < now) throw InvalidArgument("Simulator: ranked as_of is in the past");
    if (when < as_of) throw InvalidArgument("Simulator: ranked time is before its as_of");
    if (rank >= kRankedSeq) throw InvalidArgument("Simulator: rank too large");
}

EventId Simulator::schedule_ranked(TimePoint when, TimePoint as_of, std::uint64_t rank,
                                   Callback fn) {
    check_ranked(now_, when, as_of, rank);
    if (!fn) throw InvalidArgument("Simulator::schedule_ranked: empty callback");
    return push(when, as_of, kRankedSeq + rank, Duration{0}, std::move(fn));
}

void Simulator::requeue_ranked(TimePoint when, TimePoint as_of, std::uint64_t rank) {
    check_ranked(now_, when, as_of, rank);
    if (slots_.empty() || slots_[running_].state != SlotState::kRunning) {
        throw InvalidArgument("Simulator::requeue_ranked: no one-shot event is running");
    }
    slots_[running_].state = SlotState::kQueued;
    push_key(Key{when, as_of, kRankedSeq + rank, running_});
}

EventId Simulator::push(TimePoint when, TimePoint stamp, std::uint64_t seq, Duration period,
                        Callback fn) {
    std::uint32_t index = 0;
    if (free_slots_.empty()) {
        index = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        index = free_slots_.back();
        free_slots_.pop_back();
    }
    Slot& slot = slots_[index];
    slot.fn = std::move(fn);
    slot.period = period;
    slot.state = SlotState::kQueued;
    push_key(Key{when, stamp, seq, index});
    return (EventId{slot.generation} << 32) | index;
}

bool Simulator::cancel(EventId id) {
    const auto index = static_cast<std::uint32_t>(id);
    if (index >= slots_.size()) return false;
    Slot& slot = slots_[index];
    if (slot.generation != id >> 32 || slot.state != SlotState::kQueued) return false;
    slot.state = SlotState::kCancelled;
    ++cancelled_;
    return true;
}

void Simulator::push_key(const Key& key) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), RunsLater{});
}

Simulator::Key Simulator::pop_key() {
    std::pop_heap(heap_.begin(), heap_.end(), RunsLater{});
    const Key key = heap_.back();
    heap_.pop_back();
    return key;
}

void Simulator::release(std::uint32_t index) {
    Slot& slot = slots_[index];
    slot.fn = nullptr;
    slot.state = SlotState::kFree;
    if (++slot.generation == 0) slot.generation = 1;  // ids are never 0
    free_slots_.push_back(index);
}

void Simulator::drop_cancelled_head() {
    while (cancelled_ > 0 && !heap_.empty() &&
           slots_[heap_.front().slot].state == SlotState::kCancelled) {
        --cancelled_;
        release(pop_key().slot);
    }
}

bool Simulator::step() {
    drop_cancelled_head();
    if (heap_.empty()) return false;
    const Key key = pop_key();
    now_ = key.when;
    ++executed_;
    // The deque never moves a slot, so `slot` stays valid while the callback
    // schedules more events.
    Slot& slot = slots_[key.slot];
    running_ = key.slot;
    if (slot.period.count() > 0) {
        // Re-queued before the callback runs, so the callback can cancel it.
        push_key(Key{key.when + slot.period, now_, next_seq_++, key.slot});
        slot.fn();
    } else {
        slot.state = SlotState::kRunning;
        slot.fn();
        if (slot.state == SlotState::kRunning) release(key.slot);
    }
    return true;
}

void Simulator::run_until(TimePoint until) {
    for (;;) {
        drop_cancelled_head();
        if (heap_.empty() || heap_.front().when > until) break;
        (void)step();
    }
    if (until > now_) now_ = until;
}

}  // namespace zerodeg::core
