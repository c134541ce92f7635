#include "core/event_queue.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace zerodeg::core {

EventId Simulator::schedule_at(TimePoint when, Callback fn) {
    if (when < now_) throw InvalidArgument("Simulator::schedule_at: time is in the past");
    if (!fn) throw InvalidArgument("Simulator::schedule_at: empty callback");
    const EventId id = next_id_++;
    push(Event{when, next_seq_++, id, std::move(fn), Duration{0}});
    return id;
}

EventId Simulator::schedule_every(TimePoint first, Duration period, Callback fn) {
    if (period.count() <= 0) {
        throw InvalidArgument("Simulator::schedule_every: period must be positive");
    }
    if (first < now_) throw InvalidArgument("Simulator::schedule_every: time is in the past");
    if (!fn) throw InvalidArgument("Simulator::schedule_every: empty callback");
    const EventId id = next_id_++;
    push(Event{first, next_seq_++, id, std::move(fn), period});
    return id;
}

bool Simulator::cancel(EventId id) {
    if (std::find(cancelled_.begin(), cancelled_.end(), id) != cancelled_.end()) return false;
    const bool queued =
        std::any_of(heap_.begin(), heap_.end(), [id](const Event& ev) { return ev.id == id; });
    if (queued) cancelled_.push_back(id);
    return queued;
}

void Simulator::push(Event ev) {
    heap_.push_back(std::move(ev));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

Simulator::Event Simulator::pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    return ev;
}

void Simulator::drop_cancelled_head() {
    while (!cancelled_.empty() && !heap_.empty()) {
        const auto it = std::find(cancelled_.begin(), cancelled_.end(), heap_.front().id);
        if (it == cancelled_.end()) return;
        cancelled_.erase(it);
        (void)pop();
    }
}

bool Simulator::step() {
    drop_cancelled_head();
    if (heap_.empty()) return false;
    Event ev = pop();
    now_ = ev.when;
    ++executed_;
    if (ev.period.count() > 0) {
        // Re-queued before the callback runs, so the callback can cancel it.
        push(Event{ev.when + ev.period, next_seq_++, ev.id, ev.fn, ev.period});
    }
    ev.fn();
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

std::size_t Simulator::pending_events() const { return heap_.size() - cancelled_.size(); }

}  // namespace zerodeg::core
