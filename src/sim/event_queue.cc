#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace phantom::sim {

void EventQueue::check_not_past(Time at) const {
  if (at < floor_) {
    throw std::logic_error{"EventQueue::schedule: " + at.to_string() +
                           " is before the last popped event (" +
                           floor_.to_string() + ")"};
  }
}

EventId EventQueue::schedule(Time at, Callback&& cb) {
  if (!cb) throw std::logic_error{"EventQueue::schedule: null callback"};
  check_not_past(at);
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.seq = seq;
  s.callback = std::move(cb);
  heap_.push_back(Node{at, seq, slot});
  sift_up(heap_.size() - 1);
  note_scheduled();
  return EventId{seq, slot};
}

Lane EventQueue::lane(Time delay) {
  if (delay.is_negative()) {
    throw std::logic_error{"EventQueue::lane: negative delay " +
                           delay.to_string()};
  }
  for (std::size_t i = 0; i < lane_count_; ++i) {
    if (lanes_[i].delay == delay) return Lane{delay, static_cast<std::uint32_t>(i)};
  }
  if (lane_count_ == kMaxLanes) {
    ++heap_lane_requests_;
    return Lane{delay, Lane::kHeap};
  }
  lanes_[lane_count_].delay = delay;
  return Lane{delay, static_cast<std::uint32_t>(lane_count_++)};
}

void EventQueue::schedule_off_lane(const Lane& lane, Time at, Callback&& cb) {
  if (!lane.is_lane()) {
    schedule(at, std::move(cb));
    return;
  }
  if (!cb) throw std::logic_error{"EventQueue::schedule: null callback"};
  check_not_past(at);
  if (lane.index_ >= lane_count_ || lanes_[lane.index_].delay != lane.delay_) {
    throw std::logic_error{"EventQueue::schedule: lane from another queue"};
  }
  // A lane is sorted only because its events arrive in time order; an
  // out-of-order time would silently break the firing order.
  const Ring<LaneEvent>& events = lanes_[lane.index_].events;
  assert(!events.empty() && at < events.back().time);
  throw std::logic_error{"EventQueue::schedule: " + at.to_string() +
                         " is before the lane's last event (" +
                         events.back().time.to_string() + ")"};
}

void EventQueue::cancel(EventId id) {
  if (!id.valid()) return;
  if (id.slot_ >= slots_.size()) return;  // id from another queue
  Slot& s = slots_[id.slot_];
  if (s.seq != id.seq_) return;  // already fired or cancelled
  // Eager release: whatever the callback captured (cells, session
  // state, shared link handles) dies now, not when the tombstone
  // eventually surfaces at the heap top.
  s.callback.reset();
  free_slot(id.slot_);
  --live_count_;
}

void EventQueue::free_slot(std::uint32_t slot) {
  slots_[slot].seq = 0;
  free_slots_.push_back(slot);
}

void EventQueue::sift_up(std::size_t i) const {
  const Node node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = node;
}

void EventQueue::sift_down(std::size_t i) const {
  const std::size_t n = heap_.size();
  const Node node = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], node)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = node;
}

void EventQueue::remove_root() const {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::drop_cancelled_head() const {
  // Tombstones carry no callback (released at cancel), so discarding
  // them here is pure heap bookkeeping.
  while (!heap_.empty() && !is_live(heap_.front())) remove_root();
}

Time EventQueue::next_time() const {
  const std::size_t source = earliest();
  assert((source != kHeapSource || !heap_.empty()) && "next_time() on empty queue");
  return source == kHeapSource ? heap_.front().time
                               : lanes_[source].events.front().time;
}

EventQueue::Popped EventQueue::pop() {
  assert(!empty() && "pop() on empty queue");
  return take(earliest());
}

}  // namespace phantom::sim
