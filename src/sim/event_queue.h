// Pending-event set for the discrete-event kernel.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/inline_function.h"
#include "sim/ring.h"
#include "sim/time.h"

namespace phantom::sim {

/// Opaque handle identifying a scheduled event; usable to cancel it.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return seq_ != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  friend class EventQueue;
  constexpr EventId(std::uint64_t s, std::uint32_t slot)
      : seq_{s}, slot_{slot} {}
  // The seq alone identifies the event; the slot makes cancel O(1)
  // (a direct index into the queue's slot table, validated by seq).
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

/// Handle to one of a queue's constant-delay FIFO lanes (see
/// EventQueue::lane). Cheap to copy; valid for the queue that issued it.
class Lane {
 public:
  [[nodiscard]] Time delay() const { return delay_; }
  /// False when the queue had no lane left for this delay: events
  /// scheduled through the handle then go to the heap.
  [[nodiscard]] bool is_lane() const { return index_ != kHeap; }

 private:
  friend class EventQueue;
  static constexpr std::uint32_t kHeap = ~std::uint32_t{0};
  Lane(Time delay, std::uint32_t index) : delay_{delay}, index_{index} {}
  Time delay_;
  std::uint32_t index_;
};

/// Pending-event set with deterministic FIFO tie-breaking: events
/// scheduled for the same instant fire in scheduling order. This is
/// what makes simulations reproducible run-to-run regardless of the
/// queue's internals.
///
/// Every event carries the key (time, seq), seq being a counter drawn at
/// schedule time, and events fire in key order. Two structures hold
/// them (see DESIGN.md §11):
///
/// - a flat 4-ary min-heap of trivially copyable {time, seq, slot}
///   nodes over a plain vector of slots holding the callbacks, for
///   events at arbitrary times; these can be cancelled;
/// - up to kMaxLanes FIFO lanes, one per constant delay. Events put on
///   a lane are all `delay` after a non-decreasing clock, so they
///   arrive in key order and a ring keeps them sorted for free. Lane
///   events are fire-and-forget: no EventId, no cancel.
///
/// pop() takes the smallest key over the heap top and the lane heads,
/// so the global firing order is exactly that of a single heap. Nothing
/// on the schedule/pop path allocates once the vectors and rings have
/// reached the run's high-water mark.
///
/// Cancellation is O(1) and releases the callback (and everything it
/// captured) immediately: the slot is invalidated and freed for reuse,
/// while the heap node remains as a tombstone that is discarded when it
/// reaches the top. A tombstone is detected generationally — its seq no
/// longer matches the slot's, whether the slot is free or was reused —
/// so no per-event hash set of cancelled ids is needed.
class EventQueue {
 public:
  /// Inline capture budget for event callbacks. The link and port
  /// events of both atm and tcp are one-pointer bind_member callbacks on
  /// lanes; the budget is set by a payload-carrying closure, bench_micro's
  /// 56-byte cell delivery (a 48-byte atm::Cell plus a pointer), with
  /// headroom for a wrapped std::function (32 bytes on libstdc++).
  /// Callbacks beyond the budget still work — they heap-allocate and
  /// bump InlineFunction's fallback counter.
  static constexpr std::size_t kInlineCallbackBytes = 96;
  using Callback = InlineFunction<kInlineCallbackBytes>;

  /// Distinct lane delays one queue keeps; lane() requests beyond this
  /// get a handle that routes to the heap.
  static constexpr std::size_t kMaxLanes = 8;

  /// Schedules `cb` at absolute time `at`. `at` may equal the time of the
  /// event currently executing (zero-delay events are allowed) but must
  /// never be in the past relative to the last popped event — that throws
  /// std::logic_error in every build type.
  EventId schedule(Time at, Callback&& cb);

  /// The lane for constant delay `delay` (>= 0; negative throws
  /// std::logic_error). Equal delays share one lane.
  [[nodiscard]] Lane lane(Time delay);

  /// Lanes handed out so far (at most kMaxLanes).
  [[nodiscard]] std::size_t lanes_in_use() const { return lane_count_; }
  /// lane() calls answered with a heap handle because every lane was
  /// taken by another delay. Nonzero means some fixed-delay traffic
  /// pays heap operations (see phantom_cli --perf-report).
  [[nodiscard]] std::uint64_t heap_lane_requests() const {
    return heap_lane_requests_;
  }

  /// Schedules `cb` on `lane` at absolute time `at`, which must be no
  /// earlier than the lane's last event (the caller passes now + delay
  /// with a non-decreasing now) and, like schedule(), not in the past;
  /// either violation throws std::logic_error.
  void schedule(const Lane& lane, Time at, Callback&& cb) {
    if (!lane.is_lane() || !cb || at < floor_ || lane.index_ >= lane_count_ ||
        lanes_[lane.index_].delay != lane.delay_) {
      schedule_off_lane(lane, at, std::move(cb));
      return;
    }
    Ring<LaneEvent>& events = lanes_[lane.index_].events;
    if (!events.empty() && at < events.back().time) {
      schedule_off_lane(lane, at, std::move(cb));
      return;
    }
    LaneEvent& e = events.append();
    e.time = at;
    e.seq = next_seq_++;
    e.callback = std::move(cb);
    note_scheduled();
  }

  /// Cancels a pending event, destroying its callback (and captured
  /// state) immediately. Cancelling an already-fired or already-
  /// cancelled event is a harmless no-op.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }
  /// High-water mark of live (scheduled, not yet fired or cancelled)
  /// events over this queue's lifetime.
  [[nodiscard]] std::size_t peak_size() const { return peak_live_; }

  /// Time of the earliest live event. Requires !empty().
  [[nodiscard]] Time next_time() const;

  struct Popped {
    Time time;
    Callback callback;
  };
  /// Removes and returns the earliest live event. Requires !empty().
  Popped pop();
  /// Removes and returns the earliest live event if it is due at or
  /// before `deadline`; otherwise (or when empty) returns a null
  /// callback and leaves the queue as it was.
  Popped pop_due(Time deadline) {
    if (empty()) return {};
    const std::size_t source = earliest();
    const Time at = source == kHeapSource ? heap_.front().time
                                          : lanes_[source].events.front().time;
    if (at > deadline) return {};
    return take(source);
  }

 private:
  // One heap node per scheduled event (plus tombstones of cancelled
  // events until they surface). Trivially copyable on purpose: sifting
  // a 4-ary heap moves nodes, and 24-byte memcpy-able nodes keep that
  // cheap — the callbacks themselves never move after scheduling.
  struct Node {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Callback storage, indexed by Node::slot / EventId::slot_. `seq` is
  // the generation check: it matches the node's seq while the event is
  // live, and can never match again after the event fired or was
  // cancelled (seqs are unique), even once the slot is reused.
  struct Slot {
    std::uint64_t seq = 0;  // 0 = free
    Callback callback;
  };
  struct LaneEvent {
    Time time;
    std::uint64_t seq = 0;
    Callback callback;
  };
  struct LaneQueue {
    Time delay;
    Ring<LaneEvent> events;
  };

  static constexpr std::size_t kArity = 4;
  // earliest()'s answer when the heap top is the earliest event.
  static constexpr std::size_t kHeapSource = kMaxLanes;

  template <typename A, typename B>
  [[nodiscard]] static bool before(const A& a, const B& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  [[nodiscard]] bool is_live(const Node& n) const {
    return slots_[n.slot].seq == n.seq;
  }
  void check_not_past(Time at) const;
  void note_scheduled() {
    ++live_count_;
    if (live_count_ > peak_live_) peak_live_ = live_count_;
  }
  /// The lane schedule's slow path: heap fallback handles, and the
  /// argument errors, which throw std::logic_error.
  void schedule_off_lane(const Lane& lane, Time at, Callback&& cb);
  /// Index of the lane holding the earliest live event, or kHeapSource.
  /// Requires !empty().
  [[nodiscard]] std::size_t earliest() const {
    if (!heap_.empty() && !is_live(heap_.front())) drop_cancelled_head();
    std::size_t best = kHeapSource;
    // Start from the heap top when there is one; any lane head that
    // sorts before the current best takes over.
    const LaneEvent* best_lane = nullptr;
    for (std::size_t i = 0; i < lane_count_; ++i) {
      const Ring<LaneEvent>& events = lanes_[i].events;
      if (events.empty()) continue;
      const LaneEvent& head = events.front();
      if (best_lane != nullptr ? before(head, *best_lane)
                               : heap_.empty() || before(head, heap_.front())) {
        best = i;
        best_lane = &head;
      }
    }
    return best;
  }
  Popped take(std::size_t source) {
    Popped out;
    if (source == kHeapSource) {
      const Node top = heap_.front();
      remove_root();
      Slot& s = slots_[top.slot];
      out.time = top.time;
      out.callback = std::move(s.callback);
      free_slot(top.slot);
    } else {
      Ring<LaneEvent>& events = lanes_[source].events;
      LaneEvent& head = events.front();
      out.time = head.time;
      out.callback = std::move(head.callback);
      events.pop_front();
    }
    floor_ = out.time;
    --live_count_;
    return out;
  }
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  void remove_root() const;
  void drop_cancelled_head() const;
  void free_slot(std::uint32_t slot);

  // `mutable`: const observers (next_time) discard tombstones that have
  // reached the heap top; live events and slots are never touched.
  mutable std::vector<Node> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::array<LaneQueue, kMaxLanes> lanes_;
  std::size_t lane_count_ = 0;
  std::uint64_t heap_lane_requests_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t peak_live_ = 0;
  Time floor_ = Time::zero();  // time of the last popped event
};

}  // namespace phantom::sim
