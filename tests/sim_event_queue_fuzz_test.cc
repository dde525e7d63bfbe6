// Differential fuzz: the production EventQueue (flat 4-ary heap,
// generation-checked cancellation, constant-delay FIFO lanes) against an
// obviously-correct reference model (stable-ordered map keyed by (time,
// seq)), driven by the same random operation stream. Any divergence in
// pop order, pop timestamps, or cancel liveness is a kernel bug — this
// is the test that guards the simulator's determinism contract across
// rewrites.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace phantom::sim {
namespace {

/// Reference model: ordered map of (time, insertion serial) -> payload.
/// std::map iteration order IS the specified pop order; cancellation is
/// erase-by-handle. No heap, no tombstones, nothing clever.
class ReferenceQueue {
 public:
  using Key = std::pair<Time, std::uint64_t>;

  Key schedule(Time at, int payload) {
    const Key k{at, next_serial_++};
    events_.emplace(k, payload);
    return k;
  }
  bool cancel(const Key& k) { return events_.erase(k) > 0; }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  std::pair<Time, int> pop() {
    auto it = events_.begin();
    std::pair<Time, int> out{it->first.first, it->second};
    events_.erase(it);
    return out;
  }

 private:
  std::map<Key, int> events_;
  std::uint64_t next_serial_ = 0;
};

struct LivePair {
  EventId real_id;
  ReferenceQueue::Key ref_key;
};

/// Lane delays the fuzz draws from: more distinct delays than the queue
/// has lanes (the tail falls back to the heap), a zero delay, and values
/// inside the heap's 0..49 ns range so lane and heap events tie often.
std::vector<Time> fuzz_lane_delays() {
  std::vector<Time> delays;
  for (std::int64_t d : {0, 1, 3, 7, 10, 13, 20, 25, 31, 40, 49, 64}) {
    delays.push_back(Time::ns(d));
  }
  return delays;
}

void run_differential(std::uint32_t seed, int ops, bool with_lanes) {
  std::mt19937 rng{seed};
  EventQueue real;
  ReferenceQueue ref;
  std::vector<Lane> lanes;
  if (with_lanes) {
    for (Time d : fuzz_lane_delays()) lanes.push_back(real.lane(d));
  }
  std::vector<LivePair> live;  // handles issued so far (some stale)
  Time floor = Time::zero();
  int next_payload = 0;
  int last_fired = -1;  // written by every real callback when invoked

  auto do_pop = [&] {
    last_fired = -1;
    auto popped = real.pop();
    popped.callback();
    const auto expected = ref.pop();
    EXPECT_EQ(popped.time, expected.first) << "pop timestamp diverged";
    EXPECT_EQ(last_fired, expected.second) << "pop order diverged";
    floor = popped.time;
  };

  for (int op = 0; op < ops; ++op) {
    const int roll = static_cast<int>(rng() % 100);
    if (!lanes.empty() && roll < 30) {
      // Lane schedule: `delay` after the current instant, as
      // Simulator::schedule(lane, cb) does. Fire-and-forget, so the
      // handle never enters `live`.
      const Lane& lane = lanes[rng() % lanes.size()];
      const Time at = floor + lane.delay();
      const int payload = next_payload++;
      real.schedule(lane, at, [payload, &last_fired] { last_fired = payload; });
      (void)ref.schedule(at, payload);
    } else if (roll < 55 || real.empty()) {
      // Schedule. The tight delay range (0..49 ns) makes same-timestamp
      // collisions — the FIFO tie-break path — routine, not rare.
      const Time at = floor + Time::ns(static_cast<std::int64_t>(rng() % 50));
      const int payload = next_payload++;
      live.push_back(LivePair{
          real.schedule(at, [payload, &last_fired] { last_fired = payload; }),
          ref.schedule(at, payload)});
    } else if (roll < 75 && !live.empty()) {
      // Cancel a random (possibly stale) handle; both sides must agree
      // on whether it still referred to a live event.
      const std::size_t i = rng() % live.size();
      const bool ref_was_live = ref.cancel(live[i].ref_key);
      const std::size_t before = real.size();
      real.cancel(live[i].real_id);
      const bool real_was_live = real.size() != before;
      ASSERT_EQ(real_was_live, ref_was_live) << "cancel liveness diverged";
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      do_pop();
    }
    ASSERT_EQ(real.size(), ref.size());
  }
  while (!real.empty()) do_pop();
  EXPECT_TRUE(ref.empty());
}

TEST(EventQueueFuzzTest, MatchesReferenceModelAcrossSeeds) {
  for (std::uint32_t seed : {1u, 2u, 7u, 42u, 1996u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_differential(seed, 4000, /*with_lanes=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueueFuzzTest, LanesAndHeapMatchReferenceModelAcrossSeeds) {
  // Same-instant ties across lanes and the heap, zero-delay lanes, lane
  // requests past kMaxLanes that route to the heap, and heap cancels
  // interleaved with lane traffic.
  static_assert(EventQueue::kMaxLanes < 12, "fuzz must overflow the lanes");
  for (std::uint32_t seed : {1u, 2u, 7u, 42u, 1996u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_differential(seed, 6000, /*with_lanes=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueueLaneTest, LanesAreSharedByDelayAndLimited) {
  EventQueue q;
  const Lane a = q.lane(Time::ns(5));
  const Lane b = q.lane(Time::ns(5));
  EXPECT_TRUE(a.is_lane());
  EXPECT_TRUE(b.is_lane());
  // Equal delays share a lane: two events on "different" handles keep
  // FIFO order, which they could not if each handle had its own ring.
  int order = 0;
  int first = 0;
  int second = 0;
  q.schedule(a, Time::ns(5), [&] { first = ++order; });
  q.schedule(b, Time::ns(5), [&] { second = ++order; });
  q.pop().callback();
  q.pop().callback();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);

  for (std::size_t i = 1; i < EventQueue::kMaxLanes; ++i) {
    EXPECT_TRUE(q.lane(Time::ns(100 + static_cast<std::int64_t>(i))).is_lane());
  }
  const Lane overflow = q.lane(Time::ns(999));
  EXPECT_FALSE(overflow.is_lane());
  EXPECT_EQ(overflow.delay(), Time::ns(999));
  // The fallback handle still schedules, on the heap.
  q.schedule(overflow, Time::ns(999), [] {});
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().time, Time::ns(999));
}

TEST(EventQueueLaneTest, NinthDistinctDelayIsCountedAsHeapRequest) {
  Simulator sim;
  EXPECT_EQ(sim.lanes_in_use(), 0u);
  for (std::size_t i = 0; i < EventQueue::kMaxLanes; ++i) {
    (void)sim.lane(Time::us(1 + static_cast<std::int64_t>(i)));
    // Asking again for a delay that already has a lane costs nothing.
    (void)sim.lane(Time::us(1));
  }
  EXPECT_EQ(sim.lanes_in_use(), EventQueue::kMaxLanes);
  EXPECT_EQ(sim.heap_lane_requests(), 0u);

  const Lane ninth = sim.lane(Time::us(100));
  EXPECT_FALSE(ninth.is_lane());
  EXPECT_EQ(sim.lanes_in_use(), EventQueue::kMaxLanes);
  EXPECT_EQ(sim.heap_lane_requests(), 1u);
  // Every request for a delay left without a lane is counted.
  (void)sim.lane(Time::us(100));
  EXPECT_EQ(sim.heap_lane_requests(), 2u);
}

TEST(EventQueueLaneTest, NegativeLaneDelayThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.lane(Time::ns(-1)), std::logic_error);
}

TEST(EventQueueLaneTest, PastTimeLaneScheduleThrows) {
  EventQueue q;
  const Lane lane = q.lane(Time::ns(3));
  q.schedule(Time::ns(10), [] {});
  q.pop().callback();  // the queue's clock is now at 10 ns
  EXPECT_THROW(q.schedule(lane, Time::ns(5), [] {}), std::logic_error);
  EXPECT_TRUE(q.empty());
  // A lane entry behind the lane's tail would break FIFO order: rejected.
  q.schedule(lane, Time::ns(20), [] {});
  EXPECT_THROW(q.schedule(lane, Time::ns(15), [] {}), std::logic_error);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueLaneTest, LaneFromAnotherQueueThrows) {
  EventQueue issuer;
  EventQueue other;
  const Lane lane = issuer.lane(Time::ns(3));
  EXPECT_THROW(other.schedule(lane, Time::ns(3), [] {}), std::logic_error);
  EXPECT_TRUE(other.empty());
}

TEST(EventQueueLaneTest, PopDueLeavesLaterEventsQueued) {
  EventQueue q;
  const Lane lane = q.lane(Time::ns(7));
  q.schedule(lane, Time::ns(7), [] {});
  q.schedule(Time::ns(4), [] {});
  EXPECT_FALSE(q.pop_due(Time::ns(3)).callback);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop_due(Time::ns(7)).time, Time::ns(4));
  EXPECT_EQ(q.pop_due(Time::ns(7)).time, Time::ns(7));
  EXPECT_FALSE(q.pop_due(Time::max()).callback);
}

TEST(EventQueueLaneTest, LaneEventsCountTowardSizeAndPeak) {
  EventQueue q;
  const Lane lane = q.lane(Time::ns(2));
  q.schedule(lane, Time::ns(2), [] {});
  q.schedule(lane, Time::ns(2), [] {});
  q.schedule(Time::ns(1), [] {});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.peak_size(), 3u);
  EXPECT_EQ(q.next_time(), Time::ns(1));
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(q.peak_size(), 3u);
}

}  // namespace
}  // namespace phantom::sim
