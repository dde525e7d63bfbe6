#include "sim/inline_function.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace phantom::sim {
namespace {

using Fn = InlineFunction<32>;

TEST(InlineFunctionTest, DefaultConstructedIsNull) {
  Fn f;
  EXPECT_FALSE(f);
  EXPECT_TRUE(f == nullptr);
  Fn g{nullptr};
  EXPECT_FALSE(g);
}

TEST(InlineFunctionTest, InvokesStoredLambda) {
  int hits = 0;
  Fn f{[&hits] { ++hits; }};
  ASSERT_TRUE(f);
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunctionTest, NullFunctionPointerStaysNull) {
  void (*fp)() = nullptr;
  Fn f{fp};
  EXPECT_FALSE(f);
}

TEST(InlineFunctionTest, FitsInlineTraitMatchesCaptureSize) {
  auto small = [] {};
  std::array<char, 64> big_payload{};
  auto big = [big_payload] { (void)big_payload; };
  static_assert(Fn::fits_inline<decltype(small)>);
  static_assert(!Fn::fits_inline<decltype(big)>);
  // A throwing-move capture may not live inline even when it fits:
  // the event heap relocates entries under a noexcept move.
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    void operator()() const {}
  };
  static_assert(!Fn::fits_inline<ThrowingMove>);
}

TEST(InlineFunctionTest, MoveOnlyCaptureWorksAndTransfersOwnership) {
  int result = 0;
  auto p = std::make_unique<int>(41);
  Fn f{[p = std::move(p), &result] { result = *p + 1; }};
  // Move the whole function object; the unique_ptr travels with it.
  Fn g{std::move(f)};
  EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): post-move null is API
  ASSERT_TRUE(g);
  g();
  EXPECT_EQ(result, 42);
}

TEST(InlineFunctionTest, MoveAssignReleasesPreviousTarget) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  Fn f{[token] { (void)token; }};
  token.reset();
  EXPECT_FALSE(watch.expired());
  f = Fn{[] {}};  // overwriting must destroy the old capture
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunctionTest, ResetDestroysCaptureImmediately) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  Fn f{[token] { (void)token; }};
  token.reset();
  EXPECT_FALSE(watch.expired());
  f.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(f);
}

TEST(InlineFunctionTest, TriviallyCopyableCaptureRelocatesByCopy) {
  // {pointer, int} is trivially copyable: moves memcpy the buffer with
  // no manager call, and every hop must still carry the exact capture.
  int hits = 0;
  int* target = &hits;
  const int step = 5;
  auto add = [target, step] { *target += step; };
  static_assert(std::is_trivially_copyable_v<decltype(add)>);
  Fn f{add};
  Fn g{std::move(f)};
  EXPECT_FALSE(f);
  Fn h;
  h = std::move(g);
  EXPECT_FALSE(g);
  ASSERT_TRUE(h);
  h();
  EXPECT_EQ(hits, 5);
  // Assigning over a live trivially copyable target replaces it.
  int other = 0;
  h = Fn{[&other] { ++other; }};
  h();
  EXPECT_EQ(hits, 5);
  EXPECT_EQ(other, 1);
  // A larger trivially copyable capture (three pointers) moves intact
  // too; only small ones skip the manager, so check both sizes.
  int a = 0;
  int b = 0;
  int c = 0;
  auto three = [pa = &a, pb = &b, pc = &c] { *pa = 1; *pb = 2; *pc = 3; };
  static_assert(std::is_trivially_copyable_v<decltype(three)>);
  static_assert(sizeof(three) > 16 && Fn::fits_inline<decltype(three)>);
  h = Fn{three};
  Fn moved{std::move(h)};
  moved();
  EXPECT_EQ(a + b + c, 6);
  EXPECT_EQ(c, 3);
  moved.reset();
  EXPECT_FALSE(moved);
}

TEST(InlineFunctionTest, NonTrivialCaptureIsDestroyedExactlyOnce) {
  // Counts live instances: relocation must construct the new copy and
  // destroy the old one, and the last reset destroys the survivor, so
  // the count returns to zero without ever dipping below it.
  struct Probe {
    int* live;
    explicit Probe(int* l) : live{l} { ++*live; }
    Probe(const Probe& o) : live{o.live} { ++*live; }
    Probe(Probe&& o) noexcept : live{o.live} { ++*live; }
    ~Probe() { --*live; }
    void operator()() const { EXPECT_GT(*live, 0); }
  };
  static_assert(!std::is_trivially_copyable_v<Probe>);
  static_assert(Fn::fits_inline<Probe>);
  int live = 0;
  {
    Fn f{Probe{&live}};
    EXPECT_EQ(live, 1);
    Fn g{std::move(f)};
    EXPECT_EQ(live, 1);
    Fn h;
    h = std::move(g);
    EXPECT_EQ(live, 1);
    h();
    h = Fn{Probe{&live}};  // destroys the old target, adopts the new one
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(InlineFunctionTest, OversizedCaptureFallsBackToHeapAndCounts) {
  Fn::reset_heap_fallbacks();
  int seen = 0;
  std::array<char, 64> payload{};
  payload[0] = 7;
  Fn f{[payload, &seen] { seen = payload[0]; }};
  EXPECT_EQ(Fn::heap_fallbacks(), 1u);
  // Heap-stored callables still move (pointer steal) and invoke.
  Fn g{std::move(f)};
  ASSERT_TRUE(g);
  g();
  EXPECT_EQ(seen, 7);
  Fn::reset_heap_fallbacks();
  EXPECT_EQ(Fn::heap_fallbacks(), 0u);
}

TEST(InlineFunctionTest, HeapFallbackCaptureIsDestroyed) {
  Fn::reset_heap_fallbacks();
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  std::array<char, 64> pad{};
  {
    Fn f{[token, pad] { (void)pad; }};
    token.reset();
    EXPECT_EQ(Fn::heap_fallbacks(), 1u);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
  Fn::reset_heap_fallbacks();
}

TEST(InlineFunctionTest, MemberCallbackBindsAndInvokes) {
  struct Counter {
    int hits = 0;
    void bump() { ++hits; }
  } c;
  auto cb = bind_member<&Counter::bump>(&c);
  static_assert(Fn::fits_inline<decltype(cb)>);
  Fn f{cb};
  f();
  f();
  EXPECT_EQ(c.hits, 2);
}

// The contract the queue relies on: an event may cancel or reschedule
// *itself*, because the queue moves the callback out before invoking it.
TEST(InlineFunctionTest, EventMayCancelItselfDuringInvocation) {
  Simulator sim;
  EventId self;
  int fired = 0;
  self = sim.schedule(Time::ms(1), [&] {
    ++fired;
    sim.cancel(self);  // cancelling an already-popped event is a no-op
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(InlineFunctionTest, EventMayRescheduleItselfDuringInvocation) {
  Simulator sim;
  int fired = 0;
  std::function<void()> hop = [&] {
    if (++fired < 5) sim.schedule(Time::ms(1), [&] { hop(); });
  };
  sim.schedule(Time::ms(1), [&] { hop(); });
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), Time::ms(5));
}

}  // namespace
}  // namespace phantom::sim
