// Small-buffer move-only callable: the event kernel's allocation-free
// replacement for std::function<void()>.
//
// std::function's small-buffer storage is 16 bytes on libstdc++, so an
// event carrying a packet or cell by value would pay one heap allocation
// for its capture block. InlineFunction<N> stores captures up to N bytes
// inline in the object, falling back to the heap only beyond that — and
// counts those fallbacks, so a model whose captures outgrow the buffer
// shows up in `phantom_cli --perf-report` instead of silently regressing.
// Small trivially copyable captures move by memcpy, with no manager call.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace phantom::sim {

namespace detail {

/// Process-wide fallback counter shared by every InlineFunction<N>
/// instantiation (the perf report wants one number, not one per size).
/// Relaxed atomic: the count is a diagnostic, and the chaos supervisor's
/// worker threads may schedule from forked children concurrently.
struct InlineFunctionStats {
  inline static std::atomic<std::uint64_t> heap_fallbacks{0};
};

}  // namespace detail

/// Move-only type-erased void() callable with N bytes of inline capture
/// storage. Captures that are larger than N, over-aligned, or whose move
/// constructor may throw are heap-allocated instead (InlineFunction's
/// own move must stay noexcept — the event heap relocates entries).
///
/// Invoking a null InlineFunction is undefined; callers (the event
/// queue) reject null callbacks at schedule time. The stored callable
/// must not destroy the InlineFunction it is running inside — the event
/// queue upholds this by moving callbacks out before invoking them, so
/// an event may freely cancel or reschedule itself.
template <std::size_t N>
class InlineFunction {
  static_assert(N >= sizeof(void*), "buffer must at least hold a pointer");

 public:
  /// True when a callable of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= N && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  constexpr InlineFunction() = default;
  constexpr InlineFunction(std::nullptr_t) {}  // NOLINT: match std::function

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<void, D&>>>
  InlineFunction(F&& f) {  // NOLINT: implicit like std::function
    if constexpr (std::is_pointer_v<D> || std::is_member_pointer_v<D>) {
      if (f == nullptr) return;  // a null function pointer stays null
    }
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      // A small trivially copyable capture (bind_member, a pointer or
      // two) needs no manager: moving it copies kTrivialBytes and
      // destroying it is a no-op.
      if constexpr (!std::is_trivially_copyable_v<D> ||
                    sizeof(D) > kTrivialBytes) {
        manage_ = &inline_manage<D>;
      }
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      detail::InlineFunctionStats::heap_fallbacks.fetch_add(
          1, std::memory_order_relaxed);
      invoke_ = &heap_invoke<D>;
      manage_ = &heap_manage<D>;
    }
  }

  InlineFunction(InlineFunction&& o) noexcept { take(o); }

  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  /// Destroys the stored callable (and everything it captured) now.
  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) noexcept {
    return f.invoke_ == nullptr;
  }

  void operator()() { invoke_(buf_); }

  /// Callables constructed with heap-allocated captures since process
  /// start (or the last reset_heap_fallbacks). Zero on every hot path
  /// in this library; nonzero means some capture outgrew the buffer.
  [[nodiscard]] static std::uint64_t heap_fallbacks() noexcept {
    return detail::InlineFunctionStats::heap_fallbacks.load(
        std::memory_order_relaxed);
  }
  static void reset_heap_fallbacks() noexcept {
    detail::InlineFunctionStats::heap_fallbacks.store(
        0, std::memory_order_relaxed);
  }

 private:
  enum class Op : unsigned char {
    kDestroy,   ///< destroy the callable held in `self`
    kRelocate,  ///< move-construct `self` from `other`, destroying `other`
  };
  using Invoker = void (*)(void*);
  using Manager = void (*)(Op, void* self, void* other);

  /// Largest trivially copyable capture moved without a manager.
  static constexpr std::size_t kTrivialBytes = N < 16 ? N : 16;

  /// Relocates `o`'s callable into this (empty) object, leaving `o` null.
  void take(InlineFunction& o) noexcept {
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kRelocate, buf_, o.buf_);
    } else if (invoke_ != nullptr) {
      std::memcpy(buf_, o.buf_, kTrivialBytes);
    }
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  template <typename D>
  static void inline_invoke(void* buf) {
    (*std::launder(reinterpret_cast<D*>(buf)))();
  }
  template <typename D>
  static void inline_manage(Op op, void* self, void* other) {
    if (op == Op::kRelocate) {
      D* src = std::launder(reinterpret_cast<D*>(other));
      ::new (self) D(std::move(*src));
      src->~D();
    } else {
      std::launder(reinterpret_cast<D*>(self))->~D();
    }
  }

  template <typename D>
  static void heap_invoke(void* buf) {
    (**std::launder(reinterpret_cast<D**>(buf)))();
  }
  template <typename D>
  static void heap_manage(Op op, void* self, void* other) {
    if (op == Op::kRelocate) {
      ::new (self) D*(*std::launder(reinterpret_cast<D**>(other)));
    } else {
      delete *std::launder(reinterpret_cast<D**>(self));
    }
  }

  alignas(std::max_align_t) unsigned char buf_[N];
  Invoker invoke_ = nullptr;
  Manager manage_ = nullptr;
};

/// Pre-bound nullary member-function callback: a trivially copyable
/// {object pointer} closure, the canonical shape for self-rescheduling
/// events (controller ticks, transmitters, reapers). Use via
/// bind_member:
///
///     sim.schedule(interval, bind_member<&Controller::on_interval>(this));
template <auto Method, typename T>
struct MemberCallback {
  T* obj;
  void operator()() const { (obj->*Method)(); }
};

template <auto Method, typename T>
[[nodiscard]] constexpr MemberCallback<Method, T> bind_member(T* obj) {
  return {obj};
}

}  // namespace phantom::sim
