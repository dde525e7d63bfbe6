// Growable FIFO ring buffer: the storage behind the kernel's constant-
// delay lanes and atm::Link's delay line.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace phantom::sim {

/// FIFO over a power-of-two ring of default-constructed slots. Pushing
/// and popping never allocate once the ring has reached the run's
/// high-water mark; growth doubles the capacity and keeps FIFO order.
/// pop_front() leaves the slot as it is: move out of front() first, so
/// a slot that held a callback keeps nothing alive until it is reused.
template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& front() {
    assert(!empty());
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(!empty());
    return slots_[head_];
  }
  [[nodiscard]] const T& back() const {
    assert(!empty());
    return slots_[(head_ + size_ - 1) & (slots_.size() - 1)];
  }

  void push_back(const T& value) { append() = value; }

  /// Appends a slot and returns it for the caller to fill in place. The
  /// slot holds whatever a popped element left there.
  [[nodiscard]] T& append() {
    if (size_ == slots_.size()) grow();
    return slots_[(head_ + size_++) & (slots_.size() - 1)];
  }

  /// Removes the front element; the caller has already moved out of
  /// front() whatever it needs.
  void pop_front() {
    assert(!empty());
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> next(std::max<std::size_t>(4, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace phantom::sim
