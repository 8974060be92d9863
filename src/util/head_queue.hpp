// A FIFO queue on a grow-only vector: push appends, pop advances a head
// index, and the vector is cleared (capacity kept) when it drains. It
// allocates nothing until its first push, and a queue that keeps draining
// recycles its capacity instead of churning, so steady-state traffic never
// reallocates it. The network uses it for per-link arrivals and for a
// slice's message FIFO and its parked readers.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace anton::util {

template <typename T>
class HeadQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  /// The oldest item; the queue must not be empty.
  T& front() { return items_[head_]; }
  /// The queued items, oldest first.
  std::span<T> items() { return std::span<T>(items_).subspan(head_); }
  void push(T v) { items_.push_back(std::move(v)); }
  /// Removes and returns the oldest item; the queue must not be empty.
  T pop() {
    T v = std::move(items_[head_++]);
    if (empty()) {
      items_.clear();
      head_ = 0;
    }
    return v;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace anton::util
