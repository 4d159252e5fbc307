// Fixed-capacity single-producer / single-consumer queue with blocking
// backpressure.
//
// The ring is deliberately mutex+condvar based rather than lock-free: the
// session pipeline pushes *batches* of thousands of events, so queue
// operations are off the hot path, and a locked ring is trivially correct
// under ThreadSanitizer. Capacity is fixed at construction; a full ring
// blocks the producer (`push`), which is exactly the backpressure the
// live-analysis pipeline wants — the guest VM slows down instead of the
// process growing without bound. An empty ring blocks the consumer (`pop`)
// until a value lands or the ring is closed.
//
// Threading contract: exactly one producer thread calls push, exactly one
// consumer thread calls pop. `close` is idempotent and may be called from
// any thread (the abort path closes from the publisher while a producer may
// be blocked in push): a push that races or follows close is a defined
// outcome — it returns false, the value is dropped, and the drop is counted
// — so shutdown never trips an assertion or deadlocks a blocked producer.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace tq {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) : slots_(capacity) {
    TQUAD_CHECK(capacity > 0, "SpscRing capacity must be positive");
  }

  /// Producer: enqueue `value`, blocking while the ring is full
  /// (backpressure). Returns true once enqueued. A push against a closed
  /// ring — including a close that lands while the producer is blocked on a
  /// full ring — drops the value, counts it in Stats::dropped_after_close,
  /// and returns false; that makes the trap/abort shutdown path a defined
  /// outcome instead of an assertion or a deadlock.
  bool push(T value) {
    bool was_empty = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Wait accounting contract: push_waits counts every *sleep episode*
      // and stall_ns the wall time actually spent asleep — a wakeup that
      // finds the ring full again re-enters the loop and is counted again,
      // so the counters match reality instead of "at most one per call".
      while (size_ == slots_.size() && !closed_) {
        ++push_waits_;
        const auto stall_start = std::chrono::steady_clock::now();
        space_cv_.wait(lock,
                       [&] { return size_ < slots_.size() || closed_; });
        stall_ns_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - stall_start)
                .count());
      }
      if (closed_) {
        ++dropped_after_close_;
        return false;
      }
      was_empty = size_ == 0;
      slots_[(head_ + size_) % slots_.size()] = std::move(value);
      ++size_;
      ++pushes_;
      if (size_ > occupancy_high_water_) occupancy_high_water_ = size_;
    }
    // Wake the consumer only on the empty->non-empty edge: while the ring
    // stays non-empty the consumer cannot be asleep waiting on it.
    if (was_empty) data_cv_.notify_one();
    return true;
  }

  /// Drain-barrier owner or abort path: no more pushes will be accepted.
  /// Idempotent, callable from any thread. Wakes the consumer so pop() can
  /// report the end of the stream, and any producer blocked in push() so it
  /// can fail out.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      closed_ = true;
    }
    space_cv_.notify_all();
    data_cv_.notify_all();
  }

  /// Consumer: dequeue into `out`, blocking while the ring is empty and
  /// open. Returns false once the ring is closed and fully drained.
  bool pop(T& out) {
    bool was_full = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      data_cv_.wait(lock, [&] { return size_ > 0 || closed_; });
      if (size_ == 0) return false;
      was_full = size_ == slots_.size();
      out = std::move(slots_[head_]);
      head_ = (head_ + 1) % slots_.size();
      --size_;
    }
    if (was_full) space_cv_.notify_one();
    return true;
  }

  /// Capacity in slots, fixed at construction.
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Post-run introspection counters, consistent under one lock.
  struct Stats {
    std::uint64_t pushes = 0;       ///< values ever enqueued
    std::uint64_t push_waits = 0;   ///< sleep episodes on a full ring
    std::uint64_t stall_ns = 0;     ///< producer wall time blocked on space
    std::uint64_t dropped_after_close = 0;  ///< pushes refused by close
    std::uint64_t occupancy_high_water = 0;  ///< max queued values seen
  };

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    s.pushes = pushes_;
    s.push_waits = push_waits_;
    s.stall_ns = stall_ns_;
    s.dropped_after_close = dropped_after_close_;
    s.occupancy_high_water = occupancy_high_water_;
    return s;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable space_cv_;
  std::condition_variable data_cv_;
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool closed_ = false;
  std::uint64_t push_waits_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t stall_ns_ = 0;
  std::uint64_t dropped_after_close_ = 0;
  std::uint64_t occupancy_high_water_ = 0;
};

}  // namespace tq
