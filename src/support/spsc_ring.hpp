// Fixed-capacity single-producer / single-consumer queue with blocking
// backpressure, plus the Doorbell eventcount that lets one drain thread
// multiplex several rings without missing wakeups.
//
// The ring is deliberately mutex+condvar based rather than lock-free: the
// session pipeline pushes *batches* of thousands of events, so queue
// operations are off the hot path, and a locked ring is trivially correct
// under ThreadSanitizer. Capacity is fixed at construction; a full ring
// blocks the producer (`push`), which is exactly the backpressure the
// live-analysis pipeline wants — the guest VM slows down instead of the
// process growing without bound.
//
// Threading contract: exactly one producer thread calls push, exactly one
// consumer thread calls try_pop. `close` is idempotent and may be called
// from any thread (the abort path closes from the publisher while a
// producer may be blocked in push): a push that races or follows close is
// a defined outcome — it returns false, the value is dropped, and the drop
// is counted — so shutdown never trips an assertion or deadlocks a blocked
// producer.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace tq {

/// Eventcount used by pipeline workers that drain more than one ring: the
/// worker snapshots `epoch()`, scans its rings with `try_pop`, and — only if
/// no ring yielded anything — sleeps in `wait_past(snapshot)`. Any producer
/// push (or close) rings the bell, so a push that lands between the scan and
/// the sleep advances the epoch and the sleep returns immediately. This makes
/// the scan-then-sleep loop lost-wakeup-free without the worker holding any
/// ring lock while idle.
///
/// The epoch is an atomic, so the two per-publish operations — the
/// publisher's `ring()` and the worker's `epoch()` snapshot — are plain
/// atomic ops on the fast path. The mutex+condvar pair exists only for the
/// actual sleep: `ring()` takes the mutex iff a waiter has registered
/// itself, so a pipeline whose workers keep up never serializes publisher
/// and worker on the bell.
///
/// Lost-wakeup argument (all epoch/waiter operations are seq_cst): a waiter
/// increments `waiters_` under the mutex *before* re-checking the epoch; a
/// publisher bumps the epoch *before* loading `waiters_`. If the publisher
/// reads `waiters_ == 0` and skips the notify, the waiter's increment is
/// later in the total order, so its epoch re-check is later still and
/// observes the bump — the predicate is true and the waiter never sleeps.
/// If the publisher reads `waiters_ != 0`, it passes through the mutex
/// (serializing with the waiter's predicate check) and notifies.
class Doorbell {
 public:
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_seq_cst);
  }

  void ring() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    // An empty critical section is enough: it orders this notify after any
    // waiter that registered and re-checked the predicate under the mutex.
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }

  void wait_past(std::uint64_t seen) {
    if (epoch_.load(std::memory_order_seq_cst) != seen) return;
    std::unique_lock<std::mutex> lock(mutex_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    cv_.wait(lock, [&] {
      return epoch_.load(std::memory_order_seq_cst) != seen;
    });
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

 private:
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
  mutable std::mutex mutex_;
  std::condition_variable cv_;
};

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity) : slots_(capacity) {
    TQUAD_CHECK(capacity > 0, "SpscRing capacity must be positive");
  }

  /// Attach the consumer-side doorbell. Must happen before the first push.
  void set_doorbell(Doorbell* bell) { bell_ = bell; }

  /// Producer: enqueue `value`, blocking while the ring is full
  /// (backpressure). Returns true once enqueued. A push against a closed
  /// ring — including a close that lands while the producer is blocked on a
  /// full ring — drops the value, counts it in dropped_after_close(), and
  /// returns false; that makes the trap/abort shutdown path a defined
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
    // Ring the doorbell only on the empty->non-empty edge: while the ring
    // stays non-empty the worker cannot be asleep waiting on it.
    if (was_empty && bell_ != nullptr) bell_->ring();
    return true;
  }

  /// Drain-barrier owner or abort path: no more pushes will be accepted.
  /// Idempotent, callable from any thread. Wakes the consumer so it can
  /// observe `done()` and any producer blocked in push() so it can fail out.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      closed_ = true;
    }
    space_cv_.notify_all();
    if (bell_ != nullptr) bell_->ring();
  }

  /// Consumer: dequeue into `out` if anything is queued. Never blocks.
  bool try_pop(T& out) {
    bool was_full = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (size_ == 0) return false;
      was_full = size_ == slots_.size();
      out = std::move(slots_[head_]);
      head_ = (head_ + 1) % slots_.size();
      --size_;
    }
    if (was_full) space_cv_.notify_one();
    return true;
  }

  /// Consumer: true once the ring is closed and fully drained.
  bool done() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_ && size_ == 0;
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

  /// Times the producer slept on a full ring (backpressure stalls). Read
  /// after the run for bench/test introspection.
  std::uint64_t push_waits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return push_waits_;
  }

  /// Total values ever pushed (post-run introspection).
  std::uint64_t pushes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pushes_;
  }

  /// Pushes refused because the ring was already closed.
  std::uint64_t dropped_after_close() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_after_close_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable space_cv_;
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool closed_ = false;
  std::uint64_t push_waits_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t stall_ns_ = 0;
  std::uint64_t dropped_after_close_ = 0;
  std::uint64_t occupancy_high_water_ = 0;
  Doorbell* bell_ = nullptr;
};

}  // namespace tq
