#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "support/spsc_ring.hpp"
#include "support/thread_pool.hpp"

namespace tq {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelForBlocks, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_blocks(pool, 0, 1000,
                      [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                        for (std::uint64_t i = begin; i < end; ++i) {
                          hits[i].fetch_add(1, std::memory_order_relaxed);
                        }
                      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForBlocks, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for_blocks(pool, 10, 10,
                      [&](std::uint64_t, std::uint64_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForBlocks, SmallRangeFewerBlocksThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> blocks{0};
  std::atomic<std::uint64_t> total{0};
  parallel_for_blocks(pool, 0, 3,
                      [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                        blocks.fetch_add(1);
                        total.fetch_add(end - begin);
                      });
  EXPECT_EQ(blocks.load(), 3);
  EXPECT_EQ(total.load(), 3u);
}

TEST(ParallelForBlocks, NonZeroOffsetRange) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sum{0};
  parallel_for_blocks(pool, 100, 200,
                      [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                        std::uint64_t local = 0;
                        for (std::uint64_t i = begin; i < end; ++i) local += i;
                        sum.fetch_add(local);
                      });
  std::uint64_t want = 0;
  for (std::uint64_t i = 100; i < 200; ++i) want += i;
  EXPECT_EQ(sum.load(), want);
}

TEST(SpscRing, FifoSingleThread) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  ring.push(1);
  ring.push(2);
  ring.push(3);
  int out = 0;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);
  ring.push(4);  // wraps around the storage
  for (int want : {2, 3, 4}) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_EQ(ring.pushes(), 4u);
  EXPECT_EQ(ring.push_waits(), 0u);
}

TEST(SpscRing, DoneOnlyWhenClosedAndDrained) {
  SpscRing<int> ring(2);
  ring.push(7);
  EXPECT_FALSE(ring.done());
  ring.close();
  EXPECT_FALSE(ring.done());  // closed but not drained
  ring.close();               // idempotent
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(ring.done());
}

// Capacity 1 forces the producer through the backpressure wait on nearly
// every push; the consumer must still see every value exactly once, in order.
TEST(SpscRing, CapacityOneStressPreservesOrder) {
  static constexpr int kValues = 20000;
  SpscRing<int> ring(1);
  std::thread consumer([&ring] {
    int expected = 0;
    int out = 0;
    while (!ring.done()) {
      if (ring.try_pop(out)) {
        ASSERT_EQ(out, expected);
        ++expected;
      } else {
        std::this_thread::yield();
      }
    }
    EXPECT_EQ(expected, kValues);
  });
  for (int i = 0; i < kValues; ++i) ring.push(i);
  ring.close();
  consumer.join();
  EXPECT_EQ(ring.pushes(), static_cast<std::uint64_t>(kValues));
}

// Pushing after close is a defined outcome, not a crash: the value is
// dropped, push reports false, and the drop is counted so a teardown race
// shows up in the metrics rather than aborting the process.
TEST(SpscRing, PushAfterCloseDropsAndCounts) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.push(1));
  ring.close();
  EXPECT_FALSE(ring.push(2));
  EXPECT_FALSE(ring.push(3));
  EXPECT_EQ(ring.pushes(), 1u);
  EXPECT_EQ(ring.dropped_after_close(), 2u);
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);          // the accepted value survives
  EXPECT_FALSE(ring.try_pop(out));  // the dropped ones never landed
  EXPECT_TRUE(ring.done());
}

// A producer blocked on a full ring must wake when the ring is closed out
// from under it (the abort path) instead of waiting forever on space that
// will never come.
TEST(SpscRing, CloseWakesBlockedProducer) {
  SpscRing<int> ring(1);
  ASSERT_TRUE(ring.push(1));  // ring now full
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    const bool accepted = ring.push(2);  // blocks: full and nobody pops
    EXPECT_FALSE(accepted);
    returned.store(true);
  });
  while (ring.push_waits() == 0) std::this_thread::yield();
  ring.close();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(ring.dropped_after_close(), 1u);
}

TEST(SpscRing, StatsSnapshotTracksOccupancyHighWater) {
  SpscRing<int> ring(4);
  ring.push(1);
  ring.push(2);
  ring.push(3);
  int out = 0;
  ring.try_pop(out);
  ring.push(4);
  const auto stats = ring.stats();
  EXPECT_EQ(stats.pushes, 4u);
  EXPECT_EQ(stats.occupancy_high_water, 3u);
  EXPECT_EQ(stats.dropped_after_close, 0u);
}

TEST(SpscRing, MoveOnlyPayload) {
  SpscRing<std::unique_ptr<int>> ring(2);
  ring.push(std::make_unique<int>(42));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

// The scan-then-sleep protocol: a worker that snapshots the epoch, finds all
// rings empty, and sleeps must be woken by a push that lands at any point
// after the snapshot — including between scan and sleep (the lost-wakeup
// window wait_past closes).
TEST(Doorbell, PushWakesSleepingWorker) {
  Doorbell bell;
  SpscRing<int> a(4);
  SpscRing<int> b(4);
  a.set_doorbell(&bell);
  b.set_doorbell(&bell);

  std::atomic<int> drained{0};
  std::thread worker([&] {
    for (;;) {
      const std::uint64_t seen = bell.epoch();
      bool progress = false;
      int out = 0;
      while (a.try_pop(out)) {
        drained.fetch_add(out);
        progress = true;
      }
      while (b.try_pop(out)) {
        drained.fetch_add(out);
        progress = true;
      }
      if (a.done() && b.done()) return;
      if (!progress) bell.wait_past(seen);
    }
  });

  for (int i = 1; i <= 50; ++i) {
    a.push(i);
    b.push(100 + i);
  }
  a.close();
  b.close();
  worker.join();
  // 1+..+50 plus 101+..+150.
  EXPECT_EQ(drained.load(), 50 * 51 / 2 + 100 * 50 + 50 * 51 / 2);
}

TEST(Doorbell, CloseRingsTheBell) {
  Doorbell bell;
  SpscRing<int> ring(1);
  ring.set_doorbell(&bell);
  const std::uint64_t before = bell.epoch();
  std::thread waiter([&] { bell.wait_past(before); });
  ring.close();  // close on an empty ring must still wake sleepers
  waiter.join();
  EXPECT_GT(bell.epoch(), before);
}

// The Doorbell fast path: with no waiter registered, ring() and epoch() are
// plain atomic operations. Observable contract: every ring() advances the
// epoch exactly once, and a wait_past() whose snapshot is already stale
// returns without sleeping.
TEST(Doorbell, RingAdvancesEpochWithoutWaiters) {
  Doorbell bell;
  const std::uint64_t start = bell.epoch();
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    bell.ring();
    EXPECT_EQ(bell.epoch(), start + i);
  }
  bell.wait_past(start);  // stale snapshot: must return immediately
}

// Hammer ring() against a repeatedly sleeping waiter to stress the
// waiter-registration window of the eventcount protocol (run under TSan in
// tier1). A lost wakeup hangs this test; the trailing ring-until-done loop
// guarantees the waiter's final sleep is always released.
TEST(Doorbell, RingStressNeverLosesWakeups) {
  Doorbell bell;
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> wakeups{0};
  std::thread waiter([&] {
    while (!stop.load()) {
      const std::uint64_t seen = bell.epoch();
      bell.wait_past(seen);
      wakeups.fetch_add(1);
    }
    done.store(true);
  });
  // Ring until the waiter has observably cycled through wait_past() many
  // times (a fixed ring count could finish before the thread even starts).
  while (wakeups.load() < 1000) bell.ring();
  stop.store(true);
  while (!done.load()) {
    bell.ring();
    std::this_thread::yield();
  }
  waiter.join();
  EXPECT_GT(wakeups.load(), 0u);
}

// Every full encounter blocks, and the wait accounting reflects each
// episode.
TEST(SpscRing, WaitAccountingAccumulatesAcrossStalls) {
  SpscRing<int> ring(1);
  ASSERT_TRUE(ring.push(0));
  for (std::uint64_t i = 1; i <= 3; ++i) {
    std::thread consumer([&] {
      while (ring.push_waits() < i) std::this_thread::yield();
      // Measurable stall: the producer is registered asleep by now.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      int out = 0;
      EXPECT_TRUE(ring.try_pop(out));
    });
    ASSERT_TRUE(ring.push(static_cast<int>(i)));
    consumer.join();
  }
  const auto stats = ring.stats();
  EXPECT_EQ(stats.push_waits, 3u);
  EXPECT_GE(stats.stall_ns, 1'000'000u);  // three >=5 ms sleeps behind it
  EXPECT_EQ(stats.occupancy_high_water, 1u);
}

// occupancy_high_water reflects real queue depth even when close races the
// producer: accepted pushes raise it, dropped ones don't.
TEST(SpscRing, HighWaterIgnoresDroppedPushes) {
  SpscRing<int> ring(3);
  ASSERT_TRUE(ring.push(1));
  ASSERT_TRUE(ring.push(2));
  ring.close();
  EXPECT_FALSE(ring.push(3));
  const auto stats = ring.stats();
  EXPECT_EQ(stats.occupancy_high_water, 2u);
  EXPECT_EQ(stats.dropped_after_close, 1u);
  EXPECT_EQ(stats.pushes, 2u);
  EXPECT_EQ(stats.push_waits, 0u);
}

}  // namespace
}  // namespace tq
