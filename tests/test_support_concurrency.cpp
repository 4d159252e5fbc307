// The two threading primitives: the blocking SPSC ring every pipeline lane
// drains on its own thread, and parallel_for_blocks, which runs each block
// of an index range on a thread of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/parallel_for.hpp"
#include "support/spsc_ring.hpp"

namespace tq {
namespace {

TEST(ParallelForBlocks, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_blocks(3, 0, 1000,
                      [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                        for (std::uint64_t i = begin; i < end; ++i) {
                          hits[i].fetch_add(1, std::memory_order_relaxed);
                        }
                      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForBlocks, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for_blocks(2, 10, 10,
                      [&](std::uint64_t, std::uint64_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(parallel_blocks(2, 10, 10), 0u);
}

TEST(ParallelForBlocks, SmallRangeFewerBlocksThanWorkers) {
  std::atomic<int> blocks{0};
  std::atomic<std::uint64_t> total{0};
  parallel_for_blocks(8, 0, 3,
                      [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                        blocks.fetch_add(1);
                        total.fetch_add(end - begin);
                      });
  EXPECT_EQ(blocks.load(), 3);
  EXPECT_EQ(total.load(), 3u);
}

TEST(ParallelForBlocks, NonZeroOffsetRange) {
  std::atomic<std::uint64_t> sum{0};
  parallel_for_blocks(2, 100, 200,
                      [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                        std::uint64_t local = 0;
                        for (std::uint64_t i = begin; i < end; ++i) local += i;
                        sum.fetch_add(local);
                      });
  std::uint64_t want = 0;
  for (std::uint64_t i = 100; i < 200; ++i) want += i;
  EXPECT_EQ(sum.load(), want);
}

// More threads than indices: one thread per index, never more. Every body
// gets a one-index block whose block number is the index itself, and no
// two bodies share a thread.
TEST(ParallelForBlocks, ThreadsAboveRangeLengthRunOneBlockPerIndex) {
  constexpr std::uint64_t kBegin = 40;
  constexpr std::uint64_t kLength = 5;
  EXPECT_EQ(parallel_blocks(64, kBegin, kBegin + kLength), kLength);
  std::mutex mutex;
  std::vector<std::thread::id> ids;
  std::vector<int> calls(kLength, 0);
  parallel_for_blocks(64, kBegin, kBegin + kLength,
                      [&](std::uint64_t begin, std::uint64_t end, unsigned block) {
                        std::lock_guard<std::mutex> lock(mutex);
                        EXPECT_EQ(end - begin, 1u);
                        EXPECT_EQ(begin - kBegin, block);
                        ++calls.at(block);
                        ids.push_back(std::this_thread::get_id());
                      });
  for (int count : calls) EXPECT_EQ(count, 1);
  ASSERT_EQ(ids.size(), kLength);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

// A throwing body does not take the process down: every block still runs,
// and the lowest-indexed block's exception reaches the caller.
TEST(ParallelForBlocks, RethrowsLowestBlockError) {
  std::atomic<int> ran{0};
  try {
    parallel_for_blocks(4, 0, 4, [&](std::uint64_t, std::uint64_t, unsigned block) {
      ran.fetch_add(1);
      if (block == 1) throw std::runtime_error("block 1");
      if (block == 3) throw std::runtime_error("block 3");
    });
    FAIL() << "expected the body's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "block 1");
  }
  EXPECT_EQ(ran.load(), 4);
}

TEST(SpscRing, FifoSingleThread) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  ring.push(1);
  ring.push(2);
  ring.push(3);
  int out = 0;
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 1);
  ring.push(4);  // wraps around the storage
  ring.close();
  for (int want : {2, 3, 4}) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, want);
  }
  EXPECT_FALSE(ring.pop(out));
  EXPECT_EQ(ring.stats().pushes, 4u);
  EXPECT_EQ(ring.stats().push_waits, 0u);
}

// pop() reports the end of the stream only once the ring is closed and every
// value pushed before the close has been delivered.
TEST(SpscRing, DoneOnlyWhenClosedAndDrained) {
  SpscRing<int> ring(2);
  ring.push(7);
  ring.close();
  ring.close();  // idempotent
  int out = 0;
  ASSERT_TRUE(ring.pop(out));  // closed but not drained
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(ring.pop(out));
  EXPECT_FALSE(ring.pop(out));  // stays done
}

// A consumer asleep on an empty ring wakes for a push, and again for the
// close that ends the stream.
TEST(SpscRing, PopBlocksUntilPushOrClose) {
  SpscRing<int> ring(2);
  std::atomic<int> popped{0};
  std::thread consumer([&] {
    int out = 0;
    while (ring.pop(out)) popped.fetch_add(out);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ring.push(5);
  while (popped.load() != 5) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ring.close();  // close on an empty ring must still wake the consumer
  consumer.join();
  EXPECT_EQ(popped.load(), 5);
}

// Capacity 1 forces the producer through the backpressure wait on nearly
// every push; the consumer must still see every value exactly once, in order.
TEST(SpscRing, CapacityOneStressPreservesOrder) {
  static constexpr int kValues = 20000;
  SpscRing<int> ring(1);
  std::thread consumer([&ring] {
    int expected = 0;
    int out = 0;
    while (ring.pop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    }
    EXPECT_EQ(expected, kValues);
  });
  for (int i = 0; i < kValues; ++i) ring.push(i);
  ring.close();
  consumer.join();
  EXPECT_EQ(ring.stats().pushes, static_cast<std::uint64_t>(kValues));
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
  EXPECT_EQ(ring.stats().pushes, 1u);
  EXPECT_EQ(ring.stats().dropped_after_close, 2u);
  int out = 0;
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 1);             // the accepted value survives
  EXPECT_FALSE(ring.pop(out));  // the dropped ones never landed
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
  while (ring.stats().push_waits == 0) std::this_thread::yield();
  ring.close();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(ring.stats().dropped_after_close, 1u);
}

TEST(SpscRing, StatsSnapshotTracksOccupancyHighWater) {
  SpscRing<int> ring(4);
  ring.push(1);
  ring.push(2);
  ring.push(3);
  int out = 0;
  ring.pop(out);
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
  ASSERT_TRUE(ring.pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

// Every full encounter blocks, and the wait accounting reflects each
// episode.
TEST(SpscRing, WaitAccountingAccumulatesAcrossStalls) {
  SpscRing<int> ring(1);
  ASSERT_TRUE(ring.push(0));
  for (std::uint64_t i = 1; i <= 3; ++i) {
    std::thread consumer([&] {
      while (ring.stats().push_waits < i) std::this_thread::yield();
      // Measurable stall: the producer is registered asleep by now.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      int out = 0;
      EXPECT_TRUE(ring.pop(out));
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
