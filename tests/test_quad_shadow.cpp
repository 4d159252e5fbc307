#include <gtest/gtest.h>

#include <vector>

#include "quad/shadow.hpp"

namespace tq::quad {
namespace {

TEST(ShadowMemory, UnwrittenBytesHaveNoProducer) {
  ShadowMemory shadow;
  EXPECT_EQ(shadow.producer_of(0), kNoProducer);
  EXPECT_EQ(shadow.producer_of(0x12345678), kNoProducer);
  EXPECT_EQ(shadow.resident_pages(), 0u);
}

TEST(ShadowMemory, MarkAndQuery) {
  ShadowMemory shadow;
  shadow.mark_write(100, 8, 7);
  for (std::uint64_t a = 100; a < 108; ++a) EXPECT_EQ(shadow.producer_of(a), 7);
  EXPECT_EQ(shadow.producer_of(99), kNoProducer);
  EXPECT_EQ(shadow.producer_of(108), kNoProducer);
}

TEST(ShadowMemory, LastWriterWins) {
  ShadowMemory shadow;
  shadow.mark_write(100, 8, 1);
  shadow.mark_write(104, 8, 2);
  EXPECT_EQ(shadow.producer_of(100), 1);
  EXPECT_EQ(shadow.producer_of(103), 1);
  EXPECT_EQ(shadow.producer_of(104), 2);
  EXPECT_EQ(shadow.producer_of(111), 2);
}

TEST(ShadowMemory, CrossPageMark) {
  ShadowMemory shadow;
  const std::uint64_t addr = ShadowMemory::kPageSize - 3;
  shadow.mark_write(addr, 6, 9);
  for (std::uint64_t a = addr; a < addr + 6; ++a) EXPECT_EQ(shadow.producer_of(a), 9);
  EXPECT_EQ(shadow.resident_pages(), 2u);
}

struct Run {
  ProducerId producer;
  std::uint32_t length;
};

std::vector<Run> collect_runs(const ShadowMemory& shadow, std::uint64_t addr,
                              std::uint32_t size) {
  std::vector<Run> runs;
  shadow.for_each_producer(addr, size, [&](ProducerId p, std::uint32_t len) {
    runs.push_back(Run{p, len});
  });
  return runs;
}

TEST(ShadowMemory, VisitorCoalescesRuns) {
  ShadowMemory shadow;
  shadow.mark_write(200, 4, 1);
  shadow.mark_write(204, 4, 2);
  const auto runs = collect_runs(shadow, 200, 8);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].producer, 1);
  EXPECT_EQ(runs[0].length, 4u);
  EXPECT_EQ(runs[1].producer, 2);
  EXPECT_EQ(runs[1].length, 4u);
}

TEST(ShadowMemory, VisitorCoversUnwrittenGaps) {
  ShadowMemory shadow;
  shadow.mark_write(300, 2, 5);
  const auto runs = collect_runs(shadow, 298, 8);
  // none(2), 5(2), none(4)
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].producer, kNoProducer);
  EXPECT_EQ(runs[0].length, 2u);
  EXPECT_EQ(runs[1].producer, 5);
  EXPECT_EQ(runs[1].length, 2u);
  EXPECT_EQ(runs[2].producer, kNoProducer);
  EXPECT_EQ(runs[2].length, 4u);
}

TEST(ShadowMemory, VisitorTotalLengthAlwaysMatches) {
  ShadowMemory shadow;
  shadow.mark_write(ShadowMemory::kPageSize - 10, 20, 3);
  std::uint32_t total = 0;
  shadow.for_each_producer(ShadowMemory::kPageSize - 30, 64,
                           [&](ProducerId, std::uint32_t len) { total += len; });
  EXPECT_EQ(total, 64u);
}

TEST(ShadowMemory, VisitorOnEmptyPageSingleRun) {
  ShadowMemory shadow;
  const auto runs = collect_runs(shadow, 5000, 16);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].producer, kNoProducer);
  EXPECT_EQ(runs[0].length, 16u);
}

TEST(ShadowMemoryAdopt, ProducersSurviveAndSourceIsEmptyAndReusable) {
  // Two shards own disjoint pages, as the sharded pipeline routes them.
  ShadowMemory mine;
  ShadowMemory theirs;
  for (std::uint64_t page = 0; page < 64; ++page) {
    ShadowMemory& owner = page % 2 == 0 ? mine : theirs;
    owner.mark_write(page * ShadowMemory::kPageSize + 8, 16,
                     static_cast<ProducerId>(page));
  }
  const std::uint64_t theirs_last = 63 * ShadowMemory::kPageSize + 8;
  mine.adopt_disjoint(std::move(theirs));

  EXPECT_EQ(mine.resident_pages(), 64u);
  for (std::uint64_t page = 0; page < 64; ++page) {
    const std::uint64_t base = page * ShadowMemory::kPageSize;
    EXPECT_EQ(mine.producer_of(base + 7), kNoProducer);
    EXPECT_EQ(mine.producer_of(base + 8), static_cast<ProducerId>(page));
    EXPECT_EQ(mine.producer_of(base + 23), static_cast<ProducerId>(page));
    EXPECT_EQ(mine.producer_of(base + 24), kNoProducer);
  }

  // The source is empty, and a write to the page it touched last lands in a
  // fresh page of its own, not in the adopted one.
  EXPECT_EQ(theirs.resident_pages(), 0u);
  EXPECT_EQ(theirs.producer_of(theirs_last), kNoProducer);
  theirs.mark_write(theirs_last, 4, 500);
  EXPECT_EQ(theirs.resident_pages(), 1u);
  EXPECT_EQ(theirs.producer_of(theirs_last), 500);
  EXPECT_EQ(mine.producer_of(theirs_last), 63);

  // Adopting into an empty shadow, and adopting an empty one, both work.
  ShadowMemory fresh;
  fresh.adopt_disjoint(std::move(theirs));
  EXPECT_EQ(fresh.producer_of(theirs_last), 500);
  mine.adopt_disjoint(std::move(theirs));
  EXPECT_EQ(mine.resident_pages(), 64u);
}

TEST(ShadowMemoryAdoptDeathTest, PageOwnedByTwoShardsTripsTheCheck) {
  ShadowMemory a;
  ShadowMemory b;
  a.mark_write(0x5000, 4, 1);
  b.mark_write(0x9000, 4, 2);
  b.mark_write(0x5ff0, 4, 2);  // same page as a's write
  EXPECT_DEATH(a.adopt_disjoint(std::move(b)), "shadow shards overlap");
}

}  // namespace
}  // namespace tq::quad
