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

TEST(ShadowMemory, PartialWritesMakeAWordMixed) {
  ShadowMemory shadow;
  shadow.mark_write(0x1000, 8, 1);
  shadow.mark_write(0x1002, 2, 2);
  shadow.mark_write(0x1007, 1, 3);
  const ProducerId want[8] = {1, 1, 2, 2, 1, 1, 1, 3};
  for (std::uint64_t b = 0; b < 8; ++b) EXPECT_EQ(shadow.producer_of(0x1000 + b), want[b]);
  EXPECT_EQ(shadow.producer_of(0x0fff), kNoProducer);
  EXPECT_EQ(shadow.producer_of(0x1008), kNoProducer);
  // One page of cells plus the page's escape array.
  EXPECT_EQ(shadow.resident_bytes(), 4096u + 8192u);
}

TEST(ShadowMemory, MixedWordCollapsesBackToUniform) {
  ShadowMemory shadow;
  shadow.mark_write(0x2000, 8, 4);
  shadow.mark_write(0x2004, 4, 5);  // mixed: 4 4 4 4 5 5 5 5
  shadow.mark_write(0x2000, 4, 5);  // uniform 5 again
  const auto runs = collect_runs(shadow, 0x2000, 8);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].producer, 5);
  EXPECT_EQ(runs[0].length, 8u);
  // The uniform word takes the word path again: a same-producer rewrite.
  EXPECT_EQ(shadow.mark_word(0x2000, 8, 5, false), ShadowMemory::kOutInclKnown);
}

TEST(ShadowMemory, VisitorRunsAreMaximalAcrossUniformAndMixedWords) {
  ShadowMemory shadow;
  const std::uint64_t base = 0x3000;
  shadow.mark_write(base, 8, 1);           // word 0: uniform 1
  shadow.mark_write(base + 8, 8, 3);       // word 1: 1 1 1 1 3 3 3 3
  shadow.mark_write(base + 8, 4, 1);
  shadow.mark_write(base + 16, 8, 3);      // word 2: uniform 3
  shadow.mark_write(base + 24, 8, 1);      // word 3: 3 3 1 1 1 1 1 1
  shadow.mark_write(base + 24, 2, 3);
  shadow.mark_write(base + 32, 8, 1);      // word 4: uniform 1
  const auto runs = collect_runs(shadow, base, 48);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].producer, 1);
  EXPECT_EQ(runs[0].length, 12u);
  EXPECT_EQ(runs[1].producer, 3);
  EXPECT_EQ(runs[1].length, 14u);
  EXPECT_EQ(runs[2].producer, 1);
  EXPECT_EQ(runs[2].length, 14u);
  EXPECT_EQ(runs[3].producer, kNoProducer);
  EXPECT_EQ(runs[3].length, 8u);
  // Starting and ending inside mixed words.
  const auto inner = collect_runs(shadow, base + 10, 18);
  ASSERT_EQ(inner.size(), 3u);
  EXPECT_EQ(inner[0].producer, 1);
  EXPECT_EQ(inner[0].length, 2u);
  EXPECT_EQ(inner[1].producer, 3);
  EXPECT_EQ(inner[1].length, 14u);
  EXPECT_EQ(inner[2].producer, 1);
  EXPECT_EQ(inner[2].length, 2u);
}

TEST(ShadowMemory, WordWritesReportWhatTheWriterAlreadyCovers) {
  ShadowMemory shadow;
  EXPECT_EQ(shadow.mark_word(0x4000, 8, 1, false), 0u);   // new producer
  EXPECT_EQ(shadow.mark_word(0x4000, 4, 1, true), ShadowMemory::kOutInclKnown);
  EXPECT_EQ(shadow.mark_word(0x4000, 8, 1, true),         // full excl write...
            ShadowMemory::kOutInclKnown);
  EXPECT_EQ(shadow.mark_word(0x4004, 4, 1, true),         // ...covers the word
            ShadowMemory::kOutInclKnown | ShadowMemory::kOutExclKnown);
  EXPECT_EQ(shadow.mark_word(0x4000, 2, 2, true), 0u);    // another producer
  EXPECT_EQ(shadow.producer_of(0x4000), 2);
  EXPECT_EQ(shadow.producer_of(0x4002), 1);
  EXPECT_EQ(shadow.mark_word(0x4008, 8, 3, true),
            0u);
  EXPECT_EQ(shadow.mark_word(0x4008, 8, 3, false),
            ShadowMemory::kOutInclKnown | ShadowMemory::kOutExclKnown);
}

TEST(ShadowMemory, ReadMemoHitsUntilTheProducerChanges) {
  ShadowMemory shadow;
  // Non-resident pages and fresh readers are never known.
  EXPECT_FALSE(shadow.read_word(0x5000, 8, 7, true).known);
  shadow.mark_word(0x5000, 8, 1, true);
  auto read = shadow.read_word(0x5000, 4, 7, true);
  EXPECT_EQ(read.producer, 1);
  EXPECT_FALSE(read.known);
  EXPECT_TRUE(shadow.read_word(0x5000, 4, 7, true).known);
  EXPECT_TRUE(shadow.read_word(0x5002, 2, 7, false).known);  // stack read of covered bytes
  EXPECT_FALSE(shadow.read_word(0x5004, 4, 7, false).known); // new bytes, stack only
  EXPECT_TRUE(shadow.read_word(0x5000, 8, 7, false).known);
  EXPECT_FALSE(shadow.read_word(0x5004, 4, 7, true).known);  // no excl bits there yet
  EXPECT_TRUE(shadow.read_word(0x5004, 4, 7, true).known);
  EXPECT_FALSE(shadow.read_word(0x5000, 8, 8, true).known);  // another reader
  EXPECT_FALSE(shadow.read_word(0x5000, 8, 7, true).known);  // evicted the memo
  EXPECT_TRUE(shadow.read_word(0x5000, 8, 7, true).known);
  shadow.mark_word(0x5000, 8, 1, true);                      // same producer
  EXPECT_TRUE(shadow.read_word(0x5000, 8, 7, true).known);
  shadow.mark_word(0x5000, 8, 2, true);                      // new producer
  read = shadow.read_word(0x5000, 8, 7, true);
  EXPECT_EQ(read.producer, 2);
  EXPECT_FALSE(read.known);
  EXPECT_TRUE(shadow.read_word(0x5000, 8, 7, true).known);
  shadow.mark_write(0x4ffc, 8, 2);  // byte-run path: clears, never sets
  EXPECT_FALSE(shadow.read_word(0x5000, 8, 7, true).known);
  shadow.mark_word(0x5004, 4, 3, true);
  EXPECT_EQ(shadow.read_word(0x5000, 8, 7, true).producer, kMixed);
  EXPECT_FALSE(shadow.read_word(0x5000, 8, 7, true).known);
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

TEST(ShadowMemoryAdopt, EscapeArraysTravelWithTheirPages) {
  ShadowMemory mine;
  ShadowMemory theirs;
  mine.mark_write(0x6000, 8, 1);
  theirs.mark_write(0x7000, 8, 2);
  theirs.mark_write(0x7003, 2, 3);  // mixed word: the page grows an escape
  theirs.mark_write(0x8000, 8, 4);
  EXPECT_EQ(theirs.resident_bytes(), 2 * 4096u + 8192u);
  mine.adopt_disjoint(std::move(theirs));
  EXPECT_EQ(theirs.resident_bytes(), 0u);
  EXPECT_EQ(mine.resident_pages(), 3u);
  EXPECT_EQ(mine.resident_bytes(), 3 * 4096u + 8192u);
  const ProducerId want[8] = {2, 2, 2, 3, 3, 2, 2, 2};
  for (std::uint64_t b = 0; b < 8; ++b) EXPECT_EQ(mine.producer_of(0x7000 + b), want[b]);
  const auto runs = collect_runs(mine, 0x7000, 8);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[1].producer, 3);
  EXPECT_EQ(runs[1].length, 2u);
  // The adopted page keeps working: collapse the word through the escape.
  mine.mark_write(0x7003, 2, 2);
  EXPECT_EQ(collect_runs(mine, 0x7000, 8).size(), 1u);
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
