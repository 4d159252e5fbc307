#include <gtest/gtest.h>

#include <vector>

#include "quad/shadow.hpp"
#include "support/paged_memory.hpp"

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

TEST(ShadowMemory, AlignedHalfWritesStayOutOfTheEscape) {
  constexpr unsigned kBoth = ShadowMemory::kOutInclKnown | ShadowMemory::kOutExclKnown;
  ShadowMemory shadow;
  EXPECT_EQ(shadow.mark_word(0x9004, 4, 2, false), 0u);
  EXPECT_EQ(shadow.mark_word(0x9000, 4, 1, true), 0u);
  EXPECT_EQ(shadow.resident_escapes(), 0u);
  EXPECT_EQ(shadow.resident_bytes(), 4096u);
  auto runs = collect_runs(shadow, 0x9000, 8);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].producer, 1);
  EXPECT_EQ(runs[0].length, 4u);
  EXPECT_EQ(runs[1].producer, 2);
  EXPECT_EQ(runs[1].length, 4u);
  // A read inside one half takes the word path; one across both halves
  // takes the byte-wise path.
  EXPECT_EQ(shadow.read_word(0x9000, 4, 7, true).producer, 1);
  EXPECT_EQ(shadow.read_word(0x9006, 2, 7, true).producer, 2);
  EXPECT_EQ(shadow.read_word(0x9002, 4, 7, true).producer, kMixed);
  EXPECT_EQ(shadow.read_word(0x9000, 8, 7, true).producer, kMixed);
  // A half rewritten by its own producer: its incl OUT bits are known, and
  // its excl ones once a non-stack write of the whole half set them.
  EXPECT_EQ(shadow.mark_word(0x9000, 4, 1, false), kBoth);
  EXPECT_EQ(shadow.mark_word(0x9004, 4, 2, true), ShadowMemory::kOutInclKnown);
  EXPECT_EQ(shadow.mark_word(0x9006, 2, 2, true), kBoth);
  // The low half's producer takes the high half: one producer again.
  EXPECT_EQ(shadow.mark_word(0x9004, 4, 1, true), 0u);
  runs = collect_runs(shadow, 0x9000, 8);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].producer, 1);
  EXPECT_EQ(shadow.read_word(0x9000, 8, 7, true).producer, 1);
  EXPECT_EQ(shadow.mark_word(0x9000, 8, 1, true), kBoth);
  // A write that covers one half and rewrites part of a half its producer
  // already holds, and a multi-word write that covers whole halves, stay
  // out of the escape too.
  shadow.mark_word(0x9008, 4, 4, false);
  EXPECT_EQ(shadow.mark_word(0x900a, 6, 4, false), 0u);
  EXPECT_EQ(collect_runs(shadow, 0x9008, 8).size(), 1u);
  shadow.mark_write(0x9014, 8, 3);
  EXPECT_EQ(shadow.producer_of(0x9013), kNoProducer);
  EXPECT_EQ(shadow.producer_of(0x9014), 3);
  EXPECT_EQ(shadow.producer_of(0x901b), 3);
  EXPECT_EQ(shadow.producer_of(0x901c), kNoProducer);
  EXPECT_EQ(shadow.resident_escapes(), 0u);
}

TEST(ShadowMemory, SubHalfWritesEscapeAndCollapseBackToHalves) {
  ShadowMemory shadow;
  shadow.mark_word(0xa000, 4, 1, true);
  shadow.mark_word(0xa004, 4, 2, true);
  EXPECT_EQ(shadow.mark_word(0xa004, 2, 3, true), 0u);  // splits the high half
  EXPECT_EQ(shadow.resident_escapes(), 1u);
  EXPECT_EQ(shadow.resident_bytes(), 4096u + 8192u);
  auto runs = collect_runs(shadow, 0xa000, 8);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].producer, 1);
  EXPECT_EQ(runs[0].length, 4u);
  EXPECT_EQ(runs[1].producer, 3);
  EXPECT_EQ(runs[1].length, 2u);
  EXPECT_EQ(runs[2].producer, 2);
  EXPECT_EQ(runs[2].length, 2u);
  EXPECT_EQ(shadow.read_word(0xa000, 4, 7, true).producer, 1);  // the low half's
  EXPECT_EQ(shadow.read_word(0xa004, 2, 7, true).producer, kMixed);
  // The high half agrees again: two uniform halves, read on the word path.
  EXPECT_EQ(shadow.mark_word(0xa004, 2, 2, true), 0u);
  runs = collect_runs(shadow, 0xa000, 8);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1].producer, 2);
  EXPECT_EQ(runs[1].length, 4u);
  EXPECT_EQ(shadow.read_word(0xa004, 4, 7, true).producer, 2);
  EXPECT_EQ(shadow.read_word(0xa000, 8, 7, true).producer, kMixed);
  // A collapse through the escape claims no excl OUT coverage.
  EXPECT_EQ(shadow.mark_word(0xa004, 4, 2, true), ShadowMemory::kOutInclKnown);
  EXPECT_EQ(shadow.resident_escapes(), 1u);  // the page keeps its escape
}

TEST(ShadowMemoryDirectory, LookupsAgreeOnBothSidesOfTheArenaLimit) {
  constexpr unsigned kBoth = ShadowMemory::kOutInclKnown | ShadowMemory::kOutExclKnown;
  constexpr std::uint64_t kLimit = ShadowMemory::kDirectoryPages * ShadowMemory::kPageSize;
  static_assert(kLimit == PagedMemory::kArenaBytes && kLimit >> 12 == 0x80000);
  const std::uint64_t below = kLimit - ShadowMemory::kPageSize;  // page 0x7ffff
  const std::uint64_t top = 0 - ShadowMemory::kPageSize;         // the last page
  ShadowMemory shadow;
  const std::uint64_t bases[] = {below, kLimit, top};
  for (ProducerId p = 0; p < 3; ++p) {
    EXPECT_EQ(shadow.mark_word(bases[p] + 16, 8, p, true), 0u);
  }
  for (ProducerId p = 0; p < 3; ++p) {
    EXPECT_EQ(shadow.mark_word(bases[p] + 16, 8, p, true), kBoth) << p;
    const auto read = shadow.read_word(bases[p] + 16, 8, 9, false);
    EXPECT_EQ(read.producer, p);
    EXPECT_FALSE(read.known);
    EXPECT_TRUE(shadow.read_word(bases[p] + 20, 4, 9, false).known);
    EXPECT_EQ(shadow.producer_of(bases[p] + 23), p);
    EXPECT_EQ(shadow.producer_of(bases[p] + 24), kNoProducer);
  }
  EXPECT_EQ(shadow.read_word(top + 8, 8, 9, false).producer, kNoProducer);
  EXPECT_EQ(shadow.read_word(kLimit + ShadowMemory::kPageSize, 8, 9, false).producer,
            kNoProducer);
  EXPECT_EQ(shadow.resident_pages(), 3u);

  // One write across 2^31, read back on both sides of it.
  shadow.mark_write(kLimit - 4, 8, 4);
  EXPECT_EQ(shadow.resident_pages(), 3u);
  auto runs = collect_runs(shadow, kLimit - 8, 16);  // runs stop at page ends
  ASSERT_EQ(runs.size(), 4u);
  const ProducerId want[] = {kNoProducer, 4, 4, kNoProducer};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].producer, want[i]) << i;
    EXPECT_EQ(runs[i].length, 4u) << i;
  }
  EXPECT_EQ(shadow.read_word(kLimit - 4, 4, 9, false).producer, 4);
  EXPECT_EQ(shadow.read_word(kLimit, 4, 9, false).producer, 4);

  // The top page, up to the end of the address space.
  runs = collect_runs(shadow, top, ShadowMemory::kPageSize);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[1].producer, 2);
  EXPECT_EQ(runs[1].length, 8u);
  EXPECT_EQ(runs[2].length, ShadowMemory::kPageSize - 24);
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

TEST(ShadowMemoryAdopt, AdoptedLowPagesAreFoundThroughTheDirectory) {
  constexpr std::uint64_t kLimit = ShadowMemory::kDirectoryPages * ShadowMemory::kPageSize;
  ShadowMemory mine;
  ShadowMemory theirs;
  mine.mark_word(0x10000, 8, 1, true);
  theirs.mark_word(0x20000, 8, 2, true);
  theirs.mark_word(kLimit + 0x1000, 8, 3, true);
  mine.adopt_disjoint(std::move(theirs));
  // Looked up before any write to them touches the adopter's pages.
  EXPECT_EQ(mine.read_word(0x20000, 8, 7, true).producer, 2);
  EXPECT_EQ(mine.producer_of(0x20007), 2);
  EXPECT_EQ(collect_runs(mine, 0x1fffc, 8).size(), 2u);
  EXPECT_EQ(mine.read_word(kLimit + 0x1000, 8, 7, true).producer, 3);
  // The adopted cells keep their flags: same-producer rewrites are known.
  EXPECT_EQ(mine.mark_word(0x20000, 8, 2, true),
            ShadowMemory::kOutInclKnown | ShadowMemory::kOutExclKnown);
  EXPECT_EQ(mine.resident_pages(), 3u);

  // The source is empty, and reused: its low page is a fresh one.
  EXPECT_EQ(theirs.read_word(0x20000, 8, 7, true).producer, kNoProducer);
  EXPECT_EQ(theirs.producer_of(0x20000), kNoProducer);
  EXPECT_EQ(theirs.mark_word(0x20000, 8, 5, false), 0u);
  EXPECT_EQ(theirs.producer_of(0x20000), 5);
  EXPECT_EQ(theirs.resident_pages(), 1u);
  EXPECT_EQ(mine.producer_of(0x20000), 2);

  // An adopter with no directory yet makes one for the low pages it takes.
  ShadowMemory fresh;
  fresh.adopt_disjoint(std::move(theirs));
  EXPECT_EQ(fresh.read_word(0x20000, 8, 7, true).producer, 5);
  EXPECT_EQ(fresh.mark_word(0x20000, 8, 5, false), ShadowMemory::kOutInclKnown);
  EXPECT_EQ(fresh.resident_pages(), 1u);
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
