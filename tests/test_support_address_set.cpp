#include <gtest/gtest.h>

#include <set>

#include "support/address_set.hpp"
#include "support/rng.hpp"

namespace tq {
namespace {

TEST(AddressSet, EmptySet) {
  AddressSet set;
  EXPECT_EQ(set.count(), 0u);
  EXPECT_FALSE(set.contains(0));
  EXPECT_EQ(set.resident_pages(), 0u);
}

TEST(AddressSet, SingleBytes) {
  AddressSet set;
  set.insert_range(100, 1);
  set.insert_range(102, 1);
  EXPECT_EQ(set.count(), 2u);
  EXPECT_TRUE(set.contains(100));
  EXPECT_FALSE(set.contains(101));
  EXPECT_TRUE(set.contains(102));
}

TEST(AddressSet, RangeInsertCountsDistinctBytes) {
  AddressSet set;
  set.insert_range(1000, 8);
  EXPECT_EQ(set.count(), 8u);
  // Overlapping insert adds only the new bytes.
  set.insert_range(1004, 8);
  EXPECT_EQ(set.count(), 12u);
  // Fully covered insert adds nothing.
  set.insert_range(1000, 12);
  EXPECT_EQ(set.count(), 12u);
}

TEST(AddressSet, IdempotentInserts) {
  AddressSet set;
  for (int i = 0; i < 10; ++i) set.insert_range(0x4000, 4);
  EXPECT_EQ(set.count(), 4u);
}

TEST(AddressSet, CrossesPageBoundary) {
  AddressSet set;
  const std::uint64_t addr = AddressSet::kPageSize - 2;
  set.insert_range(addr, 5);
  EXPECT_EQ(set.count(), 5u);
  EXPECT_TRUE(set.contains(addr));
  EXPECT_TRUE(set.contains(addr + 4));
  EXPECT_FALSE(set.contains(addr + 5));
  EXPECT_EQ(set.resident_pages(), 2u);
}

TEST(AddressSet, CrossesWordBoundaryWithinPage) {
  AddressSet set;
  set.insert_range(60, 10);  // bits 60..69 straddle the first 64-bit word
  EXPECT_EQ(set.count(), 10u);
  for (std::uint64_t a = 60; a < 70; ++a) EXPECT_TRUE(set.contains(a));
  EXPECT_FALSE(set.contains(59));
  EXPECT_FALSE(set.contains(70));
}

TEST(AddressSet, LargeRange) {
  AddressSet set;
  set.insert_range(0, 3 * AddressSet::kPageSize);
  EXPECT_EQ(set.count(), 3 * AddressSet::kPageSize);
}

TEST(AddressSet, ClearResets) {
  AddressSet set;
  set.insert_range(10, 100);
  set.clear();
  EXPECT_EQ(set.count(), 0u);
  EXPECT_FALSE(set.contains(10));
}

/// Property: matches a std::set<uint64> reference under random ranges.
class AddressSetRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AddressSetRandomized, MatchesReferenceSet) {
  SplitMix64 rng(GetParam());
  AddressSet set;
  std::set<std::uint64_t> model;
  for (int op = 0; op < 600; ++op) {
    const std::uint64_t addr = rng.next_below(1 << 14);
    const std::uint32_t size = 1 + static_cast<std::uint32_t>(rng.next_below(100));
    set.insert_range(addr, size);
    for (std::uint64_t a = addr; a < addr + size; ++a) model.insert(a);
    ASSERT_EQ(set.count(), model.size());
  }
  // Spot-check membership.
  for (int probe = 0; probe < 500; ++probe) {
    const std::uint64_t addr = rng.next_below(1 << 14);
    EXPECT_EQ(set.contains(addr), model.contains(addr)) << addr;
  }
}

std::size_t pages_of(const std::set<std::uint64_t>& model) {
  std::set<std::uint64_t> pages;
  for (std::uint64_t a : model) pages.insert(a >> AddressSet::kPageBits);
  return pages.size();
}

void expect_matches(const AddressSet& set, const std::set<std::uint64_t>& model) {
  ASSERT_EQ(set.count(), model.size());
  ASSERT_EQ(set.resident_pages(), pages_of(model));
  for (std::uint64_t a : model) {
    ASSERT_TRUE(set.contains(a)) << a;
    if (!model.contains(a + 1)) {
      ASSERT_FALSE(set.contains(a + 1)) << a + 1;
    }
  }
}

// Property: the page directory's ownership edges — growth through many
// rehashes, merge of disjoint and overlapping pages, clear(), and reuse of
// a moved-from or drained set — keep the set equal to a std::set reference.
// Each edge is followed by an insert on the page touched last, which lands
// in the wrong place (or in freed memory) if a last-hit entry survived it.
TEST_P(AddressSetRandomized, PageDirectoryOwnershipMatchesReference) {
  SplitMix64 rng(GetParam());
  AddressSet set;
  std::set<std::uint64_t> model;
  std::uint64_t last = 0;
  auto insert = [&](AddressSet& target, std::set<std::uint64_t>& ref,
                    std::uint64_t addr, std::uint32_t size) {
    target.insert_range(addr, size);
    for (std::uint64_t a = addr; a < addr + size; ++a) ref.insert(a);
  };
  auto scattered = [&] {
    // 1M pages of address space, so nearly every insert opens a new page.
    return (rng.next_below(1 << 20) << AddressSet::kPageBits) +
           rng.next_below(AddressSet::kPageSize);
  };
  for (int op = 0; op < 300; ++op) {
    const std::uint64_t kind = rng.next_below(16);
    if (kind < 8) {
      // A burst over fresh pages: the directory grows through its rehashes.
      for (int i = 0; i < 32; ++i) {
        last = scattered();
        insert(set, model, last, 1 + static_cast<std::uint32_t>(rng.next_below(16)));
      }
    } else if (kind < 12) {
      // Merge a set whose pages partly overlap this one's and partly not.
      AddressSet other;
      std::set<std::uint64_t> other_model;
      for (int i = 0; i < 16; ++i) {
        std::uint64_t addr = scattered();
        if (!model.empty() && rng.next_below(2) == 0) {
          auto it = model.lower_bound(addr);
          addr = it == model.end() ? *model.begin() : *it;
        }
        insert(other, other_model, addr, 1 + static_cast<std::uint32_t>(rng.next_below(24)));
      }
      const std::uint64_t other_last = *other_model.rbegin();
      set.merge(std::move(other));
      model.insert(other_model.begin(), other_model.end());
      ASSERT_EQ(other.count(), 0u);
      ASSERT_EQ(other.resident_pages(), 0u);
      ASSERT_FALSE(other.contains(other_last));
      std::set<std::uint64_t> reuse_model;
      insert(other, reuse_model, other_last, 4);
      expect_matches(other, reuse_model);
      expect_matches(set, model);
    } else if (kind < 14) {
      // Move out, reuse the moved-from set, then merge the two back.
      AddressSet moved(std::move(set));
      expect_matches(moved, model);
      ASSERT_EQ(set.count(), 0u);
      ASSERT_EQ(set.resident_pages(), 0u);
      std::set<std::uint64_t> reuse_model;
      insert(set, reuse_model, last, 8);
      expect_matches(set, reuse_model);
      expect_matches(moved, model);
      set.merge(std::move(moved));
      model.insert(reuse_model.begin(), reuse_model.end());
      expect_matches(set, model);
    } else if (kind < 15) {
      // Move-assign into a non-empty set: its old pages are dropped.
      AddressSet target;
      target.insert_range(last ^ (1ull << 40), 8);
      target = std::move(set);
      expect_matches(target, model);
      ASSERT_EQ(set.resident_pages(), 0u);
      std::set<std::uint64_t> reuse_model;
      insert(set, reuse_model, last, 8);
      expect_matches(set, reuse_model);
      expect_matches(target, model);
      set = std::move(target);
      expect_matches(set, model);
    } else {
      set.clear();
      model.clear();
      ASSERT_FALSE(set.contains(last));
      insert(set, model, last, 8);
      expect_matches(set, model);
    }
    ASSERT_EQ(set.count(), model.size());
  }
  expect_matches(set, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressSetRandomized,
                         ::testing::Values(7, 21, 42, 1001));

}  // namespace
}  // namespace tq
