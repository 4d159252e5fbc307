#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include "support/paged_memory.hpp"
#include "support/rng.hpp"

namespace tq {
namespace {

TEST(PagedMemory, ReadsOfUntouchedMemoryAreZero) {
  PagedMemory mem;
  EXPECT_EQ(mem.load(0, 8), 0u);
  EXPECT_EQ(mem.load(0xdeadbeef, 4), 0u);
  std::uint8_t buf[16];
  std::memset(buf, 0xff, sizeof buf);
  mem.read(1234, buf);
  for (std::uint8_t b : buf) EXPECT_EQ(b, 0);
  EXPECT_EQ(mem.resident_pages(), 0u);
}

TEST(PagedMemory, StoreLoadRoundTripAllSizes) {
  PagedMemory mem;
  const std::uint64_t addr = 0x1000'0000;
  for (unsigned size : {1u, 2u, 4u, 8u}) {
    const std::uint64_t value = 0x1122334455667788ull;
    mem.store(addr, value, size);
    const std::uint64_t mask = size == 8 ? ~0ull : ((1ull << (8 * size)) - 1);
    EXPECT_EQ(mem.load(addr, size), value & mask) << "size " << size;
  }
}

TEST(PagedMemory, LittleEndianLayout) {
  PagedMemory mem;
  mem.store(100, 0x0A0B0C0D, 4);
  EXPECT_EQ(mem.load(100, 1), 0x0Du);
  EXPECT_EQ(mem.load(101, 1), 0x0Cu);
  EXPECT_EQ(mem.load(102, 1), 0x0Bu);
  EXPECT_EQ(mem.load(103, 1), 0x0Au);
}

TEST(PagedMemory, CrossPageAccess) {
  PagedMemory mem;
  const std::uint64_t addr = PagedMemory::kPageSize - 3;  // straddles pages
  mem.store(addr, 0x1234567890abcdefull, 8);
  EXPECT_EQ(mem.load(addr, 8), 0x1234567890abcdefull);
  EXPECT_EQ(mem.resident_pages(), 2u);
}

TEST(PagedMemory, SpanReadWriteAcrossManyPages) {
  PagedMemory mem;
  std::vector<std::uint8_t> data(3 * PagedMemory::kPageSize + 17);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const std::uint64_t addr = 5 * PagedMemory::kPageSize - 9;
  mem.write(addr, data);
  std::vector<std::uint8_t> back(data.size());
  mem.read(addr, back);
  EXPECT_EQ(back, data);
}

TEST(PagedMemory, F64RoundTrip) {
  PagedMemory mem;
  mem.store_f64(64, 3.14159265358979);
  EXPECT_DOUBLE_EQ(mem.load_f64(64), 3.14159265358979);
  mem.store_f64(72, -0.0);
  EXPECT_EQ(std::signbit(mem.load_f64(72)), true);
}

TEST(PagedMemory, ClearDropsAllPages) {
  PagedMemory mem;
  mem.store(0, 1, 8);
  mem.store(1 << 20, 2, 8);
  EXPECT_GT(mem.resident_pages(), 0u);
  mem.clear();
  EXPECT_EQ(mem.resident_pages(), 0u);
  EXPECT_EQ(mem.load(0, 8), 0u);
}

TEST(PagedMemory, MoveTransfersPages) {
  PagedMemory mem;
  mem.store(42, 0x99, 1);
  PagedMemory other = std::move(mem);
  EXPECT_EQ(other.load(42, 1), 0x99u);
}

/// Property: random stores/loads agree with a std::map byte-level model.
class PagedMemoryRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PagedMemoryRandomized, AgreesWithReferenceModel) {
  SplitMix64 rng(GetParam());
  PagedMemory mem;
  std::map<std::uint64_t, std::uint8_t> model;
  for (int op = 0; op < 2000; ++op) {
    // Confine to a 64 KiB window so reads frequently hit written bytes.
    const std::uint64_t addr = 0x2000 + rng.next_below(1 << 16);
    const unsigned size = 1u << rng.next_below(4);
    if (rng.next_below(2) == 0) {
      const std::uint64_t value = rng.next();
      mem.store(addr, value, size);
      for (unsigned b = 0; b < size; ++b) {
        model[addr + b] = static_cast<std::uint8_t>(value >> (8 * b));
      }
    } else {
      const std::uint64_t got = mem.load(addr, size);
      std::uint64_t want = 0;
      for (unsigned b = 0; b < size; ++b) {
        auto it = model.find(addr + b);
        const std::uint8_t byte = it == model.end() ? 0 : it->second;
        want |= static_cast<std::uint64_t>(byte) << (8 * b);
      }
      ASSERT_EQ(got, want) << "addr " << addr << " size " << size;
    }
  }
}

using ByteModel = std::map<std::uint64_t, std::uint8_t>;

void expect_matches(const PagedMemory& mem, const ByteModel& model) {
  std::set<std::uint64_t> pages;
  for (const auto& [addr, byte] : model) {
    pages.insert(addr >> PagedMemory::kPageBits);
    ASSERT_EQ(mem.load(addr, 1), byte) << addr;
  }
  ASSERT_EQ(mem.resident_pages(), pages.size());
}

void store(PagedMemory& mem, ByteModel& model, std::uint64_t addr,
           std::uint64_t value, unsigned size) {
  mem.store(addr, value, size);
  for (unsigned b = 0; b < size; ++b) {
    model[addr + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
}

// Property: the page directory's ownership edges — growth through many
// rehashes, clear(), and reuse of a moved-from memory — keep it equal to a
// byte-level reference. Each edge is followed by a store to the page touched
// last, which lands in the wrong memory (or in freed memory) if a last-hit
// entry survived the edge.
TEST_P(PagedMemoryRandomized, PageDirectoryOwnershipMatchesReference) {
  SplitMix64 rng(GetParam());
  PagedMemory mem;
  ByteModel model;
  std::uint64_t last = 0;
  for (int op = 0; op < 200; ++op) {
    const std::uint64_t kind = rng.next_below(12);
    if (kind < 8) {
      // A burst over fresh pages (some straddling two) grows the directory.
      for (int i = 0; i < 32; ++i) {
        last = (rng.next_below(1 << 20) << PagedMemory::kPageBits) +
               rng.next_below(PagedMemory::kPageSize);
        store(mem, model, last, rng.next(), 1u << rng.next_below(4));
      }
    } else if (kind < 10) {
      // Move out, reuse the moved-from memory, then move it back.
      PagedMemory moved(std::move(mem));
      expect_matches(moved, model);
      ASSERT_EQ(mem.resident_pages(), 0u);
      ASSERT_EQ(mem.load(last, 1), 0u);
      ByteModel reuse_model;
      store(mem, reuse_model, last, rng.next(), 8);
      expect_matches(mem, reuse_model);
      expect_matches(moved, model);
      mem = std::move(moved);
      expect_matches(mem, model);
      ASSERT_EQ(moved.resident_pages(), 0u);
      reuse_model.clear();
      store(moved, reuse_model, last, rng.next(), 8);
      expect_matches(moved, reuse_model);
      expect_matches(mem, model);
    } else if (kind < 11) {
      // Reads never materialise pages.
      for (int i = 0; i < 32; ++i) {
        const std::uint64_t addr = rng.next_below(std::uint64_t{1} << 32);
        auto it = model.find(addr);
        ASSERT_EQ(mem.load(addr, 1), it == model.end() ? 0u : it->second);
      }
      expect_matches(mem, model);
    } else {
      mem.clear();
      model.clear();
      ASSERT_EQ(mem.load(last, 1), 0u);
      store(mem, model, last, rng.next(), 8);
      expect_matches(mem, model);
    }
  }
  expect_matches(mem, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagedMemoryRandomized,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

}  // namespace
}  // namespace tq
