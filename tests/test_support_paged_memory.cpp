#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "support/paged_memory.hpp"
#include "support/rng.hpp"

namespace tq {
namespace {

constexpr std::uint64_t kArena = PagedMemory::kArenaBytes;

/// A memory without an arena: the state a move leaves behind, and the one a
/// failed reservation starts in.
PagedMemory without_arena() {
  PagedMemory donor;
  PagedMemory taken(std::move(donor));
  return donor;
}

TEST(PagedMemory, ReadsOfUntouchedMemoryAreZero) {
  PagedMemory mem;
  EXPECT_EQ(mem.load(0, 8), 0u);
  EXPECT_EQ(mem.load(0xdeadbeef, 4), 0u);
  EXPECT_EQ(mem.load(kArena - 4, 8), 0u);
  EXPECT_EQ(mem.load(~0ull - 3, 8), 0u);
  std::uint8_t buf[16];
  std::memset(buf, 0xff, sizeof buf);
  mem.read(1234, buf);
  for (std::uint8_t b : buf) EXPECT_EQ(b, 0);
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
  // The same straddle above the arena, where the directory holds the pages.
  mem.store(kArena + addr, 0x0fedcba987654321ull, 8);
  EXPECT_EQ(mem.load(kArena + addr, 8), 0x0fedcba987654321ull);
  EXPECT_EQ(mem.load(addr, 8), 0x1234567890abcdefull);
}

// A store at the top of the address space wraps past 2^64 onto address 0,
// which lies in the arena.
TEST(PagedMemory, AccessAtTopOfAddressSpaceWraps) {
  for (const bool arena : {true, false}) {
    PagedMemory mem = arena ? PagedMemory() : without_arena();
    mem.store(~0ull - 3, 0x8877665544332211ull, 8);
    EXPECT_EQ(mem.load(~0ull - 3, 4), 0x44332211u);
    EXPECT_EQ(mem.load(0, 4), 0x88776655u);
    EXPECT_EQ(mem.load(~0ull - 3, 8), 0x8877665544332211ull);
  }
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

TEST(PagedMemory, MoveTransfersPages) {
  PagedMemory mem;
  mem.store(42, 0x99, 1);
  mem.store(kArena + 42, 0x77, 1);
  PagedMemory other = std::move(mem);
  EXPECT_EQ(other.load(42, 1), 0x99u);
  EXPECT_EQ(other.load(kArena + 42, 1), 0x77u);
  // The moved-from memory is empty and still usable (without an arena).
  EXPECT_EQ(mem.load(42, 1), 0u);
  EXPECT_EQ(mem.load(kArena + 42, 1), 0u);
  mem.store(42, 0x55, 1);
  EXPECT_EQ(mem.load(42, 1), 0x55u);
  EXPECT_EQ(other.load(42, 1), 0x99u);
}

using ByteModel = std::map<std::uint64_t, std::uint8_t>;

std::uint64_t model_load(const ByteModel& model, std::uint64_t addr, std::size_t size) {
  std::uint64_t want = 0;
  for (std::size_t b = 0; b < size; ++b) {
    auto it = model.find(addr + b);
    const std::uint8_t byte = it == model.end() ? 0 : it->second;
    want |= static_cast<std::uint64_t>(byte) << (8 * b);
  }
  return want;
}

/// An address from one of the regions whose edges the two paths split at.
std::uint64_t pick_addr(SplitMix64& rng) {
  switch (rng.next_below(7)) {
    case 0: return 0x2000 + rng.next_below(1 << 16);  // well inside the arena
    case 1: return kArena - 8 + rng.next_below(8);    // the last 8 bytes below 2^31
    case 2: return kArena - 64 + rng.next_below(128);  // straddling 2^31
    case 3: return kArena + rng.next_below(1 << 16);  // just above the arena
    case 4: return (rng.next() | (1ull << 63)) & ~0xfffull;  // far above it
    case 5: return ~0ull - 15 + rng.next_below(16);  // addr + size wraps 2^64
    default: return rng.next_below(16);  // where the wrapped bytes land
  }
}

/// A span length: mostly short, sometimes over two pages.
std::size_t pick_len(SplitMix64& rng) {
  return 1 + rng.next_below(rng.next_below(8) == 0 ? 2 * PagedMemory::kPageSize : 64);
}

/// Property: random loads, stores and span reads/writes agree with a
/// std::map byte-level model, with and without an arena.
class PagedMemoryRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PagedMemoryRandomized, AgreesWithReferenceModel) {
  for (const bool arena : {true, false}) {
    SCOPED_TRACE(arena ? "with arena" : "without arena");
    SplitMix64 rng(GetParam());
    PagedMemory mem = arena ? PagedMemory() : without_arena();
    ByteModel model;
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t addr = pick_addr(rng);
      const std::uint64_t kind = rng.next_below(8);
      if (kind < 3) {
        const unsigned size = 1u << rng.next_below(4);
        const std::uint64_t value = rng.next();
        mem.store(addr, value, size);
        for (unsigned b = 0; b < size; ++b) {
          model[addr + b] = static_cast<std::uint8_t>(value >> (8 * b));
        }
      } else if (kind < 6) {
        const unsigned size = 1u << rng.next_below(4);
        ASSERT_EQ(mem.load(addr, size), model_load(model, addr, size))
            << "addr " << addr << " size " << size;
      } else if (kind < 7) {
        // A span across the arena edge (or any region edge above).
        std::vector<std::uint8_t> bytes(pick_len(rng));
        for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next());
        const std::uint64_t at = addr - bytes.size() / 2;
        mem.write(at, bytes);
        for (std::size_t b = 0; b < bytes.size(); ++b) model[at + b] = bytes[b];
      } else {
        std::vector<std::uint8_t> got(pick_len(rng));
        const std::uint64_t at = addr - got.size() / 2;
        mem.read(at, got);
        for (std::size_t b = 0; b < got.size(); ++b) {
          ASSERT_EQ(got[b], model_load(model, at + b, 1)) << "addr " << at + b;
        }
      }
    }
  }
}

void expect_matches(const PagedMemory& mem, const ByteModel& model) {
  for (const auto& [addr, byte] : model) {
    ASSERT_EQ(mem.load(addr, 1), byte) << addr;
  }
}

void store(PagedMemory& mem, ByteModel& model, std::uint64_t addr,
           std::uint64_t value, unsigned size) {
  mem.store(addr, value, size);
  for (unsigned b = 0; b < size; ++b) {
    model[addr + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
}

// Property: the ownership edges — directory growth through many rehashes,
// replacing a memory, and reuse of a moved-from memory (which has no arena)
// — keep it equal to a byte-level reference. The pages span 4 GiB, half in
// the arena and half in the directory. Each edge is followed by a store to
// the page touched last, which lands in the wrong memory (or in freed
// memory) if a last-hit entry or an arena pointer survived the edge.
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
      ASSERT_EQ(mem.load(last, 1), 0u);
      ByteModel reuse_model;
      store(mem, reuse_model, last, rng.next(), 8);
      expect_matches(mem, reuse_model);
      expect_matches(moved, model);
      mem = std::move(moved);
      expect_matches(mem, model);
      ASSERT_EQ(moved.load(last, 1), 0u);
      reuse_model.clear();
      store(moved, reuse_model, last, rng.next(), 8);
      expect_matches(moved, reuse_model);
      expect_matches(mem, model);
    } else if (kind < 11) {
      // Reads see the stores, and zero where there were none.
      for (int i = 0; i < 32; ++i) {
        const std::uint64_t addr = rng.next_below(std::uint64_t{1} << 32);
        auto it = model.find(addr);
        ASSERT_EQ(mem.load(addr, 1), it == model.end() ? 0u : it->second);
      }
      expect_matches(mem, model);
    } else {
      mem = PagedMemory();
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
