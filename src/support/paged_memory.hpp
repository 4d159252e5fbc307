// Guest memory: a flat arena for the guest segments, a page directory for
// everything else.
//
// The guest address space is 64-bit, but every guest segment (globals from
// kGlobalBase, the heap, the stack up to kStackBase) lies below 2^31. So the
// low kArenaBytes are one MAP_NORESERVE anonymous mapping, indexed by guest
// address: an access that fits below the arena limit is one bound check and
// a memcpy, and the kernel's zero page keeps untouched arena pages at zero
// RSS. Addresses at or above the limit go through a PageTable
// (support/page_table.hpp) of 4 KiB pages instead. If the reservation fails
// (say under `ulimit -v`), the limit is 0 and every access takes the
// directory path; the bytes a guest sees are the same either way.
//
// Both paths share one contract: untouched memory reads as zero (like an OS
// zero page), so tools can replay traces without caring about allocation
// order; the directory materialises a page on its first write, never on a
// read; and an access at the top of the address space wraps past 2^64.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "support/check.hpp"
#include "support/page_table.hpp"

namespace tq {

/// Byte-addressable 64-bit guest memory: a flat arena below kArenaBytes,
/// sparse 4 KiB pages above it.
///
/// All multi-byte accessors are little-endian and may straddle page
/// boundaries and the arena limit. The class is movable but not copyable;
/// a moved-from memory is empty, has no arena, and stays usable.
class PagedMemory {
 public:
  static constexpr std::uint64_t kPageBits = 12;
  static constexpr std::uint64_t kPageSize = 1ull << kPageBits;
  static constexpr std::uint64_t kOffsetMask = kPageSize - 1;
  /// Size of the flat arena at guest address 0 (it covers kStackBase).
  static constexpr std::uint64_t kArenaBytes = 1ull << 31;

  PagedMemory();
  ~PagedMemory();
  PagedMemory(const PagedMemory&) = delete;
  PagedMemory& operator=(const PagedMemory&) = delete;
  PagedMemory(PagedMemory&& other) noexcept;
  PagedMemory& operator=(PagedMemory&& other) noexcept;

  /// Read `out.size()` bytes starting at `addr`. Untouched memory reads as 0.
  void read(std::uint64_t addr, std::span<std::uint8_t> out) const;

  /// Write `in.size()` bytes starting at `addr`, materialising pages as needed.
  void write(std::uint64_t addr, std::span<const std::uint8_t> in);

  /// Typed little-endian accessors used by the VM. An access that starts
  /// below limit_ lies wholly in the arena (limit_ leaves room for 8 bytes),
  /// so the fast path is one compare with no `addr + size` to wrap.
  std::uint64_t load(std::uint64_t addr, unsigned size_bytes) const {
    TQUAD_DCHECK(size_bytes == 1 || size_bytes == 2 || size_bytes == 4 || size_bytes == 8,
                 "unsupported load size");
    if (addr < limit_) [[likely]] {
      std::uint64_t value;
      std::memcpy(&value, arena_ + addr, 8);
      return value & (~0ull >> (64 - 8 * size_bytes));
    }
    return load_slow(addr, size_bytes);
  }

  void store(std::uint64_t addr, std::uint64_t value, unsigned size_bytes) {
    TQUAD_DCHECK(size_bytes == 1 || size_bytes == 2 || size_bytes == 4 || size_bytes == 8,
                 "unsupported store size");
    if (addr < limit_) [[likely]] {
      std::uint8_t* const at = arena_ + addr;
      switch (size_bytes) {
        case 1: std::memcpy(at, &value, 1); return;
        case 2: std::memcpy(at, &value, 2); return;
        case 4: std::memcpy(at, &value, 4); return;
        default: std::memcpy(at, &value, 8); return;
      }
    }
    store_slow(addr, value, size_bytes);
  }

  double load_f64(std::uint64_t addr) const {
    return std::bit_cast<double>(load(addr, 8));
  }
  void store_f64(std::uint64_t addr, double value) {
    store(addr, std::bit_cast<std::uint64_t>(value), 8);
  }

 private:
  struct Page {
    std::uint8_t bytes[kPageSize];  ///< zero-filled by value-initialisation
  };

  std::uint64_t load_slow(std::uint64_t addr, unsigned size_bytes) const;
  void store_slow(std::uint64_t addr, std::uint64_t value, unsigned size_bytes);
  void unmap() noexcept;

  /// The arena, or nullptr when the reservation failed (or was moved away).
  std::uint8_t* arena_ = nullptr;
  /// kArenaBytes - 7 with an arena, so that every access of up to 8 bytes
  /// starting below it stays inside; 0 without one.
  std::uint64_t limit_ = 0;
  PageTable<Page> pages_;
};

}  // namespace tq
