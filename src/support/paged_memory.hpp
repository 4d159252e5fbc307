// Sparse paged byte-addressable memory.
//
// The guest address space is 64-bit but only a few dozen megabytes are ever
// touched, so storage is a PageTable (support/page_table.hpp) from page
// number to a fixed 4 KiB page. Pages materialise zero-filled on first
// write; reads of untouched memory return zeros (like an OS zero page) so
// that tools can replay traces without caring about allocation order.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "support/check.hpp"
#include "support/page_table.hpp"

namespace tq {

/// Sparse 64-bit byte-addressable memory backed by 4 KiB pages.
///
/// All multi-byte accessors are little-endian and may straddle page
/// boundaries. The class is movable but not copyable (pages can be large).
class PagedMemory {
 public:
  static constexpr std::uint64_t kPageBits = 12;
  static constexpr std::uint64_t kPageSize = 1ull << kPageBits;
  static constexpr std::uint64_t kOffsetMask = kPageSize - 1;

  PagedMemory() = default;
  PagedMemory(const PagedMemory&) = delete;
  PagedMemory& operator=(const PagedMemory&) = delete;
  PagedMemory(PagedMemory&&) noexcept = default;
  PagedMemory& operator=(PagedMemory&&) noexcept = default;

  /// Read `out.size()` bytes starting at `addr`. Untouched memory reads as 0.
  void read(std::uint64_t addr, std::span<std::uint8_t> out) const;

  /// Write `in.size()` bytes starting at `addr`, materialising pages as needed.
  void write(std::uint64_t addr, std::span<const std::uint8_t> in);

  /// Typed little-endian accessors used by the VM.
  std::uint64_t load(std::uint64_t addr, unsigned size_bytes) const;
  void store(std::uint64_t addr, std::uint64_t value, unsigned size_bytes);
  double load_f64(std::uint64_t addr) const;
  void store_f64(std::uint64_t addr, double value);

  /// Number of resident (materialised) pages.
  std::size_t resident_pages() const noexcept { return pages_.size(); }

  /// Total resident bytes (pages * page size).
  std::size_t resident_bytes() const noexcept { return pages_.size() * kPageSize; }

  /// Drop every page, returning the memory to the all-zero state.
  void clear() noexcept { pages_.clear(); }

 private:
  struct Page {
    std::uint8_t bytes[kPageSize];  ///< zero-filled by value-initialisation
  };

  PageTable<Page> pages_;
};

}  // namespace tq
