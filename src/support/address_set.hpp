// Unique-memory-address (UnMA) tracking.
//
// QUAD and tQUAD report the number of *distinct* byte addresses a kernel has
// read or written. Addresses cluster heavily (buffers, stack frames), so the
// set is stored as one bitmap per touched 4 KiB page, kept in a PageTable
// (support/page_table.hpp): ~0.5 KiB of bitmap per resident page, with the
// population cached so `count()` stays O(1).
#pragma once

#include <bit>
#include <cstdint>
#include <utility>

#include "support/page_table.hpp"
#include "support/paged_memory.hpp"

namespace tq {

/// A set of 64-bit byte addresses, optimised for dense clusters.
class AddressSet {
 public:
  static constexpr std::uint64_t kPageBits = PagedMemory::kPageBits;
  static constexpr std::uint64_t kPageSize = PagedMemory::kPageSize;
  static constexpr std::size_t kWordsPerPage = kPageSize / 64;

  AddressSet() = default;
  AddressSet(const AddressSet&) = delete;
  AddressSet& operator=(const AddressSet&) = delete;
  // A moved-from set is empty and reusable.
  AddressSet(AddressSet&& other) noexcept
      : pages_(std::move(other.pages_)),
        population_(std::exchange(other.population_, 0)) {}
  AddressSet& operator=(AddressSet&& other) noexcept {
    pages_ = std::move(other.pages_);
    population_ = std::exchange(other.population_, 0);
    return *this;
  }

  /// Mark the byte range [addr, addr+size) as present. A range inside one
  /// 64-bit bitmap word (every aligned access of up to 8 bytes) takes the
  /// inline path; longer or word-crossing ranges take the general loop.
  void insert_range(std::uint64_t addr, std::uint32_t size) {
    const std::uint64_t bit = addr & 63;
    if (size != 0 && bit + size <= 64) [[likely]] {
      const std::uint64_t mask = (~0ull >> (64 - size)) << bit;
      std::uint64_t& word =
          pages_.touch(addr >> kPageBits).words[(addr & (kPageSize - 1)) >> 6];
      population_ += static_cast<std::uint64_t>(std::popcount(mask & ~word));
      word |= mask;
      return;
    }
    insert_range_slow(addr, size);
  }

  /// True if the single byte address is present.
  bool contains(std::uint64_t addr) const noexcept;

  /// Number of distinct byte addresses inserted so far.
  std::uint64_t count() const noexcept { return population_; }

  /// Number of distinct addresses inside [addr, addr+size) — the ranged
  /// popcount behind buffer-coverage reports.
  std::uint64_t count_range(std::uint64_t addr, std::uint64_t size) const noexcept;

  /// Fold `other` into this set (set union) and leave `other` empty. Pages
  /// absent here are adopted wholesale; overlapping pages are OR-merged with
  /// the population recomputed per word. Safe for arbitrary overlap, O(1)
  /// per disjoint page.
  void merge(AddressSet&& other);

  /// Number of resident bitmap pages (memory-footprint diagnostics).
  std::size_t resident_pages() const noexcept { return pages_.size(); }

  void clear() noexcept {
    pages_.clear();
    population_ = 0;
  }

 private:
  struct Bitmap {
    std::uint64_t words[kWordsPerPage] = {};
  };

  void insert_range_slow(std::uint64_t addr, std::uint32_t size);

  PageTable<Bitmap> pages_;
  std::uint64_t population_ = 0;
};

}  // namespace tq
