// Byte-granular shadow memory mapping every guest address to the kernel that
// last wrote it — the mechanism behind QUAD's producer/consumer bindings
// (Ostadzadeh et al., "QUAD — a memory access pattern analyser", ARC 2010,
// reference [4] of the tQUAD paper).
//
// Layout mirrors PagedMemory: a PageTable (support/page_table.hpp) of 4 KiB
// pages, each holding one 16-bit producer id per byte. Pages materialise on
// first write; reads of unwritten memory report kNoProducer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>

#include "support/page_table.hpp"
#include "support/paged_memory.hpp"

namespace tq::quad {

/// Producer id stored per byte. 16 bits bound the tool to 65534 kernels,
/// ample for real programs (hArtes wfs has 64 functions).
using ProducerId = std::uint16_t;
inline constexpr ProducerId kNoProducer = 0xffff;

/// Sparse map: byte address -> last-writing kernel.
class ShadowMemory {
 public:
  static constexpr std::uint64_t kPageBits = PagedMemory::kPageBits;
  static constexpr std::uint64_t kPageSize = PagedMemory::kPageSize;

  ShadowMemory() = default;
  ShadowMemory(const ShadowMemory&) = delete;
  ShadowMemory& operator=(const ShadowMemory&) = delete;

  /// Record `producer` as the last writer of [addr, addr+size).
  void mark_write(std::uint64_t addr, std::uint32_t size, ProducerId producer);

  /// Producer of one byte (kNoProducer when never written).
  ProducerId producer_of(std::uint64_t addr) const noexcept;

  /// Adopt every page of `other`, leaving it empty. The page sets must be
  /// disjoint (the sharded-pipeline invariant: accesses are routed to shards
  /// by page number, so no page materialises in two shards); a collision is
  /// a routing bug and trips a check.
  void adopt_disjoint(ShadowMemory&& other);

  /// Visit the producer of every byte in [addr, addr+size):
  /// `visit(producer, run_length)` is called per maximal same-producer run.
  template <typename Visit>
  void for_each_producer(std::uint64_t addr, std::uint32_t size, Visit&& visit) const {
    std::uint64_t cursor = addr;
    std::uint64_t remaining = size;
    while (remaining > 0) {
      const Page* page = pages_.find(cursor >> kPageBits);
      const std::uint64_t offset = cursor & (kPageSize - 1);
      const std::uint64_t in_page = std::min<std::uint64_t>(remaining, kPageSize - offset);
      if (page == nullptr) {
        visit(kNoProducer, static_cast<std::uint32_t>(in_page));
      } else {
        // Coalesce runs of the same producer within the page.
        std::uint64_t run_start = offset;
        ProducerId run_producer = page->producers[offset];
        for (std::uint64_t i = offset + 1; i < offset + in_page; ++i) {
          if (page->producers[i] != run_producer) {
            visit(run_producer, static_cast<std::uint32_t>(i - run_start));
            run_start = i;
            run_producer = page->producers[i];
          }
        }
        visit(run_producer, static_cast<std::uint32_t>(offset + in_page - run_start));
      }
      cursor += in_page;
      remaining -= in_page;
    }
  }

  std::size_t resident_pages() const noexcept { return pages_.size(); }
  std::size_t resident_bytes() const noexcept {
    return pages_.size() * kPageSize * sizeof(ProducerId);
  }

 private:
  struct Page {
    Page() { std::fill(std::begin(producers), std::end(producers), kNoProducer); }
    ProducerId producers[kPageSize];
  };

  PageTable<Page> pages_;
};

}  // namespace tq::quad
