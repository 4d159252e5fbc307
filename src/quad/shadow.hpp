// Shadow memory mapping every guest address to the kernel that last wrote
// it — the mechanism behind QUAD's producer/consumer bindings (Ostadzadeh et
// al., "QUAD — a memory access pattern analyser", ARC 2010, reference [4] of
// the tQUAD paper).
//
// Layout mirrors PagedMemory: 4 KiB pages, owned by a PageTable
// (support/page_table.hpp). Pages below PagedMemory's arena limit (2^31,
// where every guest segment lies) are also listed in a flat directory of
// 2^19 page pointers, so looking one up is a single indexed load; the
// PageTable serves the pages above it. The directory is a MAP_NORESERVE
// mapping made on the first touch of a low page, so the entries no page
// ever used cost no memory; if the mapping fails, the PageTable serves
// every page.
//
// A page holds one eight-byte Cell per aligned 8-byte word, and a cell two
// half-word producers: one for bytes 0-3, one for bytes 4-7 (so an aligned
// 4-byte write sets its half and the word stays cheap). A half whose bytes
// have different producers reads kMixed, and the page's byte-granular
// escape array (allocated on the page's first such split) holds them. Pages
// materialise on first write; reads of unwritten memory report kNoProducer.
//
// Each cell also carries QuadTool's memo of which UnMA bits the word's last
// accesses already set (see read_word/mark_word). The memo is only ever
// a claim that bits are set; the sets only grow, so the one event that can
// falsify it is a change of producer, and every such write clears it.
//
// read_word and mark_word, the paths of every access inside one aligned
// word, are defined inline below, so QuadTool's per-access accounting
// compiles into one pass. Writes that split a half (mark_partial) or span
// words (mark_write) call into shadow.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "support/page_table.hpp"
#include "support/paged_memory.hpp"

namespace tq::quad {

/// Producer id stored per half-word (or per byte of a split half). 16 bits
/// bound the tool to 65533 kernels, ample for real programs (hArtes wfs has
/// 64 functions); the two top values are reserved.
using ProducerId = std::uint16_t;
inline constexpr ProducerId kNoProducer = 0xffff;
inline constexpr ProducerId kMixed = 0xfffe;  ///< cell only: see the escape

/// Sparse map: byte address -> last-writing kernel.
class ShadowMemory {
 public:
  static constexpr std::uint64_t kPageBits = PagedMemory::kPageBits;
  static constexpr std::uint64_t kPageSize = PagedMemory::kPageSize;
  static constexpr std::uint64_t kWordSize = 8;
  static constexpr std::uint64_t kHalfSize = 4;  ///< bytes per cell producer
  static constexpr std::uint64_t kWordsPerPage = kPageSize / kWordSize;
  static constexpr std::size_t kCellBytes = kWordsPerPage * 8;  ///< one page's cells
  static constexpr std::size_t kEscapeBytes = kPageSize * sizeof(ProducerId);
  /// Page numbers below this are listed in the directory: the guest arena's.
  static constexpr std::uint64_t kDirectoryPages = PagedMemory::kArenaBytes >> kPageBits;

  /// Which of the writer's OUT UnMA sets a word-contained write already
  /// covers (mark_word's result).
  enum OutKnown : unsigned { kOutInclKnown = 1, kOutExclKnown = 2 };

  /// What read_word() learnt about a word-contained read.
  struct WordRead {
    ProducerId producer;  ///< kMixed: take the byte-wise path
    bool known;           ///< the reader's IN bits (and the edge's) are set
  };

  ShadowMemory() = default;
  ShadowMemory(const ShadowMemory&) = delete;
  ShadowMemory& operator=(const ShadowMemory&) = delete;

  /// True when [addr, addr+size) lies inside one aligned 8-byte word: the
  /// accesses read_word() and mark_word() take.
  static bool in_one_word(std::uint64_t addr, std::uint32_t size) noexcept {
    return size != 0 && (addr & (kWordSize - 1)) + size <= kWordSize;
  }

  /// Record `producer` as the last writer of [addr, addr+size). Clears the
  /// memo of every word it touches.
  void mark_write(std::uint64_t addr, std::uint32_t size, ProducerId producer);

  /// mark_write() for a word-contained range (in_one_word), written by
  /// `producer` as a stack (`excl` false) or non-stack access. Returns the
  /// OutKnown bits proving the producer's OUT sets already hold the bytes:
  /// both incl and excl when every half the write touches was already
  /// `producer`'s and excl-covered, incl alone when each was `producer`'s,
  /// none otherwise. The caller inserts what is not known; a non-stack
  /// write of whole halves then records that the excl set covers them.
  unsigned mark_word(std::uint64_t addr, std::uint32_t size, ProducerId producer,
                     bool excl);

  /// Look up a word-contained read (in_one_word) by `reader`, a stack
  /// (`excl` false) or non-stack access. `known` is true when the word's
  /// memo proves the reader's IN bits for these bytes (excl ones too when
  /// `excl`), and the producer->reader edge's bits, are already set. When
  /// it is not, the memo is updated on the promise that the caller now
  /// inserts them. Reads of non-resident pages, and reads whose bytes have
  /// more than one producer (two different halves, or a split half), are
  /// never memoised.
  WordRead read_word(std::uint64_t addr, std::uint32_t size, ProducerId reader,
                     bool excl);

  /// Producer of one byte (kNoProducer when never written).
  ProducerId producer_of(std::uint64_t addr) const noexcept;

  /// Adopt every page of `other` (escape arrays and memos included), leaving
  /// it empty. The page sets must be disjoint (the sharded-pipeline
  /// invariant: accesses are routed to shards by page number, so no page
  /// materialises in two shards); a collision is a routing bug and trips a
  /// check.
  void adopt_disjoint(ShadowMemory&& other);

  /// Visit the producer of every byte in [addr, addr+size):
  /// `visit(producer, run_length)` is called per maximal same-producer run.
  template <typename Visit>
  void for_each_producer(std::uint64_t addr, std::uint32_t size, Visit&& visit) const {
    std::uint64_t cursor = addr;
    std::uint64_t remaining = size;
    while (remaining > 0) {
      const Page* page = find(cursor >> kPageBits);
      const std::uint64_t offset = cursor & (kPageSize - 1);
      const std::uint64_t end = std::min<std::uint64_t>(offset + remaining, kPageSize);
      if (page == nullptr) {
        visit(kNoProducer, static_cast<std::uint32_t>(end - offset));
      } else {
        // Coalesce runs of the same producer within the page, a half-word
        // at a time, and a split half a byte at a time.
        std::uint64_t run_start = offset;
        ProducerId run_producer = page->byte(offset);
        const auto extend = [&](ProducerId p, std::uint64_t at) {
          if (p == run_producer) return;
          visit(run_producer, static_cast<std::uint32_t>(at - run_start));
          run_start = at;
          run_producer = p;
        };
        for (std::uint64_t i = offset; i < end;) {
          const ProducerId half = page->half(i);
          const std::uint64_t stop = std::min(end, (i | (kHalfSize - 1)) + 1);
          if (half != kMixed) {
            extend(half, i);
            i = stop;
          } else {
            for (; i < stop; ++i) extend(page->escape[i], i);
          }
        }
        visit(run_producer, static_cast<std::uint32_t>(end - run_start));
      }
      cursor += end - offset;
      remaining -= end - offset;
    }
  }

  std::size_t resident_pages() const noexcept { return pages_.size(); }
  /// Resident pages that carry an escape array (had a split half).
  std::size_t resident_escapes() const noexcept { return escapes_; }
  /// Bytes of shadow state: every page's cells plus every escape array (the
  /// directory is an index over the pages, not counted).
  std::size_t resident_bytes() const noexcept {
    return pages_.size() * kCellBytes + escapes_ * kEscapeBytes;
  }

 private:
  enum CellFlags : std::uint8_t {
    kReadExcl = 1,  ///< the memo reader's excl IN bits cover read_mask too
    /// Bit kOutExcl << h: the producer of half h has excl OUT bits covering
    /// the whole half.
    kOutExcl = 2,
  };

  /// One aligned 8-byte word. `reader`/`read_mask` are the memo: `reader`'s
  /// incl IN bits, and the edge bits from each byte's producer to `reader`,
  /// are set for every byte in `read_mask` (and its excl IN bits when
  /// kReadExcl).
  struct alignas(8) Cell {
    /// producer[0] wrote bytes 0-3 and producer[1] bytes 4-7; kMixed: that
    /// half's bytes differ, per byte in the escape.
    ProducerId producer[2] = {kNoProducer, kNoProducer};
    ProducerId reader = kNoProducer;    ///< memo reader, kNoProducer if none
    std::uint8_t read_mask = 0;         ///< bit b: byte b of the word
    std::uint8_t flags = 0;             ///< CellFlags

    /// The one producer of bytes [first, first+size) of the word, or kMixed
    /// when they span two halves that differ or lie in a split half.
    ProducerId over(unsigned first, unsigned size) const noexcept {
      const ProducerId p = producer[first / kHalfSize];
      return (first + size - 1) / kHalfSize == first / kHalfSize || p == producer[1]
                 ? p
                 : kMixed;
    }

    /// Drop the memo (its reader, byte mask and excl IN flag).
    void forget_reader() noexcept {
      reader = kNoProducer;
      read_mask = 0;
      flags &= static_cast<std::uint8_t>(~kReadExcl);
    }
  };
  static_assert(sizeof(Cell[kWordsPerPage]) == kCellBytes, "a cell is 8 bytes");

  /// The CellFlags kOutExcl bits of the halves bytes [first, first+size) of
  /// a word touch.
  static std::uint8_t out_excl_bits(unsigned first, unsigned size) noexcept {
    const unsigned halves = (2u << ((first + size - 1) / kHalfSize)) -
                            (1u << (first / kHalfSize));
    return static_cast<std::uint8_t>(kOutExcl * halves);
  }

  struct Page {
    Cell cells[kWordsPerPage];
    /// Per-byte producers, meaningful only inside kMixed halves; allocated
    /// on the page's first split half.
    std::unique_ptr<ProducerId[]> escape;

    /// The producer of the half-word holding byte `offset` (maybe kMixed).
    ProducerId half(std::uint64_t offset) const noexcept {
      return cells[offset / kWordSize].producer[offset / kHalfSize % 2];
    }
    ProducerId byte(std::uint64_t offset) const noexcept {
      const ProducerId p = half(offset);
      return p == kMixed ? escape[offset] : p;
    }
  };

  struct DirectoryUnmap {
    void operator()(Page** directory) const noexcept;
  };

  /// The page for `page_no`, or nullptr when it was never touched.
  Page* find(std::uint64_t page_no) const noexcept {
    return page_no < directory_limit_ ? directory_[page_no] : pages_.find(page_no);
  }

  /// The page for `page_no`, materialised on first use.
  Page& touch(std::uint64_t page_no) {
    if (page_no < directory_limit_) [[likely]] {
      if (Page* page = directory_[page_no]) [[likely]] return *page;
    }
    return touch_slow(page_no);
  }
  Page& touch_slow(std::uint64_t page_no);

  /// Enter `page` in the directory when `page_no` is below kDirectoryPages,
  /// mapping the directory on its first use.
  void list(std::uint64_t page_no, Page& page);

  /// Write `producer` into bytes [first, first+count) of the page's word
  /// `word` (count < kWordSize): a whole half takes the producer, and a
  /// part of a half goes through the escape array, which collapses the half
  /// back to one producer when all its bytes agree. Clears the memo.
  void mark_partial(Page& page, std::uint64_t word, unsigned first, unsigned count,
                    ProducerId producer);

  PageTable<Page> pages_;  ///< owns every page
  /// kDirectoryPages entries, the page or nullptr for each low page number;
  /// unmapped until the first low page.
  std::unique_ptr<Page*[], DirectoryUnmap> directory_;
  std::uint64_t directory_limit_ = 0;  ///< kDirectoryPages while mapped, else 0
  /// The mapping failed, so pages_ alone holds the low pages: a later
  /// directory would miss them, and none is made.
  bool directory_failed_ = false;
  std::size_t escapes_ = 0;  ///< escape arrays allocated across pages_
};

// ---- the word-contained paths (see the file comment) ----------------------

inline unsigned ShadowMemory::mark_word(std::uint64_t addr, std::uint32_t size,
                                        ProducerId producer, bool excl) {
  Page& page = touch(addr >> kPageBits);
  const std::uint64_t offset = addr & (kPageSize - 1);
  Cell& cell = page.cells[offset / kWordSize];
  const auto first = static_cast<unsigned>(offset % kWordSize);
  const unsigned lo = first / kHalfSize;
  const unsigned hi = (first + size - 1) / kHalfSize;
  const std::uint8_t out_excl = out_excl_bits(first, size);
  const bool whole = (first | size) % kHalfSize == 0;  // exactly its halves
  if (cell.producer[lo] == producer && cell.producer[hi] == producer) {
    // A same-kernel rewrite: every byte's last write was this producer's,
    // so its incl OUT bits cover them already.
    const unsigned known = (cell.flags & out_excl) == out_excl
                               ? kOutInclKnown | kOutExclKnown
                               : kOutInclKnown;
    if (excl && whole) cell.flags |= out_excl;
    return known;
  }
  if (!whole) {
    mark_partial(page, offset / kWordSize, first, size, producer);
    return 0;
  }
  cell.producer[lo] = producer;
  cell.producer[hi] = producer;
  cell.forget_reader();
  cell.flags = static_cast<std::uint8_t>((cell.flags & ~out_excl) | (excl ? out_excl : 0));
  return 0;
}

inline ShadowMemory::WordRead ShadowMemory::read_word(std::uint64_t addr,
                                                      std::uint32_t size,
                                                      ProducerId reader, bool excl) {
  Page* page = find(addr >> kPageBits);
  if (page == nullptr) return {kNoProducer, false};
  const std::uint64_t offset = addr & (kPageSize - 1);
  Cell& cell = page->cells[offset / kWordSize];
  const auto first = static_cast<unsigned>(offset % kWordSize);
  const ProducerId producer = cell.over(first, size);
  if (producer == kMixed) return {kMixed, false};
  const auto mask = static_cast<std::uint8_t>(((1u << size) - 1) << first);
  if (cell.reader != reader) {
    cell.reader = reader;
    cell.read_mask = mask;
    cell.flags = static_cast<std::uint8_t>((cell.flags & ~kReadExcl) | (excl ? kReadExcl : 0));
    return {producer, false};
  }
  const bool excl_covered = (cell.flags & kReadExcl) != 0;
  if ((mask & ~cell.read_mask) == 0 && (!excl || excl_covered)) {
    return {producer, true};
  }
  if (excl && !excl_covered) {
    // Only this read's bytes are known to carry excl bits.
    cell.read_mask = mask;
    cell.flags |= kReadExcl;
  } else {
    cell.read_mask |= mask;
    if (!excl) cell.flags &= static_cast<std::uint8_t>(~kReadExcl);
  }
  return {producer, false};
}

}  // namespace tq::quad
