// Shadow memory mapping every guest address to the kernel that last wrote
// it — the mechanism behind QUAD's producer/consumer bindings (Ostadzadeh et
// al., "QUAD — a memory access pattern analyser", ARC 2010, reference [4] of
// the tQUAD paper).
//
// Layout mirrors PagedMemory: a PageTable (support/page_table.hpp) of 4 KiB
// pages. A page holds one eight-byte Cell per aligned 8-byte word: the
// word's producer, or kMixed when its bytes have different producers, in
// which case the page's byte-granular escape array (allocated on the page's
// first mixed word) holds the per-byte producers. Pages materialise on first
// write; reads of unwritten memory report kNoProducer.
//
// Each cell also carries QuadTool's memo of which UnMA bits the word's last
// accesses already set (see read_word/mark_word). The memo is only ever
// a claim that bits are set; the sets only grow, so the one event that can
// falsify it is a change of producer, and every such write clears it.
//
// read_word and mark_word, the paths of every access inside one aligned
// word, are defined inline below, so QuadTool's per-access accounting
// compiles into one pass. Writes that go through the mixed-word escape
// (mark_partial) or span words (mark_write) call into shadow.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "support/page_table.hpp"
#include "support/paged_memory.hpp"

namespace tq::quad {

/// Producer id stored per word (or per byte of a mixed word). 16 bits bound
/// the tool to 65533 kernels, ample for real programs (hArtes wfs has 64
/// functions); the two top values are reserved.
using ProducerId = std::uint16_t;
inline constexpr ProducerId kNoProducer = 0xffff;
inline constexpr ProducerId kMixed = 0xfffe;  ///< cell only: see the escape

/// Sparse map: byte address -> last-writing kernel.
class ShadowMemory {
 public:
  static constexpr std::uint64_t kPageBits = PagedMemory::kPageBits;
  static constexpr std::uint64_t kPageSize = PagedMemory::kPageSize;
  static constexpr std::uint64_t kWordSize = 8;
  static constexpr std::uint64_t kWordsPerPage = kPageSize / kWordSize;
  static constexpr std::size_t kCellBytes = kWordsPerPage * 8;  ///< one page's cells
  static constexpr std::size_t kEscapeBytes = kPageSize * sizeof(ProducerId);

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
  /// both incl and excl when the word was already uniformly `producer`'s
  /// and excl-covered, incl alone when it was uniformly `producer`'s, none
  /// otherwise. The caller inserts what is not known; a full-word non-stack
  /// write then records that the excl set covers the word.
  unsigned mark_word(std::uint64_t addr, std::uint32_t size, ProducerId producer,
                     bool excl);

  /// Look up a word-contained read (in_one_word) by `reader`, a stack
  /// (`excl` false) or non-stack access. `known` is true when the word's
  /// memo proves the reader's IN bits for these bytes (excl ones too when
  /// `excl`), and the producer->reader edge's bits, are already set. When
  /// it is not, the memo is updated on the promise that the caller now
  /// inserts them. Reads of non-resident pages and of mixed words are never
  /// memoised.
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
      const Page* page = pages_.find(cursor >> kPageBits);
      const std::uint64_t offset = cursor & (kPageSize - 1);
      const std::uint64_t end = std::min<std::uint64_t>(offset + remaining, kPageSize);
      if (page == nullptr) {
        visit(kNoProducer, static_cast<std::uint32_t>(end - offset));
      } else {
        // Coalesce runs of the same producer within the page, a uniform
        // word at a time and a mixed word a byte at a time.
        std::uint64_t run_start = offset;
        ProducerId run_producer = page->byte(offset);
        const auto extend = [&](ProducerId p, std::uint64_t at) {
          if (p == run_producer) return;
          visit(run_producer, static_cast<std::uint32_t>(at - run_start));
          run_start = at;
          run_producer = p;
        };
        for (std::uint64_t i = offset; i < end;) {
          const ProducerId word = page->cells[i / kWordSize].producer;
          const std::uint64_t stop = std::min(end, (i | (kWordSize - 1)) + 1);
          if (word != kMixed) {
            extend(word, i);
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
  /// Resident pages that carry an escape array (had a mixed word).
  std::size_t resident_escapes() const noexcept { return escapes_; }
  /// Bytes of shadow state: every page's cells plus every escape array.
  std::size_t resident_bytes() const noexcept {
    return pages_.size() * kCellBytes + escapes_ * kEscapeBytes;
  }

 private:
  enum CellFlags : std::uint8_t {
    kReadExcl = 1,  ///< the memo reader's excl IN bits cover read_mask too
    kOutExcl = 2,   ///< the producer's excl OUT bits cover the whole word
  };

  /// One aligned 8-byte word. `reader`/`read_mask` are the memo: `reader`'s
  /// incl IN bits, and the producer->reader edge's bits, are set for every
  /// byte in `read_mask` (and its excl IN bits when kReadExcl).
  struct alignas(8) Cell {
    ProducerId producer = kNoProducer;  ///< kMixed: per byte in the escape
    ProducerId reader = kNoProducer;    ///< memo reader, kNoProducer if none
    std::uint8_t read_mask = 0;         ///< bit b: byte b of the word
    std::uint8_t flags = 0;             ///< CellFlags
  };
  static_assert(sizeof(Cell[kWordsPerPage]) == kCellBytes, "a cell is 8 bytes");

  struct Page {
    Cell cells[kWordsPerPage];
    /// Per-byte producers, meaningful only inside kMixed words; allocated
    /// on the page's first mixed word.
    std::unique_ptr<ProducerId[]> escape;

    ProducerId byte(std::uint64_t offset) const noexcept {
      const ProducerId word = cells[offset / kWordSize].producer;
      return word == kMixed ? escape[offset] : word;
    }
  };

  /// Write `producer` into bytes [first, first+count) of the page's word
  /// `word` (count < kWordSize), going through the escape array; collapses
  /// the word back to uniform when all its bytes agree. Clears the memo.
  void mark_partial(Page& page, std::uint64_t word, std::uint64_t first,
                    std::uint64_t count, ProducerId producer);

  PageTable<Page> pages_;
  std::size_t escapes_ = 0;  ///< escape arrays allocated across pages_
};

// ---- the word-contained paths (see the file comment) ----------------------

inline unsigned ShadowMemory::mark_word(std::uint64_t addr, std::uint32_t size,
                                        ProducerId producer, bool excl) {
  Page& page = pages_.touch(addr >> kPageBits);
  const std::uint64_t offset = addr & (kPageSize - 1);
  Cell& cell = page.cells[offset / kWordSize];
  if (cell.producer == producer) {
    // A same-kernel rewrite of a uniform word: every byte's last write was
    // this producer's, so its incl OUT bits cover the word already.
    const unsigned known = (cell.flags & kOutExcl) != 0
                               ? kOutInclKnown | kOutExclKnown
                               : kOutInclKnown;
    if (excl && size == kWordSize) cell.flags |= kOutExcl;
    return known;
  }
  if (size == kWordSize) {
    cell = Cell{.producer = producer,
                .flags = static_cast<std::uint8_t>(excl ? kOutExcl : 0)};
  } else {
    mark_partial(page, offset / kWordSize, offset % kWordSize, size, producer);
  }
  return 0;
}

inline ShadowMemory::WordRead ShadowMemory::read_word(std::uint64_t addr,
                                                      std::uint32_t size,
                                                      ProducerId reader, bool excl) {
  Page* page = pages_.find(addr >> kPageBits);
  if (page == nullptr) return {kNoProducer, false};
  const std::uint64_t offset = addr & (kPageSize - 1);
  Cell& cell = page->cells[offset / kWordSize];
  if (cell.producer == kMixed) return {kMixed, false};
  const auto mask = static_cast<std::uint8_t>(((1u << size) - 1) << (offset % kWordSize));
  if (cell.reader != reader) {
    cell.reader = reader;
    cell.read_mask = mask;
    cell.flags = static_cast<std::uint8_t>((cell.flags & kOutExcl) | (excl ? kReadExcl : 0));
    return {cell.producer, false};
  }
  const bool excl_covered = (cell.flags & kReadExcl) != 0;
  if ((mask & ~cell.read_mask) == 0 && (!excl || excl_covered)) {
    return {cell.producer, true};
  }
  if (excl && !excl_covered) {
    // Only this read's bytes are known to carry excl bits.
    cell.read_mask = mask;
    cell.flags |= kReadExcl;
  } else {
    cell.read_mask |= mask;
    if (!excl) cell.flags &= static_cast<std::uint8_t>(~kReadExcl);
  }
  return {cell.producer, false};
}

}  // namespace tq::quad
