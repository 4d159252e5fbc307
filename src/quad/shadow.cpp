#include "quad/shadow.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace tq::quad {

void ShadowMemory::mark_partial(Page& page, std::uint64_t word,
                                std::uint64_t first, std::uint64_t count,
                                ProducerId producer) {
  Cell& cell = page.cells[word];
  if (page.escape == nullptr) {
    page.escape = std::make_unique<ProducerId[]>(kPageSize);
    ++escapes_;
  }
  ProducerId* bytes = page.escape.get() + word * kWordSize;
  if (cell.producer != kMixed) std::fill(bytes, bytes + kWordSize, cell.producer);
  std::fill(bytes + first, bytes + first + count, producer);
  const bool uniform =
      std::all_of(bytes + 1, bytes + kWordSize, [&](ProducerId p) { return p == bytes[0]; });
  cell = Cell{.producer = uniform ? bytes[0] : kMixed};
}

void ShadowMemory::mark_write(std::uint64_t addr, std::uint32_t size,
                              ProducerId producer) {
  std::uint64_t cursor = addr;
  std::uint64_t remaining = size;
  while (remaining > 0) {
    Page& page = pages_.touch(cursor >> kPageBits);
    const std::uint64_t offset = cursor & (kPageSize - 1);
    const std::uint64_t word = offset / kWordSize;
    const std::uint64_t first = offset % kWordSize;
    const std::uint64_t count = std::min(remaining, kWordSize - first);
    if (count == kWordSize) {
      page.cells[word] = Cell{.producer = producer};
    } else {
      mark_partial(page, word, first, count, producer);
    }
    cursor += count;
    remaining -= count;
  }
}

unsigned ShadowMemory::mark_word(std::uint64_t addr, std::uint32_t size,
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

ShadowMemory::WordRead ShadowMemory::read_word(std::uint64_t addr,
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

void ShadowMemory::adopt_disjoint(ShadowMemory&& other) {
  if (this == &other) return;
  other.pages_.drain([&](std::uint64_t page_no, std::unique_ptr<Page> page) {
    const bool adopted = pages_.adopt(page_no, std::move(page));
    TQUAD_CHECK(adopted, "shadow shards overlap: page owned by two shards");
  });
  escapes_ += std::exchange(other.escapes_, 0);
}

ProducerId ShadowMemory::producer_of(std::uint64_t addr) const noexcept {
  const Page* page = pages_.find(addr >> kPageBits);
  if (page == nullptr) return kNoProducer;
  return page->byte(addr & (kPageSize - 1));
}

}  // namespace tq::quad
