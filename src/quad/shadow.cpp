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
