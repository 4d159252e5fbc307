#include "quad/shadow.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace tq::quad {

void ShadowMemory::mark_write(std::uint64_t addr, std::uint32_t size,
                              ProducerId producer) {
  std::uint64_t cursor = addr;
  std::uint64_t remaining = size;
  while (remaining > 0) {
    Page& page = pages_.touch(cursor >> kPageBits);
    const std::uint64_t offset = cursor & (kPageSize - 1);
    const std::uint64_t in_page = std::min<std::uint64_t>(remaining, kPageSize - offset);
    std::fill(page.producers + offset, page.producers + offset + in_page, producer);
    cursor += in_page;
    remaining -= in_page;
  }
}

void ShadowMemory::adopt_disjoint(ShadowMemory&& other) {
  if (this == &other) return;
  other.pages_.drain([&](std::uint64_t page_no, std::unique_ptr<Page> page) {
    const bool adopted = pages_.adopt(page_no, std::move(page));
    TQUAD_CHECK(adopted, "shadow shards overlap: page owned by two shards");
  });
}

ProducerId ShadowMemory::producer_of(std::uint64_t addr) const noexcept {
  const Page* page = pages_.find(addr >> kPageBits);
  if (page == nullptr) return kNoProducer;
  return page->producers[addr & (kPageSize - 1)];
}

}  // namespace tq::quad
