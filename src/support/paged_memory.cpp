#include "support/paged_memory.hpp"

#include <bit>

namespace tq {

void PagedMemory::read(std::uint64_t addr, std::span<std::uint8_t> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t page_no = (addr + done) >> kPageBits;
    const std::uint64_t offset = (addr + done) & kOffsetMask;
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - done, kPageSize - offset);
    if (const Page* page = pages_.find(page_no)) {
      std::memcpy(out.data() + done, page->bytes + offset, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);
    }
    done += chunk;
  }
}

void PagedMemory::write(std::uint64_t addr, std::span<const std::uint8_t> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const std::uint64_t page_no = (addr + done) >> kPageBits;
    const std::uint64_t offset = (addr + done) & kOffsetMask;
    const std::size_t chunk =
        std::min<std::size_t>(in.size() - done, kPageSize - offset);
    Page& page = pages_.touch(page_no);
    std::memcpy(page.bytes + offset, in.data() + done, chunk);
    done += chunk;
  }
}

std::uint64_t PagedMemory::load(std::uint64_t addr, unsigned size_bytes) const {
  TQUAD_DCHECK(size_bytes == 1 || size_bytes == 2 || size_bytes == 4 || size_bytes == 8,
               "unsupported load size");
  // Fast path: access within one page.
  const std::uint64_t offset = addr & kOffsetMask;
  if (offset + size_bytes <= kPageSize) {
    const Page* page = pages_.find(addr >> kPageBits);
    if (page == nullptr) return 0;
    std::uint64_t value = 0;
    std::memcpy(&value, page->bytes + offset, size_bytes);
    return value;
  }
  std::uint8_t buf[8] = {};
  read(addr, std::span<std::uint8_t>(buf, size_bytes));
  std::uint64_t value = 0;
  std::memcpy(&value, buf, 8);
  return value;
}

void PagedMemory::store(std::uint64_t addr, std::uint64_t value, unsigned size_bytes) {
  TQUAD_DCHECK(size_bytes == 1 || size_bytes == 2 || size_bytes == 4 || size_bytes == 8,
               "unsupported store size");
  const std::uint64_t offset = addr & kOffsetMask;
  if (offset + size_bytes <= kPageSize) {
    Page& page = pages_.touch(addr >> kPageBits);
    std::memcpy(page.bytes + offset, &value, size_bytes);
    return;
  }
  std::uint8_t buf[8];
  std::memcpy(buf, &value, 8);
  write(addr, std::span<const std::uint8_t>(buf, size_bytes));
}

double PagedMemory::load_f64(std::uint64_t addr) const {
  return std::bit_cast<double>(load(addr, 8));
}

void PagedMemory::store_f64(std::uint64_t addr, double value) {
  store(addr, std::bit_cast<std::uint64_t>(value), 8);
}

}  // namespace tq
