#include "quad/shadow.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace tq::quad {

namespace {
constexpr std::size_t kDirectoryBytes = ShadowMemory::kDirectoryPages * sizeof(void*);
}  // namespace

void ShadowMemory::DirectoryUnmap::operator()(Page** directory) const noexcept {
  ::munmap(directory, kDirectoryBytes);
}

ShadowMemory::Page& ShadowMemory::touch_slow(std::uint64_t page_no) {
  Page& page = pages_.touch(page_no);
  list(page_no, page);
  return page;
}

void ShadowMemory::list(std::uint64_t page_no, Page& page) {
  if (page_no >= kDirectoryPages) return;
  if (directory_ == nullptr) {
    if (directory_failed_) return;
    void* const base = ::mmap(nullptr, kDirectoryBytes, PROT_READ | PROT_WRITE,
                              MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED) {
      directory_failed_ = true;
      return;
    }
    directory_.reset(static_cast<Page**>(base));
    directory_limit_ = kDirectoryPages;
  }
  directory_[page_no] = &page;
}

void ShadowMemory::mark_partial(Page& page, std::uint64_t word, unsigned first,
                                unsigned count, ProducerId producer) {
  Cell& cell = page.cells[word];
  const unsigned last = first + count;
  for (unsigned h = first / kHalfSize; h * kHalfSize < last; ++h) {
    const unsigned from = std::max<unsigned>(first, h * kHalfSize);
    const unsigned to = std::min<unsigned>(last, (h + 1) * kHalfSize);
    ProducerId& half = cell.producer[h];
    if (to - from == kHalfSize || half == producer) {
      half = producer;  // the whole half, or more bytes of its own producer
      continue;
    }
    // A split inside the half: its bytes go through the escape.
    if (page.escape == nullptr) {
      page.escape = std::make_unique<ProducerId[]>(kPageSize);
      ++escapes_;
    }
    ProducerId* bytes = page.escape.get() + word * kWordSize + h * kHalfSize;
    if (half != kMixed) std::fill(bytes, bytes + kHalfSize, half);
    std::fill(bytes + (from - h * kHalfSize), bytes + (to - h * kHalfSize), producer);
    const bool uniform =
        std::all_of(bytes + 1, bytes + kHalfSize, [&](ProducerId p) { return p == bytes[0]; });
    half = uniform ? bytes[0] : kMixed;
  }
  cell.forget_reader();
  cell.flags &= static_cast<std::uint8_t>(~out_excl_bits(first, count));
}

void ShadowMemory::mark_write(std::uint64_t addr, std::uint32_t size,
                              ProducerId producer) {
  std::uint64_t cursor = addr;
  std::uint64_t remaining = size;
  while (remaining > 0) {
    Page& page = touch(cursor >> kPageBits);
    const std::uint64_t offset = cursor & (kPageSize - 1);
    const std::uint64_t word = offset / kWordSize;
    const auto first = static_cast<unsigned>(offset % kWordSize);
    const auto count =
        static_cast<unsigned>(std::min<std::uint64_t>(remaining, kWordSize - first));
    if (count == kWordSize) {
      page.cells[word] = Cell{.producer = {producer, producer}};
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
    Page& taken = *page;
    const bool adopted = pages_.adopt(page_no, std::move(page));
    TQUAD_CHECK(adopted, "shadow shards overlap: page owned by two shards");
    list(page_no, taken);
  });
  other.directory_.reset();
  other.directory_limit_ = 0;
  other.directory_failed_ = false;
  escapes_ += std::exchange(other.escapes_, 0);
}

ProducerId ShadowMemory::producer_of(std::uint64_t addr) const noexcept {
  const Page* page = find(addr >> kPageBits);
  if (page == nullptr) return kNoProducer;
  return page->byte(addr & (kPageSize - 1));
}

}  // namespace tq::quad
