#include "support/paged_memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <utility>

namespace tq {

PagedMemory::PagedMemory() {
  void* const base = ::mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base != MAP_FAILED) {
    arena_ = static_cast<std::uint8_t*>(base);
    limit_ = kArenaBytes - 7;
  }
}

PagedMemory::~PagedMemory() { unmap(); }

PagedMemory::PagedMemory(PagedMemory&& other) noexcept
    : arena_(std::exchange(other.arena_, nullptr)),
      limit_(std::exchange(other.limit_, 0)),
      pages_(std::move(other.pages_)) {}

PagedMemory& PagedMemory::operator=(PagedMemory&& other) noexcept {
  if (this != &other) {
    unmap();
    arena_ = std::exchange(other.arena_, nullptr);
    limit_ = std::exchange(other.limit_, 0);
    pages_ = std::move(other.pages_);
  }
  return *this;
}

void PagedMemory::unmap() noexcept {
  if (arena_ != nullptr) ::munmap(arena_, kArenaBytes);
}

// Both span walks cut at the arena's end and at every page boundary above
// it, so each chunk lies in the arena or in one directory page. The arena
// and the pages are both 4 KiB aligned, so a chunk that starts above the
// arena never runs back into it, except by wrapping past 2^64 onto page 0.
void PagedMemory::read(std::uint64_t addr, std::span<std::uint8_t> out) const {
  const std::uint64_t arena_end = arena_ != nullptr ? kArenaBytes : 0;
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t at = addr + done;
    if (at < arena_end) {
      const std::size_t chunk =
          std::min<std::uint64_t>(out.size() - done, arena_end - at);
      std::memcpy(out.data() + done, arena_ + at, chunk);
      done += chunk;
      continue;
    }
    const std::uint64_t offset = at & kOffsetMask;
    const std::size_t chunk =
        std::min<std::size_t>(out.size() - done, kPageSize - offset);
    if (const Page* page = pages_.find(at >> kPageBits)) {
      std::memcpy(out.data() + done, page->bytes + offset, chunk);
    } else {
      std::memset(out.data() + done, 0, chunk);
    }
    done += chunk;
  }
}

void PagedMemory::write(std::uint64_t addr, std::span<const std::uint8_t> in) {
  const std::uint64_t arena_end = arena_ != nullptr ? kArenaBytes : 0;
  std::size_t done = 0;
  while (done < in.size()) {
    const std::uint64_t at = addr + done;
    if (at < arena_end) {
      const std::size_t chunk =
          std::min<std::uint64_t>(in.size() - done, arena_end - at);
      std::memcpy(arena_ + at, in.data() + done, chunk);
      done += chunk;
      continue;
    }
    const std::uint64_t offset = at & kOffsetMask;
    const std::size_t chunk =
        std::min<std::size_t>(in.size() - done, kPageSize - offset);
    Page& page = pages_.touch(at >> kPageBits);
    std::memcpy(page.bytes + offset, in.data() + done, chunk);
    done += chunk;
  }
}

std::uint64_t PagedMemory::load_slow(std::uint64_t addr, unsigned size_bytes) const {
  std::uint64_t value = 0;
  read(addr, std::span<std::uint8_t>(reinterpret_cast<std::uint8_t*>(&value), size_bytes));
  return value;
}

void PagedMemory::store_slow(std::uint64_t addr, std::uint64_t value,
                             unsigned size_bytes) {
  write(addr, std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(&value),
                                            size_bytes));
}

}  // namespace tq
