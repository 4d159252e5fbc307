#include "support/address_set.hpp"

#include <bit>

namespace tq {

void AddressSet::insert_range_slow(std::uint64_t addr, std::uint32_t size) {
  std::uint64_t remaining = size;
  while (remaining > 0) {
    const std::uint64_t page_no = addr >> kPageBits;
    const std::uint64_t offset = addr & (kPageSize - 1);
    const std::uint64_t in_page = std::min<std::uint64_t>(remaining, kPageSize - offset);
    Bitmap& bm = pages_.touch(page_no);
    // Set bits [offset, offset+in_page) word by word.
    std::uint64_t bit = offset;
    std::uint64_t left = in_page;
    while (left > 0) {
      const std::uint64_t word_idx = bit >> 6;
      const std::uint64_t bit_in_word = bit & 63;
      const std::uint64_t span = std::min<std::uint64_t>(left, 64 - bit_in_word);
      const std::uint64_t mask =
          span == 64 ? ~0ull : (((1ull << span) - 1) << bit_in_word);
      const std::uint64_t before = bm.words[word_idx];
      const std::uint64_t after = before | mask;
      population_ += static_cast<std::uint64_t>(std::popcount(after) -
                                                std::popcount(before));
      bm.words[word_idx] = after;
      bit += span;
      left -= span;
    }
    addr += in_page;
    remaining -= in_page;
  }
}

std::uint64_t AddressSet::count_range(std::uint64_t addr,
                                      std::uint64_t size) const noexcept {
  std::uint64_t total = 0;
  std::uint64_t cursor = addr;
  std::uint64_t remaining = size;
  while (remaining > 0) {
    const std::uint64_t page_no = cursor >> kPageBits;
    const std::uint64_t offset = cursor & (kPageSize - 1);
    const std::uint64_t in_page = std::min<std::uint64_t>(remaining, kPageSize - offset);
    if (const Bitmap* bm = pages_.find(page_no)) {
      std::uint64_t bit = offset;
      std::uint64_t left = in_page;
      while (left > 0) {
        const std::uint64_t word_idx = bit >> 6;
        const std::uint64_t bit_in_word = bit & 63;
        const std::uint64_t span = std::min<std::uint64_t>(left, 64 - bit_in_word);
        const std::uint64_t mask =
            span == 64 ? ~0ull : (((1ull << span) - 1) << bit_in_word);
        total += static_cast<std::uint64_t>(
            std::popcount(bm->words[word_idx] & mask));
        bit += span;
        left -= span;
      }
    }
    cursor += in_page;
    remaining -= in_page;
  }
  return total;
}

void AddressSet::merge(AddressSet&& other) {
  if (this == &other) return;
  other.pages_.drain([&](std::uint64_t page_no, std::unique_ptr<Bitmap> bitmap) {
    if (Bitmap* mine = pages_.find(page_no)) {
      for (std::size_t w = 0; w < kWordsPerPage; ++w) {
        const std::uint64_t before = mine->words[w];
        const std::uint64_t after = before | bitmap->words[w];
        population_ += static_cast<std::uint64_t>(std::popcount(after) -
                                                  std::popcount(before));
        mine->words[w] = after;
      }
    } else {
      for (std::size_t w = 0; w < kWordsPerPage; ++w) {
        population_ += static_cast<std::uint64_t>(std::popcount(bitmap->words[w]));
      }
      pages_.adopt(page_no, std::move(bitmap));
    }
  });
  other.clear();
}

bool AddressSet::contains(std::uint64_t addr) const noexcept {
  const Bitmap* bm = pages_.find(addr >> kPageBits);
  if (bm == nullptr) return false;
  const std::uint64_t offset = addr & (kPageSize - 1);
  return (bm->words[offset >> 6] >> (offset & 63)) & 1;
}

}  // namespace tq
