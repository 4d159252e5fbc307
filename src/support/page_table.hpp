// The page directory behind every sparse per-address structure: guest
// memory above its flat arena (PagedMemory), the UnMA bitmaps (AddressSet)
// and QUAD's last-producer shadow (quad::ShadowMemory). The shadow's table
// owns all of its pages, but is the lookup only for pages at or above the
// guest arena limit: the shadow finds the pages below it through its own
// flat directory of page pointers.
//
// An open-addressing hash table from 4 KiB page number to an owned page:
// power-of-two capacity, multiplicative (Fibonacci) hash, linear probing,
// load factor at most 1/2. Pages are held through unique_ptr, so a page's
// address never changes when the table grows, and whole pages move between
// tables (set union, shard adoption) without copying.
//
// A one-entry last-hit cache short-cuts the common case of consecutive
// accesses to the same page. Only the mutating touch() writes it; const
// lookups read it but never write, so concurrent const readers do not race.
// An empty table allocates nothing.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "support/check.hpp"

namespace tq {

/// Directory from page number to an owned, default-constructed `Page`.
/// Page numbers must differ from kNoPage (any `addr >> 12` does).
template <typename Page>
class PageTable {
 public:
  static constexpr std::uint64_t kNoPage = ~0ull;

  PageTable() = default;
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // A moved-from table is empty, with no last-hit entry, and reusable.
  PageTable(PageTable&& other) noexcept { *this = std::move(other); }
  PageTable& operator=(PageTable&& other) noexcept {
    if (this != &other) {
      slots_ = std::move(other.slots_);
      capacity_ = std::exchange(other.capacity_, 0);
      size_ = std::exchange(other.size_, 0);
      shift_ = std::exchange(other.shift_, 64);
      last_key_ = std::exchange(other.last_key_, kNoPage);
      last_page_ = std::exchange(other.last_page_, nullptr);
    }
    return *this;
  }

  /// The page for `page_no`, or nullptr when it was never touched.
  Page* find(std::uint64_t page_no) const noexcept {
    if (page_no == last_key_) return last_page_;
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(page_no);; i = (i + 1) & (capacity_ - 1)) {
      const Slot& slot = slots_[i];
      if (slot.page == nullptr) return nullptr;
      if (slot.key == page_no) return slot.page.get();
    }
  }

  /// The page for `page_no`, materialised (default-constructed) on first use.
  Page& touch(std::uint64_t page_no) {
    if (page_no == last_key_) [[likely]] return *last_page_;
    return touch_slow(page_no);
  }

  /// Take ownership of `page` as `page_no` unless that page is already
  /// present; returns false (dropping `page`) in that case.
  bool adopt(std::uint64_t page_no, std::unique_ptr<Page> page) {
    TQUAD_DCHECK(page != nullptr, "adopting a null page");
    if (find(page_no) != nullptr) return false;
    insert_new(page_no, std::move(page));
    return true;
  }

  /// Hand every page to `take(page_no, std::unique_ptr<Page>)` and leave the
  /// table empty (and reusable).
  template <typename Take>
  void drain(Take&& take) {
    std::unique_ptr<Slot[]> slots = std::move(slots_);
    const std::size_t capacity = std::exchange(capacity_, 0);
    reset_empty();
    for (std::size_t i = 0; i < capacity; ++i) {
      if (slots[i].page != nullptr) take(slots[i].key, std::move(slots[i].page));
    }
  }

  /// Number of resident pages.
  std::size_t size() const noexcept { return size_; }

  /// Drop every page and the directory itself.
  void clear() noexcept {
    slots_.reset();
    capacity_ = 0;
    reset_empty();
  }

 private:
  struct Slot {
    std::uint64_t key = kNoPage;
    std::unique_ptr<Page> page;  ///< nullptr marks an empty slot
  };

  static constexpr std::size_t kMinCapacity = 16;

  std::size_t home(std::uint64_t page_no) const noexcept {
    return static_cast<std::size_t>((page_no * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void reset_empty() noexcept {
    size_ = 0;
    shift_ = 64;
    last_key_ = kNoPage;
    last_page_ = nullptr;
  }

  Page& touch_slow(std::uint64_t page_no) {
    TQUAD_DCHECK(page_no != kNoPage, "page number collides with kNoPage");
    if (size_ != 0) {
      std::size_t i = home(page_no);
      for (; slots_[i].page != nullptr; i = (i + 1) & (capacity_ - 1)) {
        if (slots_[i].key == page_no) return remember(page_no, *slots_[i].page);
      }
    }
    return remember(page_no, insert_new(page_no, std::make_unique<Page>()));
  }

  Page& remember(std::uint64_t page_no, Page& page) noexcept {
    last_key_ = page_no;
    last_page_ = &page;
    return page;
  }

  /// Insert a page known to be absent, growing first to keep load <= 1/2.
  Page& insert_new(std::uint64_t page_no, std::unique_ptr<Page> page) {
    if (2 * (size_ + 1) > capacity_) grow();
    Page& placed = *page;
    place(page_no, std::move(page));
    ++size_;
    return placed;
  }

  void place(std::uint64_t page_no, std::unique_ptr<Page> page) noexcept {
    std::size_t i = home(page_no);
    while (slots_[i].page != nullptr) i = (i + 1) & (capacity_ - 1);
    slots_[i].key = page_no;
    slots_[i].page = std::move(page);
  }

  void grow() {
    const std::size_t capacity = capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    std::unique_ptr<Slot[]> old = std::exchange(slots_, std::make_unique<Slot[]>(capacity));
    const std::size_t old_capacity = std::exchange(capacity_, capacity);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old[i].page != nullptr) place(old[i].key, std::move(old[i].page));
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t capacity_ = 0;   ///< power of two, or 0 before the first page
  std::size_t size_ = 0;
  unsigned shift_ = 64;        ///< 64 - log2(capacity_)
  std::uint64_t last_key_ = kNoPage;  ///< touch()'s last page, kNoPage if none
  Page* last_page_ = nullptr;
};

}  // namespace tq
