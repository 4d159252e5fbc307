// Time-sliced memory-bandwidth accounting — the heart of tQUAD.
//
// The time base is the retired-instruction count; a *time slice* is a span
// of `slice_interval` instructions (the paper sweeps 5'000 .. 1e8). For each
// kernel and each slice in which it touches memory, the recorder keeps bytes
// read and written, each split into stack-area and non-stack portions, so a
// single run answers every include/exclude-stack question the paper's
// separate runs answer.
//
// Storage is sparse: kernels accumulate into a current-slice buffer that is
// flushed into a (slice, counters) series when the slice advances — memory
// stays proportional to *active* kernel-slices, not to kernels × slices.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace tq::tquad {

/// Byte counters for one kernel in one slice. "incl" counts every access;
/// "excl" counts only non-stack accesses (paper: stack area excluded).
struct SliceCounters {
  std::uint64_t read_incl = 0;
  std::uint64_t read_excl = 0;
  std::uint64_t write_incl = 0;
  std::uint64_t write_excl = 0;

  bool empty() const noexcept {
    return read_incl == 0 && write_incl == 0;
  }
  void clear() noexcept { *this = SliceCounters{}; }
  /// Count one access of `bytes`.
  void add(std::uint64_t bytes, bool is_read, bool is_stack) noexcept {
    const std::uint64_t read = is_read ? bytes : 0;
    const std::uint64_t write = bytes - read;
    const std::uint64_t global = is_stack ? 0 : ~0ull;
    read_incl += read;
    read_excl += read & global;
    write_incl += write;
    write_excl += write & global;
  }
  void merge(const SliceCounters& other) noexcept {
    read_incl += other.read_incl;
    read_excl += other.read_excl;
    write_incl += other.write_incl;
    write_excl += other.write_excl;
  }
};

/// One flushed sample: kernel was active in `slice` with these counters.
struct SliceSample {
  std::uint64_t slice = 0;
  SliceCounters counters;
};

/// Per-kernel bandwidth series plus lifetime totals.
struct KernelBandwidth {
  std::vector<SliceSample> series;  ///< ascending by slice; only active slices
  SliceCounters totals;

  std::uint64_t first_active_slice() const noexcept {
    return series.empty() ? 0 : series.front().slice;
  }
  std::uint64_t last_active_slice() const noexcept {
    return series.empty() ? 0 : series.back().slice;
  }
  /// Number of slices in which the kernel touched memory (activity span
  /// column of Table IV).
  std::uint64_t active_slices() const noexcept { return series.size(); }

  /// Fold `other` (same kernel, same slice interval) into this series:
  /// samples for the same slice merge their counters, distinct slices
  /// interleave in ascending order. The operation is associative and
  /// commutative, so block-range shards of one trace merge into exactly
  /// the whole-trace series regardless of shard boundaries or order — the
  /// farm's fleet aggregation depends on that.
  void merge(const KernelBandwidth& other);
};

/// Records per-kernel, per-slice byte counts.
class BandwidthRecorder {
 public:
  BandwidthRecorder(std::size_t kernel_count, std::uint64_t slice_interval);

  std::uint64_t slice_interval() const noexcept { return slice_interval_; }

  /// The slice holding instruction-time `retired`. The recorder keeps the
  /// last slice's retired window, so a time in it skips the 64-bit divide;
  /// a time outside moves the window and raises max_slice().
  std::uint64_t slice_of(std::uint64_t retired) {
    if (retired < window_lo_ || retired > window_last_) [[unlikely]] move_window(retired);
    return window_slice_;
  }

  /// Account `bytes` to `kernel` in `slice` (from slice_of): the kernel's
  /// open slice switches to `slice` first, even when `bytes` is empty.
  /// Adding the sum of several accesses in one slice is the same as adding
  /// each of them.
  void add(std::uint32_t kernel, std::uint64_t slice, const SliceCounters& bytes) {
    TQUAD_DCHECK(kernel < kernels_.size(), "kernel id out of range");
    TQUAD_DCHECK(!finished_, "access after finish()");
    Open& open = open_[kernel];
    if (open.slice != slice) [[unlikely]] switch_slice(kernel, slice);
    open.counters.merge(bytes);
    kernels_[kernel].totals.merge(bytes);
  }

  /// Account one memory access of `bytes` by `kernel` at instruction-time
  /// `retired`. `is_stack` follows the SP-relative classification.
  void on_access(std::uint32_t kernel, std::uint64_t retired, std::uint32_t bytes,
                 bool is_read, bool is_stack) {
    SliceCounters counters;
    counters.add(bytes, is_read, is_stack);
    add(kernel, slice_of(retired), counters);
  }

  /// Flush all open slice buffers; call once at program end.
  void finish();

  const KernelBandwidth& kernel(std::uint32_t id) const {
    TQUAD_CHECK(id < kernels_.size(), "kernel id out of range");
    return kernels_[id];
  }
  std::size_t kernel_count() const noexcept { return kernels_.size(); }

  /// Highest slice index seen (so reports know the timeline length).
  std::uint64_t max_slice() const noexcept { return max_slice_; }

 private:
  /// A kernel's current-slice buffer; flushed only when it holds bytes, so
  /// every slice value (2^64 - 1 included) is a real slice.
  struct Open {
    std::uint64_t slice = 0;
    SliceCounters counters;
  };

  void move_window(std::uint64_t retired);
  /// Flush `kernel`'s open slice into its series (when it holds bytes) and
  /// open `slice`.
  void switch_slice(std::uint32_t kernel, std::uint64_t slice);

  std::vector<KernelBandwidth> kernels_;
  std::vector<Open> open_;
  std::uint64_t slice_interval_;
  std::uint64_t max_slice_ = 0;
  /// The last slice_of() slice and its retired window [lo, last]. `last`
  /// saturates at 2^64 - 1 for a slice reaching past it. Starts empty
  /// (lo > last).
  std::uint64_t window_slice_ = 0;
  std::uint64_t window_lo_ = 1;
  std::uint64_t window_last_ = 0;
  bool finished_ = false;
};

}  // namespace tq::tquad
