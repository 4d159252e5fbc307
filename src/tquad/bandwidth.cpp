#include "tquad/bandwidth.hpp"

#include <algorithm>
#include <utility>

namespace tq::tquad {

void KernelBandwidth::merge(const KernelBandwidth& other) {
  if (other.series.empty() && other.totals.empty()) return;
  // Two-pointer merge of the ascending sparse series; equal slice indices
  // (a slice cut by a shard boundary) fold by addition.
  std::vector<SliceSample> merged;
  merged.reserve(series.size() + other.series.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < series.size() || b < other.series.size()) {
    if (b == other.series.size() ||
        (a < series.size() && series[a].slice < other.series[b].slice)) {
      merged.push_back(series[a++]);
    } else if (a == series.size() || other.series[b].slice < series[a].slice) {
      merged.push_back(other.series[b++]);
    } else {
      SliceSample sample = series[a++];
      sample.counters.merge(other.series[b++].counters);
      merged.push_back(sample);
    }
  }
  series = std::move(merged);
  totals.merge(other.totals);
}

BandwidthRecorder::BandwidthRecorder(std::size_t kernel_count,
                                     std::uint64_t slice_interval)
    : kernels_(kernel_count), open_(kernel_count), slice_interval_(slice_interval) {
  TQUAD_CHECK(slice_interval_ > 0, "slice interval must be positive");
}

void BandwidthRecorder::move_window(std::uint64_t retired) {
  // Accesses arrive in retired order live and in block ranges from the
  // farm; either way most land in the previous access's slice.
  window_slice_ = retired / slice_interval_;
  window_lo_ = window_slice_ * slice_interval_;
  const std::uint64_t span = slice_interval_ - 1;
  window_last_ = span > ~0ull - window_lo_ ? ~0ull : window_lo_ + span;
  max_slice_ = std::max(max_slice_, window_slice_);
}

void BandwidthRecorder::switch_slice(std::uint32_t kernel, std::uint64_t slice) {
  Open& open = open_[kernel];
  if (!open.counters.empty()) {
    kernels_[kernel].series.push_back(SliceSample{open.slice, open.counters});
  }
  open.slice = slice;
  open.counters.clear();
}

void BandwidthRecorder::finish() {
  if (finished_) return;
  finished_ = true;
  for (std::size_t k = 0; k < kernels_.size(); ++k) {
    Open& open = open_[k];
    if (!open.counters.empty()) {
      kernels_[k].series.push_back(SliceSample{open.slice, open.counters});
    }
    open = Open{};
  }
}

}  // namespace tq::tquad
