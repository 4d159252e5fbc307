#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "tquad/bandwidth.hpp"
#include "tquad/report.hpp"

namespace tq::tquad {
namespace {

TEST(BandwidthRecorder, AccountsBytesToCorrectSlices) {
  BandwidthRecorder rec(2, 100);  // 2 kernels, 100-instruction slices
  rec.on_access(0, 10, 8, /*is_read=*/true, /*is_stack=*/false);
  rec.on_access(0, 50, 4, true, true);
  rec.on_access(0, 150, 16, false, false);  // next slice
  rec.on_access(1, 150, 2, true, false);
  rec.finish();

  const KernelBandwidth& k0 = rec.kernel(0);
  ASSERT_EQ(k0.series.size(), 2u);
  EXPECT_EQ(k0.series[0].slice, 0u);
  EXPECT_EQ(k0.series[0].counters.read_incl, 12u);
  EXPECT_EQ(k0.series[0].counters.read_excl, 8u);  // the stack access excluded
  EXPECT_EQ(k0.series[0].counters.write_incl, 0u);
  EXPECT_EQ(k0.series[1].slice, 1u);
  EXPECT_EQ(k0.series[1].counters.write_incl, 16u);
  EXPECT_EQ(k0.series[1].counters.write_excl, 16u);
  EXPECT_EQ(k0.totals.read_incl, 12u);
  EXPECT_EQ(k0.totals.write_incl, 16u);

  const KernelBandwidth& k1 = rec.kernel(1);
  ASSERT_EQ(k1.series.size(), 1u);
  EXPECT_EQ(k1.series[0].slice, 1u);
  EXPECT_EQ(rec.max_slice(), 1u);
}

TEST(BandwidthRecorder, SkippedSlicesProduceNoSamples) {
  BandwidthRecorder rec(1, 10);
  rec.on_access(0, 5, 1, true, false);
  rec.on_access(0, 95, 1, true, false);   // slice 9; slices 1..8 silent
  rec.on_access(0, 9999, 1, true, false); // slice 999
  rec.finish();
  const KernelBandwidth& k = rec.kernel(0);
  ASSERT_EQ(k.series.size(), 3u);
  EXPECT_EQ(k.series[0].slice, 0u);
  EXPECT_EQ(k.series[1].slice, 9u);
  EXPECT_EQ(k.series[2].slice, 999u);
  EXPECT_EQ(k.active_slices(), 3u);
  EXPECT_EQ(k.first_active_slice(), 0u);
  EXPECT_EQ(k.last_active_slice(), 999u);
}

TEST(BandwidthRecorder, FinishIsIdempotentAndFlushes) {
  BandwidthRecorder rec(1, 100);
  rec.on_access(0, 42, 8, false, false);
  EXPECT_EQ(rec.kernel(0).series.size(), 0u);  // still buffered
  rec.finish();
  EXPECT_EQ(rec.kernel(0).series.size(), 1u);
  rec.finish();
  EXPECT_EQ(rec.kernel(0).series.size(), 1u);
}

TEST(BandwidthRecorder, SeriesAscendingBySlicePerKernel) {
  BandwidthRecorder rec(3, 7);
  // Interleave kernels at increasing times.
  for (std::uint64_t t = 0; t < 700; t += 13) {
    rec.on_access(t % 3, t, 4, t % 2 == 0, false);
  }
  rec.finish();
  for (std::uint32_t k = 0; k < 3; ++k) {
    const auto& series = rec.kernel(k).series;
    for (std::size_t i = 1; i < series.size(); ++i) {
      EXPECT_LT(series[i - 1].slice, series[i].slice);
    }
  }
}

TEST(BandwidthStats, AveragesOverActiveSlicesOnly) {
  BandwidthRecorder rec(1, 1000);
  rec.on_access(0, 0, 500, true, false);       // slice 0: 500 B read
  rec.on_access(0, 5000, 1500, true, false);   // slice 5: 1500 B read
  rec.on_access(0, 5100, 1000, false, true);   // slice 5: 1000 B stack write
  rec.finish();
  const BandwidthStats stats = bandwidth_stats(rec.kernel(0), 1000);
  EXPECT_EQ(stats.activity_span, 2u);
  EXPECT_EQ(stats.first_slice, 0u);
  EXPECT_EQ(stats.last_slice, 5u);
  // avg read incl = (500 + 1500) / (2 active slices * 1000 instr) = 1.0 B/i.
  EXPECT_DOUBLE_EQ(stats.avg_read_incl, 1.0);
  EXPECT_DOUBLE_EQ(stats.avg_read_excl, 1.0);
  EXPECT_DOUBLE_EQ(stats.avg_write_incl, 0.5);
  EXPECT_DOUBLE_EQ(stats.avg_write_excl, 0.0);
  // Peak slice is slice 5: (1500 + 1000) / 1000 = 2.5 B/i including stack.
  EXPECT_DOUBLE_EQ(stats.max_rw_incl, 2.5);
  EXPECT_DOUBLE_EQ(stats.max_rw_excl, 1.5);
}

TEST(BandwidthStats, EmptyKernel) {
  BandwidthRecorder rec(1, 10);
  rec.finish();
  const BandwidthStats stats = bandwidth_stats(rec.kernel(0), 10);
  EXPECT_EQ(stats.activity_span, 0u);
  EXPECT_EQ(stats.avg_read_incl, 0.0);
  EXPECT_EQ(stats.max_rw_incl, 0.0);
}

TEST(BandwidthRecorder, ZeroSliceIntervalAborts) {
  EXPECT_DEATH(BandwidthRecorder(1, 0), "slice interval");
}

/// Property: totals equal the sum over the series, per counter.
class BandwidthTotalsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthTotalsProperty, TotalsMatchSeriesSum) {
  const std::uint64_t interval = GetParam();
  BandwidthRecorder rec(4, interval);
  std::uint64_t t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += 1 + (i % 37);
    rec.on_access(i % 4, t, 1 + (i % 9), i % 3 != 0, i % 5 == 0);
  }
  rec.finish();
  for (std::uint32_t k = 0; k < 4; ++k) {
    SliceCounters sum;
    for (const auto& sample : rec.kernel(k).series) sum.merge(sample.counters);
    const auto& totals = rec.kernel(k).totals;
    EXPECT_EQ(sum.read_incl, totals.read_incl);
    EXPECT_EQ(sum.read_excl, totals.read_excl);
    EXPECT_EQ(sum.write_incl, totals.write_incl);
    EXPECT_EQ(sum.write_excl, totals.write_excl);
  }
}

INSTANTIATE_TEST_SUITE_P(Intervals, BandwidthTotalsProperty,
                         ::testing::Values(1, 7, 100, 5000, 100000));

// Boundary placement: an access with retired == K * interval is the first
// instruction *of* slice K (retired counts instructions completed before the
// event), never the last of slice K-1.
TEST(BandwidthRecorder, BoundaryExactRetiredLandsInNewSlice) {
  for (std::uint64_t interval : {1ull, 7ull, 5000ull}) {
    SCOPED_TRACE("interval=" + std::to_string(interval));
    BandwidthRecorder rec(1, interval);
    for (std::uint64_t k : {0ull, 1ull, 3ull}) {
      rec.on_access(0, k * interval, 8, true, false);
    }
    rec.finish();
    // Three distinct slices — 0, 1 and 3 — one per boundary-exact access.
    const auto& series = rec.kernel(0).series;
    ASSERT_EQ(series.size(), 3u);
    for (std::size_t i = 0; i < series.size(); ++i) {
      EXPECT_EQ(series[i].slice, i < 2 ? i : 3u);
    }
  }
}

/// Property over adversarial random streams: for every kernel, the slice
/// series must partition the byte totals exactly — all four counters, with
/// accesses forced onto exact slice boundaries and long slice gaps mixed in.
class BandwidthRandomStreamProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthRandomStreamProperty, SeriesPartitionsRunningTotals) {
  const std::uint64_t interval = GetParam();
  constexpr std::uint32_t kKernels = 5;
  SplitMix64 rng(0x7157ull * interval + 1);
  BandwidthRecorder rec(kKernels, interval);
  SliceCounters expect[kKernels];
  std::map<std::pair<std::uint32_t, std::uint64_t>, SliceCounters> by_slice;

  std::uint64_t t = 0;
  for (int i = 0; i < 20000; ++i) {
    // Mostly small steps, occasionally a multi-slice jump, and one access in
    // eight pinned to an exact slice boundary (retired = K * interval).
    if (rng.next_below(8) == 0) {
      t = ((t / interval) + 1 + rng.next_below(3)) * interval;
    } else {
      t += rng.next_below(interval + 3);
    }
    const std::uint32_t kernel = static_cast<std::uint32_t>(rng.next_below(kKernels));
    const std::uint32_t bytes = 1 + static_cast<std::uint32_t>(rng.next_below(64));
    const bool is_read = rng.next_below(2) == 0;
    const bool is_stack = rng.next_below(4) == 0;
    rec.on_access(kernel, t, bytes, is_read, is_stack);
    SliceCounters c;
    (is_read ? c.read_incl : c.write_incl) = bytes;
    if (!is_stack) (is_read ? c.read_excl : c.write_excl) = bytes;
    expect[kernel].merge(c);
    by_slice[{kernel, t / interval}].merge(c);
  }
  rec.finish();

  for (std::uint32_t k = 0; k < kKernels; ++k) {
    SCOPED_TRACE("kernel=" + std::to_string(k));
    const KernelBandwidth& kernel = rec.kernel(k);
    SliceCounters sum;
    for (const auto& sample : kernel.series) {
      sum.merge(sample.counters);
      // Each flushed sample equals the independently tracked per-slice total.
      const auto it = by_slice.find({k, sample.slice});
      ASSERT_NE(it, by_slice.end()) << "phantom slice " << sample.slice;
      EXPECT_EQ(sample.counters.read_incl, it->second.read_incl);
      EXPECT_EQ(sample.counters.read_excl, it->second.read_excl);
      EXPECT_EQ(sample.counters.write_incl, it->second.write_incl);
      EXPECT_EQ(sample.counters.write_excl, it->second.write_excl);
    }
    EXPECT_EQ(sum.read_incl, expect[k].read_incl);
    EXPECT_EQ(sum.read_excl, expect[k].read_excl);
    EXPECT_EQ(sum.write_incl, expect[k].write_incl);
    EXPECT_EQ(sum.write_excl, expect[k].write_excl);
    EXPECT_EQ(kernel.totals.read_incl, expect[k].read_incl);
    EXPECT_EQ(kernel.totals.read_excl, expect[k].read_excl);
    EXPECT_EQ(kernel.totals.write_incl, expect[k].write_incl);
    EXPECT_EQ(kernel.totals.write_excl, expect[k].write_excl);
  }
}

INSTANTIATE_TEST_SUITE_P(Intervals, BandwidthRandomStreamProperty,
                         ::testing::Values(1, 7, 5000));

/// The divide-per-access recorder the slice cache must match: the same
/// open-slice flushing, with the slice always computed as retired /
/// interval.
class DivideReference {
 public:
  DivideReference(std::size_t kernels, std::uint64_t interval)
      : kernels_(kernels), open_(kernels), interval_(interval) {}

  void on_access(std::uint32_t kernel, std::uint64_t retired, std::uint32_t bytes,
                 bool is_read, bool is_stack) {
    const std::uint64_t slice = retired / interval_;
    max_slice_ = std::max(max_slice_, slice);
    Open& open = open_[kernel];
    if (!open.used || open.slice != slice) {
      if (open.used && !open.counters.empty()) {
        kernels_[kernel].series.push_back(SliceSample{open.slice, open.counters});
      }
      open = Open{slice, {}, true};
    }
    SliceCounters c;
    (is_read ? c.read_incl : c.write_incl) = bytes;
    if (!is_stack) (is_read ? c.read_excl : c.write_excl) = bytes;
    open.counters.merge(c);
    kernels_[kernel].totals.merge(c);
  }

  void finish() {
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
      if (open_[k].used && !open_[k].counters.empty()) {
        kernels_[k].series.push_back(SliceSample{open_[k].slice, open_[k].counters});
      }
      open_[k] = Open{};
    }
  }

  const KernelBandwidth& kernel(std::uint32_t k) const { return kernels_[k]; }
  std::uint64_t max_slice() const { return max_slice_; }

 private:
  struct Open {
    std::uint64_t slice = 0;
    SliceCounters counters;
    bool used = false;
  };
  std::vector<KernelBandwidth> kernels_;
  std::vector<Open> open_;
  std::uint64_t interval_;
  std::uint64_t max_slice_ = 0;
};

struct Access {
  std::uint32_t kernel;
  std::uint64_t retired;
  std::uint32_t bytes;
  bool is_read;
  bool is_stack;
};

/// Feed `stream` as TQuadTool's stretch loop does: the bytes of each run of
/// consecutive accesses with one kernel and one slice summed, then one add().
void add_windowed(BandwidthRecorder& rec, const std::vector<Access>& stream) {
  for (std::size_t i = 0; i < stream.size();) {
    const std::uint32_t kernel = stream[i].kernel;
    const std::uint64_t slice = rec.slice_of(stream[i].retired);
    SliceCounters window;
    for (; i < stream.size() && stream[i].kernel == kernel &&
           rec.slice_of(stream[i].retired) == slice;
         ++i) {
      window.add(stream[i].bytes, stream[i].is_read, stream[i].is_stack);
    }
    rec.add(kernel, slice, window);
  }
}

/// The recorder, fed one access at a time (on_access) or by window sums
/// (`windowed`), against DivideReference.
void expect_same_as_reference(std::uint64_t interval, std::uint32_t kernels,
                              const std::vector<Access>& stream, bool windowed = false) {
  BandwidthRecorder rec(kernels, interval);
  DivideReference ref(kernels, interval);
  if (windowed) {
    add_windowed(rec, stream);
  } else {
    for (const Access& a : stream) {
      rec.on_access(a.kernel, a.retired, a.bytes, a.is_read, a.is_stack);
    }
  }
  for (const Access& a : stream) {
    ref.on_access(a.kernel, a.retired, a.bytes, a.is_read, a.is_stack);
  }
  rec.finish();
  ref.finish();
  EXPECT_EQ(rec.max_slice(), ref.max_slice());
  for (std::uint32_t k = 0; k < kernels; ++k) {
    SCOPED_TRACE("kernel=" + std::to_string(k));
    const KernelBandwidth& got = rec.kernel(k);
    const KernelBandwidth& want = ref.kernel(k);
    ASSERT_EQ(got.series.size(), want.series.size());
    for (std::size_t i = 0; i < got.series.size(); ++i) {
      EXPECT_EQ(got.series[i].slice, want.series[i].slice) << "sample " << i;
      EXPECT_EQ(got.series[i].counters.read_incl, want.series[i].counters.read_incl);
      EXPECT_EQ(got.series[i].counters.read_excl, want.series[i].counters.read_excl);
      EXPECT_EQ(got.series[i].counters.write_incl, want.series[i].counters.write_incl);
      EXPECT_EQ(got.series[i].counters.write_excl, want.series[i].counters.write_excl);
    }
    EXPECT_EQ(got.totals.read_incl, want.totals.read_incl);
    EXPECT_EQ(got.totals.read_excl, want.totals.read_excl);
    EXPECT_EQ(got.totals.write_incl, want.totals.write_incl);
    EXPECT_EQ(got.totals.write_excl, want.totals.write_excl);
  }
}

/// (slice interval, shuffled): the recorder's cached slice window must give
/// exactly the divide-per-access answer whatever order `retired` arrives
/// in, as it does when the farm aggregates block ranges.
class BandwidthSliceCacheProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(BandwidthSliceCacheProperty, MatchesDivideReference) {
  const auto [interval, shuffled] = GetParam();
  constexpr std::uint32_t kKernels = 4;
  SplitMix64 rng(0x51cecull ^ interval ^ (shuffled ? 0x9e37ull : 0));
  std::vector<Access> stream;
  // Two stretches: one from 0, one ending at 2^64 - 1, where a slice's
  // window reaches past the top of the retired range.
  const std::uint64_t starts[] = {0, ~0ull - 40000 * (interval / 4 + 2)};
  for (const std::uint64_t start : starts) {
    std::uint64_t t = start;
    for (int i = 0; i < 20000; ++i) {
      // Mostly steps inside a slice, sometimes onto the next boundary;
      // saturating at 2^64 - 1.
      const std::uint64_t step = rng.next_below(8) == 0
                                     ? interval - t % interval
                                     : rng.next_below(interval / 2 + 2);
      t = step > ~0ull - t ? ~0ull : t + step;
      stream.push_back(Access{static_cast<std::uint32_t>(rng.next_below(kKernels)), t,
                              1 + static_cast<std::uint32_t>(rng.next_below(64)),
                              rng.next_below(2) == 0, rng.next_below(4) == 0});
    }
  }
  stream.push_back(Access{0, ~0ull, 8, true, false});
  stream.push_back(Access{1, ~0ull - (~0ull % interval), 4, false, false});
  if (shuffled) {
    for (std::size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[rng.next_below(i)]);
    }
  }
  expect_same_as_reference(interval, kKernels, stream);
  expect_same_as_reference(interval, kKernels, stream, /*windowed=*/true);
  // Zero-size accesses still switch their kernel's open slice.
  for (std::size_t i = 0; i < stream.size(); i += 7) stream[i].bytes = 0;
  expect_same_as_reference(interval, kKernels, stream);
  expect_same_as_reference(interval, kKernels, stream, /*windowed=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Intervals, BandwidthSliceCacheProperty,
    ::testing::Combine(::testing::Values(std::uint64_t{1}, std::uint64_t{5000},
                                         std::uint64_t{1} << 40),
                       ::testing::Bool()),
    [](const auto& info) {
      return "interval" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_shuffled" : "_monotone");
    });

// An interval so wide that the last slice's window would end past 2^64:
// the window saturates, and values on both sides of its start still land
// in the right slice.
TEST(BandwidthRecorder, SliceWindowSaturatesNearTopOfRange) {
  const std::uint64_t interval = 3ull << 62;
  const std::vector<Access> stream = {
      {0, ~0ull, 8, true, false},        {0, interval, 8, true, false},
      {0, interval - 1, 8, false, true}, {0, 0, 8, true, false},
      {0, ~0ull - 1, 8, false, false},   {0, interval - 1, 8, true, false},
  };
  expect_same_as_reference(interval, 1, stream);
  BandwidthRecorder rec(1, interval);
  for (const Access& a : stream) rec.on_access(a.kernel, a.retired, a.bytes, a.is_read, a.is_stack);
  rec.finish();
  EXPECT_EQ(rec.max_slice(), 1u);
}

// The final-partial-slice fix: a run ending mid-slice must weight the tail
// by its true width, both in the averages' denominator and the tail slice's
// peak sample.
TEST(BandwidthStats, PartialFinalSliceWeightedByTrueWidth) {
  BandwidthRecorder rec(1, 1000);
  rec.on_access(0, 100, 500, true, false);    // slice 0 (full)
  rec.on_access(0, 2050, 300, true, false);   // slice 2 (the tail)
  rec.finish();
  // The run retired 2100 instructions: slice 2 spans only 100 of them.
  const BandwidthStats stats = bandwidth_stats(rec.kernel(0), 1000, 2100);
  EXPECT_EQ(stats.activity_span, 2u);
  // denom = 1000 (slice 0) + 100 (tail) instead of 2000.
  EXPECT_DOUBLE_EQ(stats.avg_read_incl, 800.0 / 1100.0);
  // Tail peak: 300 bytes over 100 instructions = 3.0 B/i, beating slice 0's
  // 0.5 — under full-width weighting it would have been a wrong 0.5 peak.
  EXPECT_DOUBLE_EQ(stats.max_rw_incl, 3.0);
}

TEST(BandwidthStats, ExactMultipleRunHasNoTailCorrection) {
  BandwidthRecorder rec(1, 1000);
  rec.on_access(0, 100, 500, true, false);
  rec.on_access(0, 1900, 300, true, false);
  rec.finish();
  // total_retired = 2000 ends exactly on the slice-2 boundary: the final
  // slice is slice 1 with full width, so the weighted stats equal the
  // unweighted ones.
  const BandwidthStats weighted = bandwidth_stats(rec.kernel(0), 1000, 2000);
  const BandwidthStats uniform = bandwidth_stats(rec.kernel(0), 1000);
  EXPECT_DOUBLE_EQ(weighted.avg_read_incl, uniform.avg_read_incl);
  EXPECT_DOUBLE_EQ(weighted.max_rw_incl, uniform.max_rw_incl);
  EXPECT_DOUBLE_EQ(weighted.avg_read_incl, 800.0 / 2000.0);
}

// A kernel whose last activity is *not* in the run's final slice keeps
// uniform weighting even when the run itself ends mid-slice.
TEST(BandwidthStats, KernelEndingBeforeTailUnaffected) {
  BandwidthRecorder rec(1, 1000);
  rec.on_access(0, 100, 500, true, false);  // slice 0 only
  rec.finish();
  const BandwidthStats weighted = bandwidth_stats(rec.kernel(0), 1000, 2100);
  const BandwidthStats uniform = bandwidth_stats(rec.kernel(0), 1000);
  EXPECT_DOUBLE_EQ(weighted.avg_read_incl, uniform.avg_read_incl);
  EXPECT_DOUBLE_EQ(weighted.max_rw_incl, uniform.max_rw_incl);
}

}  // namespace
}  // namespace tq::tquad
