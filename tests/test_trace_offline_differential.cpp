// Differential sweep: for every workload in the zoo registry (wfs included),
// the online BandwidthRecorder counters must equal trace::aggregate_blocks
// over the recorded v2 trace — the whole block range at once, every two-way
// block split merged back with KernelBandwidth::merge, and an N-way split
// (one range per block) — bit-exact, slice for slice, timeline length
// included.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "session/session.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "tquad/tquad_tool.hpp"
#include "workloads/registry.hpp"

namespace tq::trace {
namespace {

// Every workload is re-blocked into about this many blocks (at least 64
// records each): enough seams to land inside slices, few enough that the
// quadratic sweep of two-way splits stays fast under the sanitizers.
constexpr std::uint64_t kTargetBlocks = 32;

/// The per-kernel series of one aggregation, plus its timeline length.
struct Aggregate {
  std::vector<tquad::KernelBandwidth> kernels;
  std::uint64_t max_slice = 0;
};

/// Aggregate the block ranges [cuts[i], cuts[i + 1]) separately, then fold
/// them together, as the farm and the block-parallel CLI do.
Aggregate aggregate_split(const TraceV2View& view, std::uint64_t slice,
                          const std::vector<std::size_t>& cuts) {
  Aggregate out;
  out.kernels.resize(view.kernel_count());
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    tquad::BandwidthRecorder part(view.kernel_count(), slice);
    aggregate_blocks(view, cuts[i], cuts[i + 1], part);
    part.finish();
    out.max_slice = std::max(out.max_slice, part.max_slice());
    for (std::uint32_t k = 0; k < view.kernel_count(); ++k) {
      out.kernels[k].merge(part.kernel(k));
    }
  }
  return out;
}

void expect_matches_online(const tquad::TQuadTool& online,
                           const Aggregate& offline, const std::string& label) {
  ASSERT_EQ(offline.kernels.size(), online.kernel_count()) << label;
  EXPECT_EQ(offline.max_slice, online.bandwidth().max_slice()) << label;
  for (std::uint32_t k = 0; k < online.kernel_count(); ++k) {
    const auto& a = online.bandwidth().kernel(k);
    const auto& b = offline.kernels[k];
    ASSERT_EQ(a.series.size(), b.series.size())
        << label << ": kernel " << online.kernel_name(k);
    for (std::size_t i = 0; i < a.series.size(); ++i) {
      EXPECT_EQ(a.series[i].slice, b.series[i].slice) << label;
      EXPECT_EQ(a.series[i].counters.read_incl, b.series[i].counters.read_incl)
          << label;
      EXPECT_EQ(a.series[i].counters.read_excl, b.series[i].counters.read_excl)
          << label;
      EXPECT_EQ(a.series[i].counters.write_incl, b.series[i].counters.write_incl)
          << label;
      EXPECT_EQ(a.series[i].counters.write_excl, b.series[i].counters.write_excl)
          << label;
    }
    EXPECT_EQ(a.totals.read_incl, b.totals.read_incl) << label;
    EXPECT_EQ(a.totals.read_excl, b.totals.read_excl) << label;
    EXPECT_EQ(a.totals.write_incl, b.totals.write_incl) << label;
    EXPECT_EQ(a.totals.write_excl, b.totals.write_excl) << label;
    EXPECT_EQ(a.active_slices(), b.active_slices()) << label;
  }
}

/// One session runs the online tool and records the trace; then every
/// block split must reproduce the online counters exactly.
void check_program(const vm::Program& program, vm::HostEnv& host,
                   std::uint64_t slice) {
  session::ProfileSession session(program);
  tquad::TQuadTool online(program, tquad::Options{.slice_interval = slice});
  TraceRecorder recorder(program);
  session.add_consumer(online);
  session.add_consumer(recorder);
  session.run_live(host);

  // Re-block the recording at a small capacity so the splits have seams.
  const Trace trace = TraceV2View::open(recorder.take_encoded()).decode_all();
  const auto capacity = static_cast<std::uint32_t>(std::max<std::uint64_t>(
      64, (trace.records.size() + kTargetBlocks - 1) / kTargetBlocks));
  const auto bytes = serialize_v2(trace, capacity);
  const TraceV2View view = TraceV2View::open(bytes);
  const std::size_t blocks = view.block_count();

  expect_matches_online(online, aggregate_split(view, slice, {0, blocks}),
                        "whole range");
  for (std::size_t cut = 1; cut < blocks; ++cut) {
    expect_matches_online(online, aggregate_split(view, slice, {0, cut, blocks}),
                          "split at block " + std::to_string(cut));
  }
  std::vector<std::size_t> every_block(blocks + 1);
  for (std::size_t b = 0; b <= blocks; ++b) every_block[b] = b;
  expect_matches_online(online, aggregate_split(view, slice, every_block),
                        "one range per block");
}

/// (workload name, slice interval): the zoo cross slice granularities — an
/// awkward prime slice and one coarse enough that most workloads fit a
/// single slice.
class OfflineDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(OfflineDifferential, OfflineEqualsOnline) {
  const workloads::Entry& entry =
      workloads::find_workload(std::get<0>(GetParam()));
  workloads::Instance run = entry.build();
  check_program(run.program, run.host, std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, OfflineDifferential,
    ::testing::Combine(::testing::ValuesIn(workloads::workload_names()),
                       ::testing::Values(37, 5000)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_slice" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tq::trace
