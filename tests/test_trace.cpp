// Trace recording: the captured event stream, and block aggregation of the
// recorded trace against the online analysis.
#include <gtest/gtest.h>

#include "gasm/builder.hpp"
#include "session/session.hpp"
#include "support/parallel_for.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "tquad/tquad_tool.hpp"

namespace tq::trace {
namespace {

using gasm::ProgramBuilder;
using gasm::R;
using gasm::SP;

vm::Program make_mixed_program() {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 2048);
  auto& writer = prog.begin_function("writer");
  writer.movi(R{1}, static_cast<std::int64_t>(buf));
  writer.count_loop_imm(R{2}, 0, 200, [&] {
    writer.andi(R{3}, R{2}, 255);
    writer.shli(R{3}, R{3}, 3);
    writer.add(R{3}, R{3}, R{1});
    writer.store(R{3}, 0, R{2}, 8);
  });
  writer.ret();
  auto& stacker = prog.begin_function("stacker");
  stacker.enter(32);
  stacker.count_loop_imm(R{2}, 0, 50, [&] {
    stacker.store(SP, 8, R{2}, 8);
    stacker.load(R{3}, SP, 8, 8);
  });
  stacker.leave(32);
  stacker.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.count_loop_imm(R{28}, 0, 5, [&] {
    main_fn.call("writer");
    main_fn.call("stacker");
  });
  main_fn.halt();
  return prog.build("main");
}

std::vector<std::uint8_t> record_trace(const vm::Program& program) {
  vm::HostEnv host;
  session::ProfileSession session(program);
  TraceRecorder recorder(program);
  session.add_consumer(recorder);
  session.run_live(host);
  return recorder.take_encoded();
}

Trace record_decoded(const vm::Program& program) {
  return TraceV2View::open(record_trace(program)).decode_all();
}

TEST(TraceRecorder, CapturesMemoryAndControlEvents) {
  const vm::Program program = make_mixed_program();
  const Trace trace = record_decoded(program);
  EXPECT_GT(trace.total_retired, 0u);
  EXPECT_EQ(trace.kernel_count, program.functions().size());
  std::size_t reads = 0, writes = 0, enters = 0, rets = 0;
  for (const Record& record : trace.records) {
    switch (record.kind) {
      case EventKind::kRead: ++reads; break;
      case EventKind::kWrite: ++writes; break;
      case EventKind::kEnter: ++enters; break;
      case EventKind::kRet: ++rets; break;
    }
  }
  EXPECT_EQ(enters, 1u + 5u + 5u);  // main + 5x writer + 5x stacker
  EXPECT_EQ(rets, 10u);
  EXPECT_GT(reads, 250u);   // stacker loads + ret pops
  EXPECT_GT(writes, 1000u);  // writer stores + stacker stores + call pushes
  // retired values are non-decreasing.
  for (std::size_t i = 1; i < trace.records.size(); ++i) {
    EXPECT_GE(trace.records[i].retired, trace.records[i - 1].retired);
  }
}

TEST(TraceRecorder, StackClassificationMatchesOnlineTool) {
  const vm::Program program = make_mixed_program();
  const Trace trace = record_decoded(program);
  const auto stacker = *program.find("stacker");
  std::uint64_t stack_bytes = 0, global_bytes = 0;
  for (const Record& record : trace.records) {
    if (record.kernel != stacker || record.kind != EventKind::kWrite) continue;
    (record.flags & kFlagStackArea ? stack_bytes : global_bytes) += record.size;
  }
  EXPECT_EQ(stack_bytes, 5u * 50u * 8u);
  EXPECT_EQ(global_bytes, 0u);
}

/// The central equivalence property: aggregating the recorded trace's
/// blocks must equal the online BandwidthRecorder, slice for slice.
class OfflineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OfflineEquivalence, OfflineEqualsOnline) {
  const std::uint64_t slice = GetParam();
  const vm::Program program = make_mixed_program();

  // Online run.
  vm::HostEnv host1;
  session::ProfileSession session(program);
  tquad::TQuadTool online(program, tquad::Options{.slice_interval = slice});
  session.add_consumer(online);
  session.run_live(host1);

  // Offline from a recorded trace.
  const std::vector<std::uint8_t> bytes = record_trace(program);
  const TraceV2View view = TraceV2View::open(bytes);
  tquad::BandwidthRecorder offline(view.kernel_count(), slice);
  aggregate_blocks(view, 0, view.block_count(), offline);
  offline.finish();

  ASSERT_EQ(offline.kernel_count(), online.kernel_count());
  EXPECT_EQ(offline.max_slice(), online.bandwidth().max_slice());
  for (std::uint32_t k = 0; k < online.kernel_count(); ++k) {
    const auto& a = online.bandwidth().kernel(k);
    const auto& b = offline.kernel(k);
    ASSERT_EQ(a.series.size(), b.series.size()) << "kernel " << k;
    for (std::size_t i = 0; i < a.series.size(); ++i) {
      EXPECT_EQ(a.series[i].slice, b.series[i].slice);
      EXPECT_EQ(a.series[i].counters.read_incl, b.series[i].counters.read_incl);
      EXPECT_EQ(a.series[i].counters.read_excl, b.series[i].counters.read_excl);
      EXPECT_EQ(a.series[i].counters.write_incl, b.series[i].counters.write_incl);
      EXPECT_EQ(a.series[i].counters.write_excl, b.series[i].counters.write_excl);
    }
    EXPECT_EQ(a.totals.read_incl, b.totals.read_incl);
    EXPECT_EQ(a.totals.write_incl, b.totals.write_incl);
  }
}

INSTANTIATE_TEST_SUITE_P(Slices, OfflineEquivalence,
                         ::testing::Values(1, 13, 100, 1000, 1'000'000));

/// Block-parallel aggregation — each thread aggregates its own block range
/// of one shared view, the ranges fold with KernelBandwidth::merge — must
/// equal the whole range, regardless of thread count.
class ParallelEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelEquivalence, ParallelEqualsWholeRange) {
  constexpr std::uint64_t kSlice = 37;
  const auto bytes = serialize_v2(record_decoded(make_mixed_program()), 64);
  const TraceV2View view = TraceV2View::open(bytes);
  ASSERT_GT(view.block_count(), 7u);
  tquad::BandwidthRecorder whole(view.kernel_count(), kSlice);
  aggregate_blocks(view, 0, view.block_count(), whole);
  whole.finish();

  std::vector<tquad::BandwidthRecorder> shards(
      parallel_blocks(GetParam(), 0, view.block_count()),
      tquad::BandwidthRecorder(view.kernel_count(), kSlice));
  parallel_for_blocks(GetParam(), 0, view.block_count(),
                      [&](std::uint64_t lo, std::uint64_t hi, unsigned shard) {
                        aggregate_blocks(view, lo, hi, shards[shard]);
                      });
  std::vector<tquad::KernelBandwidth> merged(view.kernel_count());
  for (tquad::BandwidthRecorder& shard : shards) {
    shard.finish();
    for (std::uint32_t k = 0; k < view.kernel_count(); ++k) {
      merged[k].merge(shard.kernel(k));
    }
  }
  for (std::uint32_t k = 0; k < view.kernel_count(); ++k) {
    const auto& a = whole.kernel(k);
    const auto& b = merged[k];
    ASSERT_EQ(a.series.size(), b.series.size()) << "kernel " << k;
    for (std::size_t i = 0; i < a.series.size(); ++i) {
      EXPECT_EQ(a.series[i].slice, b.series[i].slice);
      EXPECT_EQ(a.series[i].counters.read_incl, b.series[i].counters.read_incl);
      EXPECT_EQ(a.series[i].counters.write_incl, b.series[i].counters.write_incl);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, ParallelEquivalence, ::testing::Values(1, 2, 3, 7));

}  // namespace
}  // namespace tq::trace
