// Trace record/replay: equivalence with online analysis, serialisation, and
// parallel offline aggregation.
#include <gtest/gtest.h>

#include "gasm/builder.hpp"
#include "session/session.hpp"
#include "support/thread_pool.hpp"
#include "trace/trace.hpp"
#include "tquad/tquad_tool.hpp"
#include "wfs/runner.hpp"

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

Trace record_trace(const vm::Program& program) {
  vm::HostEnv host;
  session::ProfileSession session(program);
  TraceRecorder recorder(program);
  session.add_consumer(recorder);
  session.run_live(host);
  return recorder.take();
}

TEST(TraceRecorder, CapturesMemoryAndControlEvents) {
  const vm::Program program = make_mixed_program();
  const Trace trace = record_trace(program);
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
  const Trace trace = record_trace(program);
  const auto stacker = *program.find("stacker");
  std::uint64_t stack_bytes = 0, global_bytes = 0;
  for (const Record& record : trace.records) {
    if (record.kernel != stacker || record.kind != EventKind::kWrite) continue;
    (record.flags & kFlagStackArea ? stack_bytes : global_bytes) += record.size;
  }
  EXPECT_EQ(stack_bytes, 5u * 50u * 8u);
  EXPECT_EQ(global_bytes, 0u);
}

TEST(TraceSerialization, RoundTrip) {
  const Trace trace = record_trace(make_mixed_program());
  const auto bytes = trace.serialize();
  // v1 records are serialised field-by-field (kRecordDiskBytes each), so the
  // file is independent of host struct padding.
  EXPECT_EQ(bytes.size(), 32 + trace.records.size() * kRecordDiskBytes);
  const Trace back = Trace::deserialize(bytes);
  EXPECT_EQ(back.total_retired, trace.total_retired);
  EXPECT_EQ(back.kernel_count, trace.kernel_count);
  ASSERT_EQ(back.records.size(), trace.records.size());
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const Record& a = trace.records[i];
    const Record& b = back.records[i];
    EXPECT_TRUE(a.retired == b.retired && a.ea == b.ea && a.pc == b.pc &&
                a.kernel == b.kernel && a.func == b.func && a.kind == b.kind &&
                a.size == b.size && a.flags == b.flags)
        << "record " << i;
  }
}

TEST(TraceSerialization, RejectsCorruption) {
  const Trace trace = record_trace(make_mixed_program());
  auto bytes = trace.serialize();
  EXPECT_THROW(Trace::deserialize({bytes.data(), 10}), Error);
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(Trace::deserialize(bad_magic), Error);
  auto truncated = bytes;
  truncated.resize(truncated.size() - 7);
  EXPECT_THROW(Trace::deserialize(truncated), Error);
}

TEST(TraceReplay, VisitsEveryRecordInOrder) {
  const Trace trace = record_trace(make_mixed_program());
  struct CountingSink : TraceSink {
    std::size_t count = 0;
    std::uint64_t last_retired = 0;
    bool ended = false;
    void on_record(const Record& record) override {
      EXPECT_GE(record.retired, last_retired);
      last_retired = record.retired;
      ++count;
    }
    void on_end(const Trace&) override { ended = true; }
  } sink;
  replay(trace, sink);
  EXPECT_EQ(sink.count, trace.records.size());
  EXPECT_TRUE(sink.ended);
}

/// The central equivalence property: offline aggregation of a recorded trace
/// must equal the online BandwidthRecorder, slice for slice.
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
  const Trace trace = record_trace(program);
  OfflineBandwidth offline(trace.kernel_count, slice);
  offline.aggregate(trace);

  ASSERT_EQ(offline.kernel_count(), online.kernel_count());
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

/// Parallel offline aggregation must equal sequential, regardless of pool
/// size (shard seams merge by addition).
class ParallelEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelEquivalence, ParallelEqualsSequential) {
  const Trace trace = record_trace(make_mixed_program());
  OfflineBandwidth sequential(trace.kernel_count, 37);
  sequential.aggregate(trace);
  OfflineBandwidth parallel(trace.kernel_count, 37);
  ThreadPool pool(GetParam());
  parallel.aggregate_parallel(trace, pool);
  ASSERT_EQ(parallel.max_slice(), sequential.max_slice());
  for (std::uint32_t k = 0; k < trace.kernel_count; ++k) {
    const auto& a = sequential.kernel(k);
    const auto& b = parallel.kernel(k);
    ASSERT_EQ(a.series.size(), b.series.size()) << "kernel " << k;
    for (std::size_t i = 0; i < a.series.size(); ++i) {
      EXPECT_EQ(a.series[i].slice, b.series[i].slice);
      EXPECT_EQ(a.series[i].counters.read_incl, b.series[i].counters.read_incl);
      EXPECT_EQ(a.series[i].counters.write_incl, b.series[i].counters.write_incl);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, ParallelEquivalence, ::testing::Values(1, 2, 3, 7));

TEST(OfflineBandwidth, WfsTraceMatchesOnline) {
  // Integration: the full (tiny) wfs run, online vs offline — one session
  // feeds the online tool and records the trace.
  wfs::WfsRun run = wfs::prepare_wfs_run(wfs::WfsConfig::tiny());
  session::ProfileSession session(run.artifacts.program);
  tquad::TQuadTool online(run.artifacts.program, tquad::Options{.slice_interval = 500});
  TraceRecorder recorder(run.artifacts.program);
  session.add_consumer(online);
  session.add_consumer(recorder);
  session.run_live(run.host);
  const Trace trace = recorder.take();

  OfflineBandwidth offline(trace.kernel_count, 500);
  ThreadPool pool(3);
  offline.aggregate_parallel(trace, pool);
  for (std::uint32_t k = 0; k < online.kernel_count(); ++k) {
    EXPECT_EQ(online.bandwidth().kernel(k).totals.read_incl,
              offline.kernel(k).totals.read_incl)
        << online.kernel_name(k);
    EXPECT_EQ(online.bandwidth().kernel(k).totals.write_excl,
              offline.kernel(k).totals.write_excl)
        << online.kernel_name(k);
    EXPECT_EQ(online.bandwidth().kernel(k).active_slices(),
              offline.kernel(k).active_slices())
        << online.kernel_name(k);
  }
}

}  // namespace
}  // namespace tq::trace
