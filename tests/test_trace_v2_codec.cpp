// TQTR v2 codec: property-based round-trips over adversarial record
// streams, streaming-writer/batch-encoder equivalence, block/index
// structure invariants, and index-driven range replay.
#include <gtest/gtest.h>

#include <cstring>

#include "gasm/builder.hpp"
#include "session/session.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"

namespace tq::trace {
namespace {

using gasm::ProgramBuilder;
using gasm::R;

constexpr std::uint32_t kKernels = 17;

/// Run `program` once with `recorder` as the only session consumer.
void record(const vm::Program& program, TraceRecorder& recorder) {
  vm::HostEnv host;
  session::ProfileSession session(program);
  session.add_consumer(recorder);
  session.run_live(host);
}

/// Adversarial but *valid* stream: zero and max-u64 retired/ea jumps,
/// unattributed 0xffff kernels, prefetch flags, odd access sizes that force
/// the literal-size escape, enter/ret records with nonzero sizes.
Trace random_trace(SplitMix64& rng, std::size_t count) {
  Trace trace;
  trace.kernel_count = kKernels;
  trace.records.reserve(count);
  std::uint64_t retired = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Record record{};
    switch (rng.next_below(5)) {
      case 0: break;                             // zero delta
      case 1: retired += 1 + rng.next_below(64); break;
      case 2: retired += rng.next_below(1u << 20); break;
      case 3: retired += rng.next(); break;      // wild jump (wraps)
      case 4: retired = ~0ull - rng.next_below(16); break;  // near max-u64
    }
    record.retired = retired;
    record.ea = rng.next_below(3) == 0 ? 0 : rng.next();
    record.pc = static_cast<std::uint32_t>(rng.next());
    record.kernel = rng.next_below(4) == 0
                        ? kNoKernel16
                        : static_cast<std::uint16_t>(rng.next_below(kKernels));
    record.func = static_cast<std::uint16_t>(rng.next());
    record.kind = static_cast<EventKind>(rng.next_below(4));
    if (record.kind == EventKind::kRead || record.kind == EventKind::kWrite) {
      const std::uint8_t sizes[] = {0, 1, 2, 3, 4, 7, 8, 16, 32, 64, 100, 255};
      record.size = sizes[rng.next_below(sizeof sizes)];
      record.flags = static_cast<std::uint8_t>(rng.next_below(4));
    } else if (rng.next_below(8) == 0) {
      record.size = static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    trace.records.push_back(record);
  }
  trace.total_retired = retired;
  return trace;
}

/// Field-wise equality (memcmp would also compare indeterminate struct
/// padding, which the formats deliberately do not carry).
bool record_eq(const Record& a, const Record& b) {
  return a.retired == b.retired && a.ea == b.ea && a.pc == b.pc &&
         a.kernel == b.kernel && a.func == b.func && a.kind == b.kind &&
         a.size == b.size && a.flags == b.flags && a.reserved == b.reserved;
}

void expect_records_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(a.total_retired, b.total_retired);
  EXPECT_EQ(a.kernel_count, b.kernel_count);
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_TRUE(record_eq(a.records[i], b.records[i])) << "record " << i;
  }
}

class V2RoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(V2RoundTrip, AdversarialStreamsSurviveEncodeDecode) {
  SplitMix64 rng(GetParam());
  const std::uint32_t capacities[] = {1, 3, 64, 4096};
  for (int round = 0; round < 20; ++round) {
    const Trace trace = random_trace(rng, rng.next_below(600));
    for (const std::uint32_t capacity : capacities) {
      const auto bytes = serialize_v2(trace, capacity);
      // Auto-detected by the shared entry point...
      expect_records_equal(trace, Trace::deserialize(bytes));
      // ...and block by block through the view.
      const TraceV2View view = TraceV2View::open(bytes);
      EXPECT_EQ(view.record_count(), trace.records.size());
      expect_records_equal(trace, view.decode_all());
    }
  }
}

TEST_P(V2RoundTrip, BlockHeadersDescribeTheirRecords) {
  SplitMix64 rng(GetParam() ^ 0xb10cull);
  const Trace trace = random_trace(rng, 1000);
  const auto bytes = serialize_v2(trace, 64);
  const TraceV2View view = TraceV2View::open(bytes);
  ASSERT_EQ(view.block_count(), (trace.records.size() + 63) / 64);
  std::size_t base = 0;
  for (std::size_t b = 0; b < view.block_count(); ++b) {
    const BlockInfo& info = view.block(b);
    ASSERT_LE(base + info.record_count, trace.records.size());
    EXPECT_EQ(info.first_retired, trace.records[base].retired);
    EXPECT_EQ(info.last_retired,
              trace.records[base + info.record_count - 1].retired);
    for (std::uint32_t i = 0; i < info.record_count; ++i) {
      const std::uint16_t kernel = trace.records[base + i].kernel;
      EXPECT_NE(info.kernel_bloom & (1ull << (kernel & 63)), 0u);
    }
    base += info.record_count;
  }
  EXPECT_EQ(base, trace.records.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, V2RoundTrip, ::testing::Values(11, 22, 33, 44));

TEST(V2RoundTrip, EmptyTrace) {
  Trace trace;
  trace.kernel_count = 3;
  trace.total_retired = 99;
  const auto bytes = serialize_v2(trace);
  const TraceV2View view = TraceV2View::open(bytes);
  EXPECT_EQ(view.block_count(), 0u);
  EXPECT_EQ(view.record_count(), 0u);
  EXPECT_EQ(view.total_retired(), 99u);
  expect_records_equal(trace, Trace::deserialize(bytes));
}

TEST(V2RoundTrip, UndefinedFlagBitsAreRejectedAtEncode) {
  Trace trace;
  trace.kernel_count = 1;
  Record record{};
  record.kind = EventKind::kRead;
  record.size = 8;
  record.flags = 0xf0;  // outside the defined kFlag* set
  trace.records.push_back(record);
  EXPECT_THROW(serialize_v2(trace), Error);
}

TEST(V2Writer, StreamingRecorderMatchesBatchEncoder) {
  // The streaming block writer inside TraceRecorder must produce the exact
  // bytes serialize_v2() produces for the buffered record array.
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 1024);
  auto& kernel = prog.begin_function("kernel");
  kernel.movi(R{1}, static_cast<std::int64_t>(buf));
  kernel.count_loop_imm(R{2}, 0, 100, [&] {
    kernel.andi(R{3}, R{2}, 127);
    kernel.shli(R{3}, R{3}, 3);
    kernel.add(R{3}, R{3}, R{1});
    kernel.store(R{3}, 0, R{2}, 8);
    kernel.load(R{4}, R{3}, 0, 8);
  });
  kernel.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.count_loop_imm(R{28}, 0, 3, [&] { main_fn.call("kernel"); });
  main_fn.halt();
  const vm::Program program = prog.build("main");

  auto run = [&](TraceFormat format) {
    TraceRecorder recorder(program, tquad::LibraryPolicy::kExclude, format);
    record(program, recorder);
    return recorder.take_encoded();
  };
  const auto streamed = run(TraceFormat::kV2);
  const Trace buffered = [&] {
    TraceRecorder recorder(program);
    record(program, recorder);
    return recorder.take();
  }();
  EXPECT_GT(buffered.records.size(), 500u);
  EXPECT_EQ(streamed, serialize_v2(buffered));
  expect_records_equal(buffered, Trace::deserialize(streamed));
  // v1 take_encoded() keeps producing the flat format.
  const auto flat = run(TraceFormat::kV1);
  expect_records_equal(buffered, Trace::deserialize(flat));
}

TEST(V2Replay, RangeReplaySkipsThePrefix) {
  // Monotonic trace with known retired counts: replay_range must deliver
  // exactly the records in [lo, hi) and agree with a brute-force filter.
  Trace trace;
  trace.kernel_count = 4;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    Record record{};
    record.retired = i * 3;  // strictly increasing
    record.ea = 0x1000 + 8 * i;
    record.pc = static_cast<std::uint32_t>(i % 97);
    record.kernel = static_cast<std::uint16_t>(i % 4);
    record.func = record.kernel;
    record.kind = (i % 2) ? EventKind::kWrite : EventKind::kRead;
    record.size = 8;
    trace.records.push_back(record);
    trace.total_retired = record.retired;
  }
  const auto bytes = serialize_v2(trace, 128);
  const TraceV2View view = TraceV2View::open(bytes);

  struct CollectingSink : TraceSink {
    std::vector<Record> seen;
    void on_record(const Record& record) override { seen.push_back(record); }
  };

  SplitMix64 rng(7);
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t lo = rng.next_below(trace.total_retired + 100);
    const std::uint64_t hi = lo + rng.next_below(trace.total_retired / 2);
    CollectingSink sink;
    const std::uint64_t delivered = replay_range(view, lo, hi, sink);
    std::vector<Record> expected;
    for (const Record& record : trace.records) {
      if (record.retired >= lo && record.retired < hi) expected.push_back(record);
    }
    ASSERT_EQ(delivered, expected.size()) << "[" << lo << ", " << hi << ")";
    ASSERT_EQ(sink.seen.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(record_eq(sink.seen[i], expected[i])) << "record " << i;
    }
  }

  // Seeking past the end touches nothing.
  CollectingSink sink;
  EXPECT_EQ(replay_range(view, trace.total_retired + 1, ~0ull, sink), 0u);
  EXPECT_EQ(view.first_block_at(trace.total_retired + 1), view.block_count());
  EXPECT_EQ(view.first_block_at(0), 0u);
}

TEST(V2Size, CompressesTheMixedProgramTrace) {
  // Not the headline stream-workload ratio (bench_trace_codec asserts that);
  // just a sanity floor for a generic trace.
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 4096);
  auto& main_fn = prog.begin_function("main");
  main_fn.movi(R{1}, static_cast<std::int64_t>(buf));
  main_fn.count_loop_imm(R{2}, 0, 400, [&] {
    main_fn.andi(R{3}, R{2}, 255);
    main_fn.shli(R{3}, R{3}, 3);
    main_fn.add(R{3}, R{3}, R{1});
    main_fn.store(R{3}, 0, R{2}, 8);
  });
  main_fn.halt();
  const vm::Program program = prog.build("main");
  TraceRecorder recorder(program);
  record(program, recorder);
  const Trace trace = recorder.take();
  const auto v1 = trace.serialize();
  const auto v2 = serialize_v2(trace);
  EXPECT_GT(v1.size(), 3 * v2.size())
      << "v1 " << v1.size() << " bytes vs v2 " << v2.size();
}

}  // namespace
}  // namespace tq::trace
