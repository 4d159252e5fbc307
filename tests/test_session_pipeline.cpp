// Determinism matrix for the parallel live-analysis pipeline: a session
// running its consumers on drain threads (-pipeline parallel) must produce
// byte-identical tool state to the serial reference dispatch — for every
// tool combination, on every workload, under injected guest traps, and with
// the ring squeezed down to one single-event batch (pure backpressure).
// The pipeline is only allowed to change *when* accounting runs, never what
// it accumulates.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/metrics.hpp"
#include "support/paged_memory.hpp"
#include "support/spsc_ring.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "tquad/tquad_tool.hpp"
#include "vm/machine.hpp"
#include "workloads/registry.hpp"
#include "workloads/workloads.hpp"

#include "session_tool_compare.hpp"

namespace tq::session {
namespace {

using testutil::kAllTools;
using testutil::make_guest;
using testutil::SessionRun;
using testutil::ToolMask;

/// `shards` is PipelineOptions::workers: the QUAD page-shard count.
PipelineOptions parallel_options(unsigned shards, std::size_t batch_events = 256,
                                 std::size_t ring_batches = 2) {
  PipelineOptions options;
  options.mode = PipelineMode::kParallel;
  options.workers = shards;
  options.batch_events = batch_events;
  options.ring_batches = ring_batches;
  return options;
}

/// Serial all-tools reference for one workload, run once per test.
struct Reference {
  explicit Reference(const std::string& name) : guest(make_guest(name)) {
    run.emplace(guest.program, SessionConfig{}, kAllTools);
    outcome = run->session.run_live(guest.host);
    trace = run->recorder->take_encoded();
  }

  workloads::Instance guest;
  std::optional<SessionRun> run;
  vm::RunOutcome outcome;
  std::vector<std::uint8_t> trace;
};

// ---------------------------------------------------------------------------
// Full tool-combination matrix: 15 non-empty consumer subsets per workload,
// one test per registered memory shape.

class PipelineMatrixZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineMatrixZoo, ParallelEqualsSerial) {
  Reference ref(GetParam());
  for (unsigned bits = 1; bits < 16; ++bits) {
    const ToolMask mask{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                        (bits & 8) != 0};
    SCOPED_TRACE("tool mask bits=" + std::to_string(bits));
    workloads::Instance guest = make_guest(GetParam());
    ASSERT_EQ(ref.guest.program.serialize(), guest.program.serialize());
    SessionConfig config;
    config.pipeline = parallel_options(/*shards=*/3, /*batch_events=*/256,
                                       /*ring_batches=*/2);
    SessionRun run(guest.program, config, mask);
    const vm::RunOutcome outcome = run.session.run_live(guest.host);
    EXPECT_EQ(outcome.status, ref.outcome.status);
    EXPECT_EQ(outcome.retired, ref.outcome.retired);
    EXPECT_GT(run.session.pipeline_stats().batches_published, 0u);
    testutil::expect_tools_equal(*ref.run, ref.trace, run, mask);
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, PipelineMatrixZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Fault-tolerance parity: a guest trap mid-run must drain the rings and
// leave exactly the serial trapped run's state (the PR 3 PARTIAL contract
// survives the thread hop).

class PipelineFaultZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineFaultZoo, TrapParityUnderParallelDispatch) {
  workloads::Instance probe = make_guest(GetParam());
  vm::Machine machine(probe.program, probe.host);
  const std::uint64_t total = machine.run().retired;
  ASSERT_GT(total, 2u);
  const std::uint64_t cut = total / 2;

  SessionConfig fault_config;
  fault_config.fault_plan.trap_at_retired = cut;

  workloads::Instance serial_guest = make_guest(GetParam());
  SessionRun serial(serial_guest.program, fault_config, kAllTools);
  const vm::RunOutcome serial_outcome = serial.session.run_live(serial_guest.host);
  ASSERT_EQ(serial_outcome.status, vm::RunStatus::kTrapped);
  ASSERT_EQ(serial_outcome.retired, cut);
  const std::vector<std::uint8_t> serial_trace = serial.recorder->take_encoded();

  workloads::Instance parallel_guest = make_guest(GetParam());
  SessionConfig parallel_config = fault_config;
  parallel_config.pipeline = parallel_options(/*shards=*/2, /*batch_events=*/64,
                                              /*ring_batches=*/2);
  SessionRun parallel(parallel_guest.program, parallel_config, kAllTools);
  const vm::RunOutcome outcome = parallel.session.run_live(parallel_guest.host);
  ASSERT_EQ(outcome.status, vm::RunStatus::kTrapped);
  ASSERT_EQ(outcome.retired, cut);

  // The drain barrier ran before on_finish: every tool saw the trap outcome.
  EXPECT_EQ(parallel.tquad_tool->outcome().status, vm::RunStatus::kTrapped);
  EXPECT_EQ(parallel.quad_tool->outcome().status, vm::RunStatus::kTrapped);
  EXPECT_EQ(parallel.gprof_tool->outcome().status, vm::RunStatus::kTrapped);

  testutil::expect_tools_equal(serial, serial_trace, parallel, kAllTools);
}

INSTANTIATE_TEST_SUITE_P(Zoo, PipelineFaultZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Backpressure torture: ring capacity 1 batch of 1 event makes the VM thread
// block on nearly every publish. Throughput dies; the reports must not care.

class PipelineBackpressureZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineBackpressureZoo, CapacityOneParity) {
  Reference ref(GetParam());
  workloads::Instance guest = make_guest(GetParam());
  SessionConfig config;
  config.pipeline = parallel_options(
      /*shards=*/2, /*batch_events=*/1, /*ring_batches=*/1);
  SessionRun run(guest.program, config, kAllTools);
  const vm::RunOutcome outcome = run.session.run_live(guest.host);
  EXPECT_EQ(outcome.status, ref.outcome.status);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  testutil::expect_tools_equal(*ref.run, ref.trace, run, kAllTools);

  // Single-event batches in depth-1 rings: the publisher must have hit a
  // full ring at least once on any workload with thousands of events, and
  // no ring ever held more than its one slot.
  const PipelineStats stats = run.session.pipeline_stats();
  EXPECT_GT(stats.batches_published, 0u);
  EXPECT_GT(stats.backpressure_waits, 0u);
  EXPECT_LE(stats.ring_occupancy_high_water, 1u);
}

INSTANTIATE_TEST_SUITE_P(Zoo, PipelineBackpressureZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

// Backpressure under a trap: the abort/drain path with a full ring is the
// nastiest corner (publisher mid-push when the guest faults).
TEST(PipelineBackpressure, HistogramFaultCapacityOne) {
  workloads::Instance probe = make_guest("histogram");
  vm::Machine machine(probe.program, probe.host);
  const std::uint64_t cut = machine.run().retired / 2;
  ASSERT_GT(cut, 0u);

  SessionConfig fault_config;
  fault_config.fault_plan.trap_at_retired = cut;
  workloads::Instance serial_guest = make_guest("histogram");
  SessionRun serial(serial_guest.program, fault_config, kAllTools);
  ASSERT_EQ(serial.session.run_live(serial_guest.host).status,
            vm::RunStatus::kTrapped);
  const std::vector<std::uint8_t> serial_trace = serial.recorder->take_encoded();

  SessionConfig parallel_config = fault_config;
  parallel_config.pipeline = parallel_options(
      /*shards=*/2, /*batch_events=*/1, /*ring_batches=*/1);
  workloads::Instance parallel_guest = make_guest("histogram");
  SessionRun parallel(parallel_guest.program, parallel_config, kAllTools);
  const vm::RunOutcome outcome = parallel.session.run_live(parallel_guest.host);
  ASSERT_EQ(outcome.status, vm::RunStatus::kTrapped);
  ASSERT_EQ(outcome.retired, cut);
  testutil::expect_tools_equal(serial, serial_trace, parallel, kAllTools);
}

// ---------------------------------------------------------------------------
// QUAD shard sweep: every shard count must merge back to the serial answer
// (matmul naive has the richest producer/consumer binding structure).

TEST(PipelineShards, MatmulShardSweep) {
  Reference ref("matmul_naive");
  for (unsigned shards = 1; shards <= 4; ++shards) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    workloads::Instance guest = make_guest("matmul_naive");
    SessionConfig config;
    config.pipeline = parallel_options(shards, /*batch_events=*/128,
                                       /*ring_batches=*/2);
    SessionRun run(guest.program, config, kAllTools);
    run.session.run_live(guest.host);
    testutil::expect_tools_equal(*ref.run, ref.trace, run, kAllTools);
  }
}

// Shard-count sweep through the `parallel:N` knob, including the auto
// (0 = hardware concurrency) setting and more shards than pages touched.
TEST(PipelineShards, WorkerSweep) {
  Reference ref("histogram");
  for (unsigned shards : {0u, 1u, 2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    workloads::Instance guest = make_guest("histogram");
    SessionConfig config;
    config.pipeline = parallel_options(shards);
    SessionRun run(guest.program, config, kAllTools);
    run.session.run_live(guest.host);
    testutil::expect_tools_equal(*ref.run, ref.trace, run, kAllTools);
  }
}

// ---------------------------------------------------------------------------
// Direct unit for the sharded-consumer contract: feeding QuadTool's shard
// facet a split page-crossing access (count_access on the first piece only)
// and merging must equal the serial on_access of the unsplit access.

TEST(PipelineShards, QuadShardedFacetSplitAccess) {
  static const auto artifacts = workloads::build_stream(16, 1);
  const vm::Program& program = artifacts.program;
  constexpr std::uint64_t kPage = 1ull << PagedMemory::kPageBits;
  constexpr unsigned kShards = 3;

  quad::QuadTool serial(program);
  quad::QuadTool sharded(program);
  EXPECT_EQ(sharded.shard_count(), 1u);
  sharded.prepare_shards(kShards);
  EXPECT_EQ(sharded.shard_count(), kShards);

  const auto shard_of = [](std::uint64_t ea) {
    return static_cast<unsigned>((ea >> PagedMemory::kPageBits) % kShards);
  };
  const auto feed = [&](AccessEvent event) {
    serial.on_access(event);
    // Mirror the router: split per page, count_access on the first piece.
    std::uint64_t cursor = event.ea;
    std::uint32_t remaining = event.size;
    bool first = true;
    while (remaining > 0) {
      const std::uint64_t page_end =
          ((cursor >> PagedMemory::kPageBits) + 1) << PagedMemory::kPageBits;
      AccessEvent piece = event;
      piece.ea = cursor;
      piece.size = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(remaining, page_end - cursor));
      sharded.apply_access_shard(shard_of(cursor), piece, first);
      first = false;
      cursor += piece.size;
      remaining -= piece.size;
    }
  };

  // Writer kernel 0 produces across a page boundary; reader kernel 1
  // consumes the same bytes (also split), creating a 0→1 binding whose byte
  // and unique-address counts must survive the split + merge exactly.
  AccessEvent write;
  write.func = 0;
  write.kernel = 0;
  write.ea = 3 * kPage - 4;
  write.size = 8;  // crosses from page 2 into page 3
  write.is_read = false;
  feed(write);

  AccessEvent read = write;
  read.func = 1;
  read.kernel = 1;
  read.is_read = true;
  feed(read);

  // Same-page accesses land whole in their shard.
  AccessEvent aligned = write;
  aligned.ea = 7 * kPage + 64;
  aligned.size = 8;
  feed(aligned);
  AccessEvent aligned_read = aligned;
  aligned_read.kernel = 1;
  aligned_read.func = 1;
  aligned_read.is_read = true;
  feed(aligned_read);

  sharded.merge_shards();
  EXPECT_EQ(sharded.shard_count(), 1u);
  testutil::expect_quad_equal(serial, sharded);
  testutil::expect_quad_cost_equal(serial, sharded);
  EXPECT_EQ(serial.binding_bytes(0, 1), 16u);
  EXPECT_EQ(sharded.binding_bytes(0, 1), 16u);
}

// ---------------------------------------------------------------------------
// Routing, seen from the consumers: a scripted event source feeds the
// attribution directly, so the accesses can be placed on page boundaries
// and given widths no guest instruction has.

/// Feeds a fixed script into the attribution's vm::EventSink overrides:
/// entry into function 0, then per access one tick and the access, with a
/// call into function 1 and its return every 64 accesses (so tick runs,
/// enters and rets interleave with the accesses), then `extra_run` as one
/// last tick span, and the finish.
class ScriptedSource final : public EventSource {
 public:
  ScriptedSource(const vm::Program& program, std::vector<AccessEvent> accesses,
                 TickRunEvent extra_run = {})
      : program_(program), accesses_(std::move(accesses)), extra_run_(extra_run) {}

  const vm::Program& program() const noexcept override { return program_; }

  vm::RunOutcome run(KernelAttribution& attribution) override {
    vm::RunOutcome outcome;
    outcome.retired = play(attribution);
    attribution.input_finish(outcome);
    return outcome;
  }

  /// Drive the script into `sink`; returns the final retired count.
  std::uint64_t play(vm::EventSink& sink) const {
    std::uint64_t retired = 0;
    sink.on_enter(0, retired);
    for (std::size_t i = 0; i < accesses_.size(); ++i) {
      const AccessEvent& a = accesses_[i];
      if (i % 64 == 63) sink.on_enter(1, retired);
      sink.on_tick_span(a.func, retired, 1, 1);
      sink.on_access(a.func, a.pc, retired, a.ea, a.size, a.is_read, a.is_stack,
                     a.is_prefetch);
      ++retired;
      if (i % 64 == 63) sink.on_ret(1, 0, retired);
    }
    if (extra_run_.count > 0) {
      sink.on_tick_span(0, retired, extra_run_.count, extra_run_.mem_count);
      retired += extra_run_.count;
    }
    return retired;
  }

 private:
  const vm::Program& program_;
  std::vector<AccessEvent> accesses_;
  TickRunEvent extra_run_;
};

/// One event line, every field, as EventLog and ScriptOracle write it.
std::string event_line(const char* kind, std::initializer_list<std::uint64_t> fields) {
  std::string line = kind;
  for (const std::uint64_t f : fields) line += " " + std::to_string(f);
  return line;
}

/// Every event a consumer saw, with every field, one line each.
class EventLog final : public AnalysisConsumer {
 public:
  explicit EventLog(unsigned interests = kAllEvents) : interests_(interests) {}
  unsigned event_interests() const override { return interests_; }

  void on_kernel_enter(const EnterEvent& e) override {
    lines.push_back(
        event_line("enter", {e.func, e.caller, e.kernel, e.retired, e.tracked}));
  }
  void on_access(const AccessEvent& e) override {
    lines.push_back(event_line("access", {e.func, e.pc, e.kernel, e.retired, e.ea, e.size,
                                          e.is_read, e.is_stack, e.is_prefetch}));
  }
  void on_kernel_ret(const RetEvent& e) override {
    lines.push_back(event_line("ret", {e.func, e.pc, e.kernel, e.retired, e.tracked}));
  }
  void on_tick_run(const TickRunEvent& r) override {
    lines.push_back(event_line(
        "run", {r.func, r.kernel, r.first_retired, r.count, r.mem_count, r.tracked}));
  }
  void on_session_end(std::uint64_t total) override {
    lines.push_back(event_line("end", {total}));
  }

  std::vector<std::string> lines;

 private:
  unsigned interests_;
};

/// The lines an EventLog subscribed to `interests` must hold after a
/// ScriptedSource run, built from the script alone: its own call stack for
/// the kernel stamps, and tick spans merged while the function stays the
/// same and no enter or ret intervenes. No records, no batches.
class ScriptOracle final : public vm::EventSink {
 public:
  ScriptOracle(const vm::Program& program, const ScriptedSource& script,
               unsigned interests)
      : stack_(program, tquad::LibraryPolicy::kExclude), interests_(interests) {
    const std::uint64_t total = script.play(*this);
    flush_run();
    lines.push_back(event_line("end", {total}));
  }

  void on_enter(std::uint32_t func, std::uint64_t retired) override {
    flush_run();
    const std::uint32_t caller = stack_.top();
    stack_.on_enter(func);
    add(AnalysisConsumer::kEnterInterest,
        event_line("enter", {func, caller, stack_.top(), retired, stack_.tracked(func)}));
  }
  void on_tick_span(std::uint32_t func, std::uint64_t first, std::uint64_t count,
                    std::uint64_t mem_count) override {
    if (run_.count != 0 && run_.func == func) {
      run_.count += count;
      run_.mem_count += mem_count;
      return;
    }
    flush_run();
    run_ = {.func = func, .first_retired = first, .count = count, .mem_count = mem_count};
  }
  void on_access(std::uint32_t func, std::uint32_t pc, std::uint64_t retired,
                 std::uint64_t ea, std::uint32_t size, bool is_read, bool is_stack,
                 bool is_prefetch) override {
    add(AnalysisConsumer::kAccessInterest,
        event_line("access", {func, pc, stack_.top(), retired, ea, size, is_read,
                              is_stack, is_prefetch}));
  }
  void on_ret(std::uint32_t func, std::uint32_t pc, std::uint64_t retired) override {
    flush_run();
    add(AnalysisConsumer::kRetInterest,
        event_line("ret", {func, pc, stack_.top(), retired, stack_.tracked(func)}));
    stack_.on_ret(func);
  }

  std::vector<std::string> lines;

 private:
  void add(unsigned kind, std::string line) {
    if (interests_ & kind) lines.push_back(std::move(line));
  }
  void flush_run() {
    if (run_.count == 0) return;
    add(AnalysisConsumer::kTickInterest,
        event_line("run", {run_.func, stack_.top(), run_.first_retired, run_.count,
                           run_.mem_count, stack_.tracked(run_.func)}));
    run_.count = 0;
  }

  tquad::CallStack stack_;
  unsigned interests_;
  TickRunEvent run_;
};

/// Both modes, at batch sizes that put every event, and every wide record
/// pair, on a batch boundary somewhere.
std::vector<PipelineOptions> serial_and_parallel_options() {
  std::vector<PipelineOptions> all;
  for (const std::size_t batch_events : {1u, 2u, 4096u}) {
    PipelineOptions serial;
    serial.batch_events = batch_events;
    all.push_back(serial);
    all.push_back(parallel_options(/*shards=*/2, batch_events, /*ring_batches=*/1));
  }
  return all;
}

std::string describe(const PipelineOptions& options) {
  return std::string(options.mode == PipelineMode::kParallel ? "parallel" : "serial") +
         " batch_events=" + std::to_string(options.batch_events);
}

/// A ShardedAccessConsumer that records what each shard was handed.
class ShardRecorder final : public AnalysisConsumer, public ShardedAccessConsumer {
 public:
  struct Piece {
    AccessEvent event;
    bool count_access = false;
  };

  ShardedAccessConsumer* sharded_access() override { return this; }
  void on_access(const AccessEvent&) override { ++unsharded_accesses; }
  void on_tick_run(const TickRunEvent&) override { ++control_events; }
  void on_kernel_enter(const EnterEvent&) override { ++control_events; }
  void on_kernel_ret(const RetEvent&) override { ++control_events; }

  void prepare_shards(unsigned shards) override { pieces.resize(shards); }
  void apply_access_shard(unsigned shard, const AccessEvent& event,
                          bool count_access) override {
    pieces.at(shard).push_back({event, count_access});
  }
  void merge_shards() override { ++merges; }

  std::vector<std::vector<Piece>> pieces;  ///< per shard, in delivery order
  std::uint64_t unsharded_accesses = 0;
  std::uint64_t control_events = 0;
  unsigned merges = 0;
};

/// Accesses of 1..64 bytes ending 1..63 bytes past a page boundary, on
/// consecutive pages so every shard owns some first and some last pages.
/// `retired` indexes the script: the source stamps access i with i.
std::vector<AccessEvent> page_crossing_script() {
  std::vector<AccessEvent> script;
  for (std::uint32_t size = 1; size <= 64; ++size) {
    for (std::uint32_t past = 1; past <= 63; ++past) {
      AccessEvent a;
      a.pc = size;
      const std::uint64_t page = 16 + script.size();
      a.ea = (page << PagedMemory::kPageBits) + past - size;
      a.size = size;
      a.is_read = script.size() % 2 == 0;
      a.retired = script.size();
      script.push_back(a);
    }
  }
  return script;
}

TEST(PipelineRouting, ShardPiecesTileEveryAccess) {
  static const auto artifacts = workloads::build_stream(16, 1);
  const vm::Program& program = artifacts.program;
  ASSERT_GE(program.functions().size(), 2u);
  constexpr std::uint64_t kPageBits = PagedMemory::kPageBits;
  const std::vector<AccessEvent> script = page_crossing_script();
  const ScriptedSource source(program, script);
  const std::vector<std::string> expected_ticks =
      ScriptOracle(program, source, AnalysisConsumer::kTickInterest).lines;

  for (const unsigned shards : {2u, 3u, 4u}) {
    for (const std::size_t batch_events : {1u, 2u, 4096u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " batch_events=" + std::to_string(batch_events));
      SessionConfig config;
      config.pipeline = parallel_options(shards, batch_events, /*ring_batches=*/2);
      ProfileSession session(program, config);
      ShardRecorder recorder;
      EventLog ticks(AnalysisConsumer::kTickInterest);
      session.add_consumer(recorder);
      session.add_consumer(ticks);
      ScriptedSource run_source = source;
      session.run(run_source);

      EXPECT_EQ(recorder.merges, 1u);
      EXPECT_EQ(recorder.unsharded_accesses, 0u);
      EXPECT_GT(recorder.control_events, 0u);
      ASSERT_EQ(recorder.pieces.size(), shards);
      // A tick-only consumer sees tick runs and the end marker, nothing else.
      EXPECT_EQ(ticks.lines, expected_ticks);

      // Gather the pieces per scripted access, checking where each landed.
      std::vector<std::vector<ShardRecorder::Piece>> by_access(script.size());
      for (unsigned shard = 0; shard < shards; ++shard) {
        std::uint64_t previous = 0;
        for (const ShardRecorder::Piece& piece : recorder.pieces[shard]) {
          const std::uint64_t page = piece.event.ea >> kPageBits;
          EXPECT_EQ(page % shards, shard);
          EXPECT_EQ((piece.event.ea + piece.event.size - 1) >> kPageBits, page);
          EXPECT_GE(piece.event.retired, previous);  // stream order
          previous = piece.event.retired;
          ASSERT_LT(piece.event.retired, script.size());
          by_access[piece.event.retired].push_back(piece);
        }
      }
      for (const AccessEvent& a : script) {
        auto& pieces = by_access[a.retired];
        std::sort(pieces.begin(), pieces.end(), [](const auto& x, const auto& y) {
          return x.event.ea < y.event.ea;
        });
        std::uint64_t cursor = a.ea;
        unsigned counted = 0;
        for (const ShardRecorder::Piece& piece : pieces) {
          EXPECT_EQ(piece.event.ea, cursor);
          EXPECT_EQ(piece.event.pc, a.pc);
          EXPECT_EQ(piece.event.is_read, a.is_read);
          EXPECT_EQ(piece.count_access, piece.event.ea == a.ea);
          counted += piece.count_access ? 1 : 0;
          cursor += piece.event.size;
        }
        EXPECT_EQ(cursor, a.ea + a.size) << "access " << a.retired;
        EXPECT_EQ(counted, 1u) << "access " << a.retired;
      }
    }
  }
}

// Every line a consumer sees equals the script's own oracle, in both modes
// and at every batch size: the encoding is checked against the script, not
// against another run of the same encoder.
TEST(PipelineRouting, ScriptedStreamMatchesTheOracle) {
  static const auto artifacts = workloads::build_stream(16, 1);
  const vm::Program& program = artifacts.program;
  const ScriptedSource source(program, page_crossing_script());
  const std::vector<std::string> expected =
      ScriptOracle(program, source, AnalysisConsumer::kAllEvents).lines;
  for (const PipelineOptions& options : serial_and_parallel_options()) {
    SCOPED_TRACE(describe(options));
    SessionConfig config;
    config.pipeline = options;
    ProfileSession session(program, config);
    EventLog log;
    session.add_consumer(log);
    ScriptedSource run_source = source;
    session.run(run_source);
    EXPECT_EQ(log.lines, expected);
  }
}

// Fields too wide for the compact record's inline slots (an access size
// above 24 bits, a tick run's mem_count above 32 bits) must still arrive
// exactly, next to ordinary events, in stream order. At two events per
// batch the first wide access opens a batch and the second one's extension
// record ends one; the wide tick run opens the last batch.
TEST(PipelineRouting, WideFieldsArriveExactly) {
  static const auto artifacts = workloads::build_stream(16, 1);
  const vm::Program& program = artifacts.program;
  std::vector<AccessEvent> script;
  for (const std::uint32_t size : {8u, (1u << 24) + 5, 0xffffffffu, 0u, 4u}) {
    AccessEvent a;
    a.pc = 3;
    a.ea = 0xffffffff00001000ull + script.size() * 64;
    a.size = size;
    a.is_stack = true;
    a.is_prefetch = size == 4;
    script.push_back(a);
  }
  TickRunEvent wide_run;
  wide_run.count = std::uint64_t{1} << 40;
  wide_run.mem_count = (std::uint64_t{1} << 33) + 7;
  const ScriptedSource source(program, script, wide_run);
  const std::vector<std::string> expected =
      ScriptOracle(program, source, AnalysisConsumer::kAllEvents).lines;
  // Entry, the five accesses, then the five one-tick spans and the wide span
  // merged into one run, the last event before the end marker.
  ASSERT_EQ(expected.size(), 8u);
  EXPECT_EQ(expected[2], "access 0 3 0 1 18446744069414588480 16777221 0 1 0");
  EXPECT_EQ(expected[6], "run 0 0 0 1099511627781 8589934604 1");

  for (const PipelineOptions& options : serial_and_parallel_options()) {
    SCOPED_TRACE(describe(options));
    SessionConfig config;
    config.pipeline = options;
    ProfileSession session(program, config);
    EventLog log;
    session.add_consumer(log);
    ScriptedSource run_source = source;
    session.run(run_source);
    EXPECT_EQ(log.lines, expected);
  }
}

// Kinds no consumer subscribed to are never encoded: with no access
// subscriber, no access reaches anyone, and the attribution still counts
// every one of them.
TEST(PipelineRouting, UnsubscribedAccessesArriveNowhere) {
  static const auto artifacts = workloads::build_stream(16, 1);
  const vm::Program& program = artifacts.program;
  const std::vector<AccessEvent> script = page_crossing_script();
  const ScriptedSource source(program, script);
  constexpr unsigned kNoAccesses = AnalysisConsumer::kEnterInterest |
                                   AnalysisConsumer::kTickInterest |
                                   AnalysisConsumer::kRetInterest;
  const std::vector<std::string> expected =
      ScriptOracle(program, source, kNoAccesses).lines;
  for (const PipelineOptions& options : serial_and_parallel_options()) {
    SCOPED_TRACE(describe(options));
    SessionConfig config;
    config.pipeline = options;
    ProfileSession session(program, config);
    EventLog controls(kNoAccesses);
    EventLog ticks(AnalysisConsumer::kTickInterest);
    session.add_consumer(controls);
    session.add_consumer(ticks);
    ScriptedSource run_source = source;
    session.run(run_source);
    EXPECT_EQ(controls.lines, expected);
    for (const std::string& line : controls.lines) {
      EXPECT_FALSE(line.starts_with("access ")) << line;
    }
    EXPECT_EQ(session.attribution().event_counts().accesses, script.size());
    EXPECT_EQ(session.attribution().event_counts().ticks, script.size());
  }
}

// ---------------------------------------------------------------------------
// Replay through the parallel pipeline: a recorded trace replayed with
// parallel dispatch equals the live serial run that produced it.

// ---------------------------------------------------------------------------
// Push racing close is a defined outcome (drop + count), not an abort. This
// is the TSan regression for the teardown path: a producer hammering the
// ring while another thread closes it must terminate with every accepted
// value delivered and every rejected one counted.

TEST(PipelineShutdown, PushRacingCloseStress) {
  for (int round = 0; round < 50; ++round) {
    SpscRing<int> ring(2);
    std::atomic<std::uint64_t> accepted{0};
    std::thread producer([&] {
      for (int i = 0; i < 1000; ++i) {
        if (ring.push(i)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          return;  // closed under us: stop publishing, nothing lost silently
        }
      }
    });
    std::thread consumer([&] {
      int out = 0;
      std::uint64_t popped = 0;
      while (ring.pop(out)) ++popped;
      // Every accepted push is eventually popped; pops never exceed accepts.
      EXPECT_LE(popped, 1000u);
    });
    ring.close();  // race the close against both sides
    producer.join();
    consumer.join();
    EXPECT_EQ(ring.stats().pushes, accepted.load());
    EXPECT_LE(ring.stats().dropped_after_close, 1u);  // at most the racing push
  }
}

// A producer parked on a full ring during close must wake and report the
// drop instead of deadlocking (the latent teardown hang this PR fixes).
TEST(PipelineShutdown, CloseReleasesBlockedPublisher) {
  SpscRing<int> ring(1);
  ASSERT_TRUE(ring.push(0));
  std::thread producer([&] { EXPECT_FALSE(ring.push(1)); });
  while (ring.stats().push_waits == 0) std::this_thread::yield();
  ring.close();
  producer.join();
  EXPECT_EQ(ring.stats().dropped_after_close, 1u);
}

// ---------------------------------------------------------------------------
// Abort path: a source that throws mid-run never reaches the drain barrier.
// Destroying the pipeline must close every ring and join every drain thread,
// so the session rethrows instead of hanging and leaves no thread behind.
// Single-event batches in depth-1 rings keep every drain thread busy, and the
// publisher blocked, right up to the throw.

/// Threads of this process, from /proc/self/task; 0 where that is missing.
std::size_t live_threads() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/task", error);
  if (error) return 0;
  return static_cast<std::size_t>(
      std::distance(it, std::filesystem::directory_iterator()));
}

/// live_threads() once the threads a pipeline joined have left the process.
/// pthread_join returns when the kernel wakes the joiner, which it does
/// before it unlinks the exiting task from /proc/self/task, so a count
/// taken straight after the join can still see a finished thread. Poll
/// until the count drops to `expected`; a thread that was never joined
/// keeps it above for the whole 5 s and fails the caller's check.
std::size_t live_threads_settled(std::size_t expected) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t count = live_threads();
  while (count > expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    count = live_threads();
  }
  return count;
}

/// live_threads() once every thread the runtime starts on its own is up.
/// ThreadSanitizer starts a background thread at the process's first
/// pthread_create, so a test that starts the first thread itself would
/// count that one as leaked. Starting and joining a throwaway thread gets
/// it started; the minimum over the next 50 ms skips the throwaway's own
/// /proc/self/task entry, which can outlive its join for a few ms.
std::size_t live_threads_baseline() {
  std::thread([] {}).join();
  std::size_t count = live_threads();
  for (int i = 0; i < 50; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    count = std::min(count, live_threads());
  }
  return count;
}

TEST(PipelineShutdown, CorruptBlockMidReplayThrowsAndJoins) {
  Reference ref("matmul_tiled");  // the zoo trace with more than one block
  const trace::TraceV2View clean = trace::TraceV2View::open(ref.trace);
  ASSERT_GT(clean.block_count(), 1u);
  // Flip one payload byte of the last block: every earlier block replays
  // into the rings before the strict decode fails its CRC.
  const trace::BlockInfo target = clean.block(clean.block_count() - 1);
  std::vector<std::uint8_t> damaged = ref.trace;
  damaged.at(static_cast<std::size_t>(target.file_offset) +
             trace::kV2BlockHeaderBytes + target.payload_bytes / 2) ^= 0x40;

  const std::size_t threads_before = live_threads_baseline();
  SessionConfig config;
  config.pipeline = parallel_options(/*shards=*/3, /*batch_events=*/1,
                                     /*ring_batches=*/1);
  SessionRun run(ref.guest.program, config, kAllTools);
  EXPECT_THROW(run.session.replay(damaged), Error);
  EXPECT_EQ(live_threads_settled(threads_before), threads_before);
}

/// Throws from its accounting on the 100th access it sees.
class FailingConsumer final : public AnalysisConsumer {
 public:
  unsigned event_interests() const override { return kAccessInterest; }
  void on_access(const AccessEvent&) override {
    if (++seen_ == 100) throw Error("consumer failed");
  }

 private:
  std::uint64_t seen_ = 0;
};

// A consumer that throws on its drain thread fails the run as it does on the
// VM thread in serial mode: the error reaches the caller, where an escaped
// exception would end the process. The barrier must still close and join
// the QUAD readers beside it before rethrowing.
TEST(PipelineShutdown, ConsumerErrorReachesTheCaller) {
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    const std::size_t threads_before = live_threads_baseline();
    workloads::Instance guest = make_guest("histogram");
    SessionConfig config;
    if (parallel) {
      config.pipeline = parallel_options(/*shards=*/2, /*batch_events=*/1,
                                         /*ring_batches=*/1);
    }
    ProfileSession session(guest.program, config);
    FailingConsumer failing;
    quad::QuadTool quad_tool(guest.program);
    session.add_consumer(failing);
    session.add_consumer(quad_tool);
    EXPECT_THROW(session.run_live(guest.host), Error);
    EXPECT_EQ(live_threads_settled(threads_before), threads_before);
  }
}

// ---------------------------------------------------------------------------
// Metrics parity: attaching a registry must not change any tool state, and
// every published pipeline.* number is the PipelineStats field it names.

TEST(PipelineMetrics, RegistryAttachedKeepsParityAndMirrorsStats) {
  Reference ref("histogram");
  workloads::Instance guest = make_guest("histogram");
  metrics::Registry registry;
  SessionConfig config;
  config.metrics = &registry;
  config.pipeline = parallel_options(/*shards=*/2, /*batch_events=*/64,
                                     /*ring_batches=*/2);
  SessionRun run(guest.program, config, kAllTools);
  const vm::RunOutcome outcome = run.session.run_live(guest.host);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  testutil::expect_tools_equal(*ref.run, ref.trace, run, kAllTools);

  const metrics::Snapshot snap = registry.snapshot();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  const auto gauge = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : snap.gauges) {
      if (key == name) return value.value;
    }
    ADD_FAILURE() << "missing gauge " << name;
    return 0;
  };
  const PipelineStats& stats = run.session.pipeline_stats();
  EXPECT_GT(stats.batches_published, 0u);
  EXPECT_EQ(counter("pipeline.batches_published"), stats.batches_published);
  EXPECT_EQ(counter("pipeline.backpressure_waits"), stats.backpressure_waits);
  EXPECT_EQ(counter("pipeline.producer_stall_ns"), stats.producer_stall_ns);
  EXPECT_EQ(counter("pipeline.shard_fold_ns"), stats.shard_fold_ns);
  EXPECT_EQ(gauge("pipeline.ring.occupancy_high_water"),
            stats.ring_occupancy_high_water);
  EXPECT_EQ(gauge("pipeline.rings"), stats.rings);
  EXPECT_EQ(gauge("pipeline.access_shards"), stats.access_shards);
  EXPECT_EQ(counter("session.events.access"),
            run.session.attribution().event_counts().accesses);
  EXPECT_GT(counter("session.events.tick"), 0u);
  // Names that repeated another number or could never be non-zero stay
  // unpublished.
  for (const char* removed : {"pipeline.worker.batches", "pipeline.worker.batch_events",
                              "pipeline.workers", "pipeline.dropped_after_close"}) {
    for (const auto& [key, value] : snap.counters) EXPECT_NE(key, removed);
    for (const auto& [key, value] : snap.gauges) EXPECT_NE(key, removed);
  }
}

TEST(PipelineReplay, StreamReplayParallel) {
  Reference ref("stream");

  SessionConfig config;
  config.pipeline = parallel_options(/*shards=*/3, /*batch_events=*/32,
                                     /*ring_batches=*/2);
  SessionRun replayed(ref.guest.program, config, kAllTools);
  const vm::RunOutcome outcome = replayed.session.replay(ref.trace);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  testutil::expect_tools_equal(*ref.run, ref.trace, replayed, kAllTools);
}

}  // namespace
}  // namespace tq::session
