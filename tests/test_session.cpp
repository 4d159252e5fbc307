// Unit tests for the session layer itself: event stream invariants of
// KernelAttribution, ProfileSession lifecycle guards, and the replay
// source's input validation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "session/session.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "workloads/registry.hpp"
#include "workloads/workloads.hpp"

namespace tq::session {
namespace {

/// Captures the full attributed event stream for invariant checks.
class CapturingConsumer : public AnalysisConsumer {
 public:
  std::vector<EnterEvent> enters;
  std::vector<TickRunEvent> runs;
  std::vector<AccessEvent> accesses;
  std::vector<RetEvent> rets;
  std::uint64_t total = 0;
  int end_calls = 0;

  std::uint64_t tick_count() const {
    std::uint64_t count = 0;
    for (const TickRunEvent& run : runs) count += run.count;
    return count;
  }

  void on_kernel_enter(const EnterEvent& event) override { enters.push_back(event); }
  void on_tick_run(const TickRunEvent& run) override { runs.push_back(run); }
  void on_access(const AccessEvent& event) override { accesses.push_back(event); }
  void on_kernel_ret(const RetEvent& event) override { rets.push_back(event); }
  void on_session_end(std::uint64_t total_retired) override {
    total = total_retired;
    ++end_calls;
  }
};

TEST(Session, LiveEventStreamInvariants) {
  const auto workload = workloads::build_stream(64, 1);
  ProfileSession session(workload.program);
  CapturingConsumer capture;
  session.add_consumer(capture);
  vm::HostEnv host;
  const std::uint64_t retired = session.run_live(host).retired;

  EXPECT_GT(retired, 0u);
  EXPECT_EQ(session.total_retired(), retired);
  EXPECT_EQ(capture.total, retired);
  EXPECT_EQ(capture.end_calls, 1);

  // The first enter is program entry: no caller, zero retired.
  ASSERT_FALSE(capture.enters.empty());
  EXPECT_EQ(capture.enters.front().caller, tquad::kNoKernel);
  EXPECT_EQ(capture.enters.front().retired, 0u);
  EXPECT_EQ(capture.enters.front().kernel, capture.enters.front().func);

  // Exactly one tick per retired instruction, in order: the runs tile
  // [0, retired) back to back.
  std::uint64_t next = 0;
  for (const TickRunEvent& run : capture.runs) {
    EXPECT_EQ(run.first_retired, next);
    EXPECT_GT(run.count, 0u);
    EXPECT_LE(run.mem_count, run.count);
    next += run.count;
  }
  EXPECT_EQ(next, retired);

  // Every enter/ret pairs up (the entry function's activation stays open).
  EXPECT_EQ(capture.rets.size() + 1, capture.enters.size());

  // Accesses carry the kernel on top of the stack at their tick.
  for (const AccessEvent& access : capture.accesses) {
    EXPECT_LT(access.retired, retired);
    EXPECT_GT(access.size, 0u);
  }
}

TEST(Session, RunIsSingleShot) {
  const auto workload = workloads::build_stream(16, 1);
  ProfileSession session(workload.program);
  vm::HostEnv host;
  session.run_live(host);
  vm::HostEnv host2;
  EXPECT_DEATH(session.run_live(host2), "single-shot");
}

TEST(Session, AddConsumerAfterRunAborts) {
  const auto workload = workloads::build_stream(16, 1);
  ProfileSession session(workload.program);
  vm::HostEnv host;
  session.run_live(host);
  CapturingConsumer late;
  EXPECT_DEATH(session.add_consumer(late), "must precede");
}

TEST(Session, RunRejectsForeignProgramSource) {
  const auto a = workloads::build_stream(16, 1);
  const auto b = workloads::build_chase(16, 10);
  ProfileSession session(a.program);
  vm::HostEnv host;
  LiveEngineSource source(b.program, host);
  EXPECT_DEATH(session.run(source), "different program");
}

TEST(Session, ReplayRejectsKernelCountMismatch) {
  // Record a trace of one program, replay into a session for another with a
  // different function count.
  const auto recorded = workloads::build_stream(16, 1);
  const auto other = workloads::build_matmul(4, false);
  ASSERT_NE(recorded.program.functions().size(), other.program.functions().size());

  ProfileSession record_session(recorded.program);
  trace::TraceRecorder recorder(recorded.program);
  record_session.add_consumer(recorder);
  vm::HostEnv host;
  record_session.run_live(host);
  const auto bytes = recorder.take_encoded();

  ProfileSession replay_session(other.program);
  EXPECT_THROW(replay_session.replay(bytes), Error);
}

TEST(Session, ReplayRejectsOutOfRangeFunctionIds) {
  // A structurally valid trace whose records reference function ids beyond
  // the image must be rejected, not index out of bounds.
  const auto workload = workloads::build_stream(16, 1);
  trace::Trace hostile;
  hostile.kernel_count =
      static_cast<std::uint32_t>(workload.program.functions().size());
  hostile.total_retired = 1;
  trace::Record record{};
  record.kind = trace::EventKind::kEnter;
  record.func = 0;
  record.ea = 0xfff;  // entered function id way out of range
  hostile.records.push_back(record);
  const auto bytes = trace::serialize_v2(hostile);

  ProfileSession session(workload.program);
  EXPECT_THROW(session.replay(bytes), Error);
}

TEST(Session, ReplayEmptyTraceYieldsSilentTicks) {
  // A trace with no records but nonzero total_retired replays as pure
  // silent ticks attributed to function 0.
  const auto workload = workloads::build_stream(16, 1);
  trace::Trace empty;
  empty.kernel_count =
      static_cast<std::uint32_t>(workload.program.functions().size());
  empty.total_retired = 5;
  const auto bytes = trace::serialize_v2(empty);

  ProfileSession session(workload.program);
  CapturingConsumer capture;
  session.add_consumer(capture);
  EXPECT_EQ(session.replay(bytes).retired, 5u);
  ASSERT_EQ(capture.runs.size(), 1u);
  EXPECT_EQ(capture.runs[0].func, 0u);
  EXPECT_EQ(capture.runs[0].first_retired, 0u);
  EXPECT_EQ(capture.runs[0].count, 5u);
  EXPECT_EQ(capture.runs[0].mem_count, 0u);
  EXPECT_TRUE(capture.accesses.empty());
}

TEST(Session, ReplayTicksCarryTheMemoryFlagOfAccessesOnly) {
  // Instruction 1 reads; instruction 2's only record is a bare return, so
  // its tick must not count as a memory tick. Live traces cannot show the
  // difference: there every return follows its return-address read.
  const auto workload = workloads::build_stream(16, 1);
  trace::Trace trace;
  trace.kernel_count =
      static_cast<std::uint32_t>(workload.program.functions().size());
  trace.total_retired = 3;
  trace::Record enter{};
  enter.kind = trace::EventKind::kEnter;
  trace::Record read{};
  read.retired = 1;
  read.kind = trace::EventKind::kRead;
  read.ea = 0x1000;
  read.size = 8;
  trace::Record ret{};
  ret.retired = 2;
  ret.kind = trace::EventKind::kRet;
  trace.records = {enter, read, ret};
  const auto bytes = trace::serialize_v2(trace);

  ProfileSession session(workload.program);
  CapturingConsumer capture;
  session.add_consumer(capture);
  EXPECT_EQ(session.replay(bytes).retired, 3u);
  std::uint64_t mem_ticks = 0;
  for (const TickRunEvent& run : capture.runs) mem_ticks += run.mem_count;
  EXPECT_EQ(capture.tick_count(), 3u);
  EXPECT_EQ(mem_ticks, 1u);
  ASSERT_EQ(capture.accesses.size(), 1u);
  ASSERT_EQ(capture.rets.size(), 1u);
  EXPECT_EQ(capture.rets[0].retired, 2u);
}

TEST(Session, ReplayRejectsVersion1Traces) {
  // The 32-byte header of the retired flat format: "TQTR", version 1, then
  // kernel count, record size, total retired and record count, no records.
  const auto workload = workloads::build_stream(16, 1);
  std::vector<std::uint8_t> bytes = {'T', 'Q', 'T', 'R', 1, 0, 0, 0};
  bytes.resize(32, 0);
  ProfileSession session(workload.program);
  try {
    session.replay(bytes);
    FAIL() << "a version-1 trace replayed";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("version 1"), std::string::npos)
        << err.what();
  }
}

TEST(Session, AttributionDispatchOrderFollowsAddOrder) {
  const auto workload = workloads::build_stream(16, 1);
  KernelAttribution attribution(workload.program, tquad::LibraryPolicy::kExclude);

  std::vector<int> order;
  class Tagger : public AnalysisConsumer {
   public:
    Tagger(std::vector<int>& order, int tag) : order_(order), tag_(tag) {}
    void on_tick_run(const TickRunEvent&) override { order_.push_back(tag_); }

   private:
    std::vector<int>& order_;
    int tag_;
  };
  Tagger first(order, 1);
  Tagger second(order, 2);
  attribution.add_consumer(first);
  attribution.add_consumer(second);
  EXPECT_EQ(attribution.consumer_count(), 2u);
  attribution.on_tick_span(0, 0, 1, 0);
  vm::RunOutcome outcome;
  outcome.retired = 1;
  attribution.input_finish(outcome);  // flushes the pending run
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

// The heartbeat reads the attribution's batches as they flush, so a pulse
// can come up to one batch late, but every pulse arrives, in order, before
// the done line: one per full interval of retired instructions.
TEST(Session, HeartbeatPrintsEveryPulseThenDone) {
  constexpr std::uint64_t kInterval = 997;
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel:2" : "serial");
    workloads::Instance guest = workloads::find_workload("histogram").build();
    SessionConfig config;
    config.heartbeat_interval = kInterval;
    config.pipeline.batch_events = 64;
    if (parallel) {
      config.pipeline.mode = PipelineMode::kParallel;
      config.pipeline.workers = 2;
    }
    ProfileSession session(guest.program, config);
    CapturingConsumer capture;
    session.add_consumer(capture);
    testing::internal::CaptureStderr();
    const vm::RunOutcome outcome = session.run_live(guest.host);
    const std::string err = testing::internal::GetCapturedStderr();
    ASSERT_EQ(outcome.status, vm::RunStatus::kHalted);
    ASSERT_GT(outcome.retired / kInterval, 10u);

    std::istringstream lines(err);
    std::string line;
    std::uint64_t pulses = 0;
    while (std::getline(lines, line) && line.starts_with("heartbeat: retired=")) ++pulses;
    EXPECT_EQ(pulses, outcome.retired / kInterval);
    EXPECT_TRUE(line.starts_with("heartbeat: done retired=")) << line;
    EXPECT_NE(line.find(" status=ok"), std::string::npos) << line;
    EXPECT_FALSE(std::getline(lines, line)) << line;
  }
}

}  // namespace
}  // namespace tq::session
