// Replay-vs-live differential for the session layer: a ProfileSession fed
// from a recorded TQTR v2 trace must reproduce the live tool state.
//
// tQUAD and gprofsim replay exactly. QUAD replays exactly for every counter
// except the private per-kernel memory-reference count used by the Table III
// cost model: predicated-off memory instructions leave no trace records, so
// replay cannot count them as memory ticks (see docs/FORMATS.md).
// The trace recorder itself round-trips: replaying a trace through a fresh
// recorder regenerates the input byte-for-byte.
#include <gtest/gtest.h>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "trace/trace.hpp"
#include "tquad/tquad_tool.hpp"
#include "wfs/runner.hpp"
#include "workloads/workloads.hpp"

namespace tq::session {
namespace {

constexpr std::uint64_t kSlice = 1000;
constexpr std::uint64_t kSamplePeriod = 700;

struct ToolBundle {
  tquad::TQuadTool tquad;
  gprof::GprofTool gprof;
  quad::QuadTool quad;

  explicit ToolBundle(const vm::Program& program)
      : tquad(program, tquad::Options{.slice_interval = kSlice}),
        gprof(program,
              [] {
                gprof::Options o;
                o.sample_period = kSamplePeriod;
                return o;
              }()),
        quad(program, quad::QuadOptions{}) {}

  void attach(ProfileSession& session) {
    session.add_consumer(tquad);
    session.add_consumer(gprof);
    session.add_consumer(quad);
  }
};

void expect_replay_matches_live(const ToolBundle& live, const ToolBundle& replay) {
  // tQUAD: complete per-slice equality.
  ASSERT_EQ(live.tquad.kernel_count(), replay.tquad.kernel_count());
  EXPECT_EQ(live.tquad.total_retired(), replay.tquad.total_retired());
  EXPECT_EQ(live.tquad.unattributed_instructions(),
            replay.tquad.unattributed_instructions());
  for (std::uint32_t k = 0; k < live.tquad.kernel_count(); ++k) {
    SCOPED_TRACE("kernel " + live.tquad.kernel_name(k));
    EXPECT_EQ(live.tquad.activity(k).calls, replay.tquad.activity(k).calls);
    EXPECT_EQ(live.tquad.activity(k).instructions,
              replay.tquad.activity(k).instructions);
    const auto& ka = live.tquad.bandwidth().kernel(k);
    const auto& kb = replay.tquad.bandwidth().kernel(k);
    ASSERT_EQ(ka.series.size(), kb.series.size());
    for (std::size_t i = 0; i < ka.series.size(); ++i) {
      EXPECT_EQ(ka.series[i].slice, kb.series[i].slice);
      EXPECT_EQ(ka.series[i].counters.read_incl, kb.series[i].counters.read_incl);
      EXPECT_EQ(ka.series[i].counters.read_excl, kb.series[i].counters.read_excl);
      EXPECT_EQ(ka.series[i].counters.write_incl, kb.series[i].counters.write_incl);
      EXPECT_EQ(ka.series[i].counters.write_excl, kb.series[i].counters.write_excl);
    }
  }

  // gprofsim: exact counts, samples, call graph, inclusive windows.
  EXPECT_EQ(live.gprof.total_samples(), replay.gprof.total_samples());
  EXPECT_EQ(live.gprof.total_retired(), replay.gprof.total_retired());
  for (std::uint32_t k = 0; k < live.gprof.kernel_count(); ++k) {
    SCOPED_TRACE("kernel " + live.gprof.kernel_name(k));
    EXPECT_EQ(live.gprof.exact_self_instructions(k),
              replay.gprof.exact_self_instructions(k));
    EXPECT_EQ(live.gprof.samples(k), replay.gprof.samples(k));
    EXPECT_EQ(live.gprof.calls(k), replay.gprof.calls(k));
    EXPECT_EQ(live.gprof.inclusive_instructions(k),
              replay.gprof.inclusive_instructions(k));
  }
  const auto ea = live.gprof.call_graph();
  const auto eb = replay.gprof.call_graph();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].caller, eb[i].caller);
    EXPECT_EQ(ea[i].callee, eb[i].callee);
    EXPECT_EQ(ea[i].calls, eb[i].calls);
  }

  // QUAD: everything except the cost model's memory-reference counter (the
  // documented predicated-off divergence).
  for (std::uint32_t k = 0; k < live.quad.kernel_count(); ++k) {
    SCOPED_TRACE("kernel " + live.quad.kernel_name(k));
    EXPECT_EQ(live.quad.instructions(k), replay.quad.instructions(k));
    EXPECT_EQ(live.quad.calls(k), replay.quad.calls(k));
    for (const bool incl : {false, true}) {
      const auto& ca =
          incl ? live.quad.including_stack(k) : live.quad.excluding_stack(k);
      const auto& cb =
          incl ? replay.quad.including_stack(k) : replay.quad.excluding_stack(k);
      EXPECT_EQ(ca.in_bytes, cb.in_bytes);
      EXPECT_EQ(ca.out_bytes, cb.out_bytes);
      EXPECT_EQ(ca.in_unma.count(), cb.in_unma.count());
      EXPECT_EQ(ca.out_unma.count(), cb.out_unma.count());
    }
  }
  const auto ba = live.quad.bindings();
  const auto bb = replay.quad.bindings();
  ASSERT_EQ(ba.size(), bb.size());
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].producer, bb[i].producer);
    EXPECT_EQ(ba[i].consumer, bb[i].consumer);
    EXPECT_EQ(ba[i].bytes, bb[i].bytes);
    EXPECT_EQ(ba[i].unma, bb[i].unma);
  }
}

void check_program(const vm::Program& program, vm::HostEnv& host) {
  // Live session: tools plus the recorder in one pass.
  ProfileSession live_session(program);
  ToolBundle live(program);
  trace::TraceRecorder recorder(program);
  live.attach(live_session);
  live_session.add_consumer(recorder);
  const std::uint64_t live_retired = live_session.run_live(host).retired;
  const auto bytes = recorder.take_encoded();

  ProfileSession replay_session(program);
  ToolBundle replayed(program);
  trace::TraceRecorder re_recorder(program);
  replayed.attach(replay_session);
  replay_session.add_consumer(re_recorder);
  EXPECT_EQ(replay_session.replay(bytes).retired, live_retired);
  expect_replay_matches_live(live, replayed);
  // Round trip: the replay-driven recording equals the live recording.
  EXPECT_EQ(re_recorder.take_encoded(), bytes);
}

void check_workload(const vm::Program& program) {
  vm::HostEnv host;
  check_program(program, host);
}

TEST(SessionReplay, Stream) {
  check_workload(workloads::build_stream(128, 1).program);
}

TEST(SessionReplay, MatmulNaive) {
  check_workload(workloads::build_matmul(10, false).program);
}

TEST(SessionReplay, MatmulTiled) {
  check_workload(workloads::build_matmul(12, true, 4).program);
}

TEST(SessionReplay, Chase) {
  check_workload(workloads::build_chase(64, 400).program);
}

TEST(SessionReplay, Histogram) {
  check_workload(workloads::build_histogram(32, 800).program);
}

// wfs contains the repo's one predicated memory instruction, so it proves
// the replay path handles record-less ticks, and its libc routines exercise
// untracked-function replay.
TEST(SessionReplay, WfsPipeline) {
  wfs::WfsRun run = wfs::prepare_wfs_run(wfs::WfsConfig::tiny());
  check_program(run.artifacts.program, run.host);
}

}  // namespace
}  // namespace tq::session
