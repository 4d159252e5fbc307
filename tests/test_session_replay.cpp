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

#include "session/session.hpp"
#include "wfs/runner.hpp"
#include "workloads/workloads.hpp"

#include "session_tool_compare.hpp"

namespace tq::session {
namespace {

using testutil::kAllTools;
using testutil::SessionRun;

void check_program(const vm::Program& program, vm::HostEnv& host) {
  // Live session: tools plus the recorder in one pass.
  SessionRun live(program, SessionConfig{}, kAllTools);
  const std::uint64_t live_retired = live.session.run_live(host).retired;
  const auto bytes = live.recorder->take_encoded();

  SessionRun replayed(program, SessionConfig{}, kAllTools);
  EXPECT_EQ(replayed.session.replay(bytes).retired, live_retired);
  testutil::expect_tquad_equal(*live.tquad_tool, *replayed.tquad_tool);
  testutil::expect_gprof_equal(*live.gprof_tool, *replayed.gprof_tool);
  // QUAD: everything but the cost model (the documented predicated-off
  // divergence), so no expect_quad_cost_equal here.
  testutil::expect_quad_equal(*live.quad_tool, *replayed.quad_tool);
  // Round trip: the replay-driven recording equals the live recording.
  EXPECT_EQ(replayed.recorder->take_encoded(), bytes);
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
