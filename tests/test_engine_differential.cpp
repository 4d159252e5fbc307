// Differential matrix for the compiled execution engine: lowering guest
// programs plus their subscribed instrumentation into fused-op threaded
// dispatch must be observationally invisible. For every zoo workload, every
// non-empty tool combination, serial and parallel dispatch, and under
// injected traps, the compiled engine's tool state must equal the
// interpreter reference exactly — and a trap at N must equal the budget-N
// truncated prefix (the PARTIAL contract holds across engines). The tool
// matrix also runs wfs under the two non-default library policies, so
// every attribution path is covered.
//
// The engine edge contracts are pinned here for BOTH engines: run() is
// single-shot, budget == retired is a clean boundary, and a fully disarmed
// FaultPlan is a no-op.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "trace/trace.hpp"
#include "tquad/tquad_tool.hpp"
#include "vm/compiled.hpp"
#include "vm/machine.hpp"
#include "workloads/registry.hpp"
#include "workloads/workloads.hpp"

#include "session_tool_compare.hpp"

namespace tq::session {
namespace {

constexpr std::uint64_t kSlice = 1000;
constexpr std::uint64_t kSamplePeriod = 700;

/// Which consumers ride the session (bit i of the matrix loop).
struct ToolMask {
  bool tquad = false;
  bool quad = false;
  bool gprof = false;
  bool trace = false;
};

constexpr ToolMask kAllTools{true, true, true, true};

/// One session plus the masked subset of consumers.
struct SessionRun {
  SessionRun(const vm::Program& program, const SessionConfig& config, ToolMask mask)
      : session(program, config) {
    if (mask.tquad) {
      tquad_tool.emplace(program,
                         tquad::Options{.slice_interval = kSlice,
                                        .library_policy = config.library_policy});
      session.add_consumer(*tquad_tool);
    }
    if (mask.quad) {
      quad_tool.emplace(program, quad::QuadOptions{config.library_policy});
      session.add_consumer(*quad_tool);
    }
    if (mask.gprof) {
      gprof::Options options;
      options.sample_period = kSamplePeriod;
      options.library_policy = config.library_policy;
      gprof_tool.emplace(program, options);
      session.add_consumer(*gprof_tool);
    }
    if (mask.trace) {
      recorder.emplace(program, config.library_policy, trace::TraceFormat::kV2);
      session.add_consumer(*recorder);
    }
  }

  ProfileSession session;
  std::optional<tquad::TQuadTool> tquad_tool;
  std::optional<quad::QuadTool> quad_tool;
  std::optional<gprof::GprofTool> gprof_tool;
  std::optional<trace::TraceRecorder> recorder;
};

void expect_matches(SessionRun& reference, const std::vector<std::uint8_t>& reference_trace,
                    SessionRun& candidate, ToolMask mask) {
  if (mask.tquad) {
    testutil::expect_tquad_equal(*reference.tquad_tool, *candidate.tquad_tool);
  }
  if (mask.quad) {
    testutil::expect_quad_equal(*reference.quad_tool, *candidate.quad_tool);
  }
  if (mask.gprof) {
    testutil::expect_gprof_equal(*reference.gprof_tool, *candidate.gprof_tool);
  }
  if (mask.trace) {
    EXPECT_EQ(reference_trace, candidate.recorder->take_encoded());
  }
}

workloads::Instance make_guest(const std::string& name) {
  return workloads::find_workload(name).build();
}

SessionConfig engine_config(vm::EngineKind engine) {
  SessionConfig config;
  config.engine = engine;
  return config;
}

/// Interpreter all-tools reference for one workload, run once per test.
struct InterpReference {
  explicit InterpReference(const std::string& name, SessionConfig config = {})
      : guest(make_guest(name)) {
    config.engine = vm::EngineKind::kInterp;
    run.emplace(guest.program, config, kAllTools);
    outcome = run->session.run_live(guest.host);
    trace = run->recorder->take_encoded();
  }

  workloads::Instance guest;
  std::optional<SessionRun> run;
  vm::RunOutcome outcome;
  std::vector<std::uint8_t> trace;
};

// ---------------------------------------------------------------------------
// Full matrix: 15 non-empty tool subsets per workload, compiled vs interp.
// The trace recorder makes this byte-for-byte (a TQTR image is a serialized
// transcript of every attributed event), the other comparators walk every
// externally observable counter.

/// One matrix input: a zoo workload under a library policy. Every workload
/// runs under the default kExclude; wfs, the only workload with library
/// routines (libc_*), also runs under kAttributeToCaller and kTrack.
struct MatrixCase {
  std::string workload;
  tquad::LibraryPolicy policy = tquad::LibraryPolicy::kExclude;
};

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (const std::string& name : workloads::workload_names()) {
    cases.push_back({name});
  }
  cases.push_back({"wfs", tquad::LibraryPolicy::kAttributeToCaller});
  cases.push_back({"wfs", tquad::LibraryPolicy::kTrack});
  return cases;
}

std::string matrix_case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  switch (info.param.policy) {
    case tquad::LibraryPolicy::kAttributeToCaller:
      return info.param.workload + "_caller";
    case tquad::LibraryPolicy::kTrack:
      return info.param.workload + "_track";
    case tquad::LibraryPolicy::kExclude:
      break;
  }
  return info.param.workload;
}

class EngineMatrixZoo : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(EngineMatrixZoo, CompiledEqualsInterp) {
  const MatrixCase& input = GetParam();
  SessionConfig config;
  config.library_policy = input.policy;
  InterpReference ref(input.workload, config);
  config.engine = vm::EngineKind::kCompiled;
  for (unsigned bits = 1; bits < 16; ++bits) {
    const ToolMask mask{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                        (bits & 8) != 0};
    SCOPED_TRACE("tool mask bits=" + std::to_string(bits));
    workloads::Instance guest = make_guest(input.workload);
    ASSERT_EQ(ref.guest.program.serialize(), guest.program.serialize());
    SessionRun run(guest.program, config, mask);
    const vm::RunOutcome outcome = run.session.run_live(guest.host);
    EXPECT_EQ(outcome.status, ref.outcome.status);
    EXPECT_EQ(outcome.retired, ref.outcome.retired);
    expect_matches(*ref.run, ref.trace, run, mask);
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, EngineMatrixZoo, ::testing::ValuesIn(matrix_cases()),
                         matrix_case_name);

// ---------------------------------------------------------------------------
// Parallel dispatch on top of the compiled engine: batched event emission
// feeding the drain workers must still land on the serial interpreter's
// answer (the two performance layers compose without touching accounting).

class EngineParallelZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineParallelZoo, CompiledParallelEqualsInterpSerial) {
  InterpReference ref(GetParam());
  workloads::Instance guest = make_guest(GetParam());
  SessionConfig config = engine_config(vm::EngineKind::kCompiled);
  config.pipeline.mode = PipelineMode::kParallel;
  config.pipeline.workers = 3;
  config.pipeline.batch_events = 64;
  config.pipeline.ring_batches = 2;
  config.pipeline.access_shards = 2;
  SessionRun run(guest.program, config, kAllTools);
  const vm::RunOutcome outcome = run.session.run_live(guest.host);
  EXPECT_EQ(outcome.status, ref.outcome.status);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  expect_matches(*ref.run, ref.trace, run, kAllTools);
}

INSTANTIATE_TEST_SUITE_P(Zoo, EngineParallelZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Trap parity: trap@N on the compiled engine == trap@N on the interpreter
// == the budget-N truncated prefix. Three runs, one accounting answer —
// only the status differs between the faulted and truncated pair.

class EngineFaultZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineFaultZoo, TrapAtNEqualsFirstNPrefix) {
  workloads::Instance probe = make_guest(GetParam());
  vm::Machine machine(probe.program, probe.host);
  const std::uint64_t total = machine.run().retired;
  ASSERT_GT(total, 2u);
  const std::uint64_t cut = total / 2;

  SessionConfig fault_config;
  fault_config.fault_plan.trap_at_retired = cut;
  InterpReference ref(GetParam(), fault_config);
  ASSERT_EQ(ref.outcome.status, vm::RunStatus::kTrapped);
  ASSERT_EQ(ref.outcome.retired, cut);

  // Compiled engine, same trap point.
  {
    workloads::Instance guest = make_guest(GetParam());
    SessionConfig config = engine_config(vm::EngineKind::kCompiled);
    config.fault_plan.trap_at_retired = cut;
    SessionRun run(guest.program, config, kAllTools);
    const vm::RunOutcome outcome = run.session.run_live(guest.host);
    ASSERT_EQ(outcome.status, vm::RunStatus::kTrapped);
    ASSERT_EQ(outcome.retired, cut);
    EXPECT_EQ(outcome.trap_kind, ref.outcome.trap_kind);
    expect_matches(*ref.run, ref.trace, run, kAllTools);
  }

  // Compiled engine, budget-truncated at the same instruction: identical
  // prefix accounting under the graceful status.
  {
    workloads::Instance guest = make_guest(GetParam());
    SessionConfig config = engine_config(vm::EngineKind::kCompiled);
    config.instruction_budget = cut;
    SessionRun run(guest.program, config, kAllTools);
    const vm::RunOutcome outcome = run.session.run_live(guest.host);
    ASSERT_EQ(outcome.status, vm::RunStatus::kTruncated);
    ASSERT_EQ(outcome.retired, cut);
    if (kAllTools.tquad) {
      testutil::expect_tquad_equal(*ref.run->tquad_tool, *run.tquad_tool);
    }
    testutil::expect_quad_equal(*ref.run->quad_tool, *run.quad_tool);
    testutil::expect_gprof_equal(*ref.run->gprof_tool, *run.gprof_tool);
    // The trace stamps the outcome status in its footer, so compare the
    // truncated run against a truncated interpreter run instead.
    workloads::Instance interp_guest = make_guest(GetParam());
    SessionConfig interp_config = engine_config(vm::EngineKind::kInterp);
    interp_config.instruction_budget = cut;
    SessionRun interp_run(interp_guest.program, interp_config, kAllTools);
    ASSERT_EQ(interp_run.session.run_live(interp_guest.host).status,
              vm::RunStatus::kTruncated);
    EXPECT_EQ(interp_run.recorder->take_encoded(), run.recorder->take_encoded());
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, EngineFaultZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Bare-machine differential: no tools, no session — the two engines must
// agree on the architectural outcome (retired count, final registers, heap).

class EngineBareZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineBareZoo, ArchitecturalStateMatches) {
  workloads::Instance interp_guest = make_guest(GetParam());
  vm::Machine machine(interp_guest.program, interp_guest.host);
  const vm::RunOutcome interp_outcome = machine.run();

  workloads::Instance compiled_guest = make_guest(GetParam());
  vm::CompiledMachine compiled(compiled_guest.program, compiled_guest.host);
  const vm::RunOutcome compiled_outcome = compiled.run();

  EXPECT_EQ(compiled_outcome.status, interp_outcome.status);
  EXPECT_EQ(compiled_outcome.retired, interp_outcome.retired);
  EXPECT_EQ(compiled.heap_used(), machine.heap_used());
  for (unsigned reg = 0; reg < isa::kNumIntRegs; ++reg) {
    EXPECT_EQ(compiled.cpu().regs[reg], machine.cpu().regs[reg]) << "r" << reg;
  }
  EXPECT_GT(compiled.lowered_routines(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Zoo, EngineBareZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Edge contracts, pinned for both engines.

// run() is single-shot: a second call must die on the ran_ guard, not
// silently re-execute against mutated memory.
TEST(EngineEdgeDeathTest, InterpSecondRunDiesCleanly) {
  workloads::Instance guest = make_guest("stream");
  vm::Machine machine(guest.program, guest.host);
  machine.run();
  EXPECT_DEATH(machine.run(), "single-shot");
}

TEST(EngineEdgeDeathTest, CompiledSecondRunDiesCleanly) {
  workloads::Instance guest = make_guest("stream");
  vm::CompiledMachine machine(guest.program, guest.host);
  machine.run();
  EXPECT_DEATH(machine.run(), "single-shot");
}

// budget == total retired is a boundary, not a truncation: the run halts
// normally one check before the budget would fire. budget == total - 1
// truncates exactly there. Both engines must agree on both sides.
TEST(EngineEdge, BudgetEqualsRetiredBoundary) {
  workloads::Instance probe = make_guest("chase");
  vm::Machine probe_machine(probe.program, probe.host);
  const std::uint64_t total = probe_machine.run().retired;
  ASSERT_GT(total, 1u);

  for (const vm::EngineKind kind :
       {vm::EngineKind::kInterp, vm::EngineKind::kCompiled}) {
    SCOPED_TRACE(std::string("engine=") + vm::engine_kind_name(kind));
    {
      workloads::Instance guest = make_guest("chase");
      SessionConfig config = engine_config(kind);
      config.instruction_budget = total;
      ProfileSession session(guest.program, config);
      const vm::RunOutcome outcome = session.run_live(guest.host);
      EXPECT_EQ(outcome.status, vm::RunStatus::kHalted);
      EXPECT_EQ(outcome.retired, total);
    }
    {
      workloads::Instance guest = make_guest("chase");
      SessionConfig config = engine_config(kind);
      config.instruction_budget = total - 1;
      ProfileSession session(guest.program, config);
      const vm::RunOutcome outcome = session.run_live(guest.host);
      EXPECT_EQ(outcome.status, vm::RunStatus::kTruncated);
      EXPECT_EQ(outcome.retired, total - 1);
    }
  }
}

// A FaultPlan with every trigger disarmed is indistinguishable from no plan.
TEST(EngineEdge, DisarmedFaultPlanIsNoOp) {
  workloads::Instance probe = make_guest("histogram");
  vm::Machine probe_machine(probe.program, probe.host);
  const vm::RunOutcome clean = probe_machine.run();

  for (const vm::EngineKind kind :
       {vm::EngineKind::kInterp, vm::EngineKind::kCompiled}) {
    SCOPED_TRACE(std::string("engine=") + vm::engine_kind_name(kind));
    workloads::Instance guest = make_guest("histogram");
    SessionConfig config = engine_config(kind);
    config.fault_plan = vm::FaultPlan{};  // all triggers disarmed
    ProfileSession session(guest.program, config);
    const vm::RunOutcome outcome = session.run_live(guest.host);
    EXPECT_EQ(outcome.status, vm::RunStatus::kHalted);
    EXPECT_EQ(outcome.retired, clean.retired);
  }
}

}  // namespace
}  // namespace tq::session
