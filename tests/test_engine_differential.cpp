// Differential matrix for the compiled execution engine: lowering guest
// programs into threaded dispatch by straight-line runs must be
// observationally invisible. For every zoo workload, every
// non-empty tool combination, serial and parallel dispatch, and under
// injected traps, the compiled engine's tool state must equal the
// interpreter reference exactly — and a trap at N must equal the budget-N
// truncated prefix (the PARTIAL contract holds across engines). The tool
// matrix also runs wfs under the two non-default library policies, so
// every attribution path is covered. With every tool, the compiled engine
// also runs through a plain forwarding vm::EventSink — its dispatch loop's
// generic instantiation — and must equal the loop instantiated for the
// session's KernelAttribution, report for report and trace byte for byte.
//
// The engine edge contracts are pinned here for BOTH engines: run() is
// single-shot, budget == retired is a clean boundary, a fully disarmed
// FaultPlan is a no-op, guest-controlled syscall sizes (a heap bump that
// would wrap, a read or write length of a terabyte) end in an exact result
// or a guest trap, and a forged return address lands where the
// interpreter's does.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gasm/builder.hpp"
#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "trace/trace.hpp"
#include "tquad/tquad_tool.hpp"
#include "vm/compiled.hpp"
#include "vm/lower.hpp"
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
      recorder.emplace(program, config.library_policy);
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

/// Forwards every event to another sink through its virtual methods.
class ForwardingSink final : public vm::EventSink {
 public:
  explicit ForwardingSink(vm::EventSink& to) : to_(to) {}
  void on_enter(std::uint32_t func, std::uint64_t retired) override {
    to_.on_enter(func, retired);
  }
  void on_tick_span(std::uint32_t func, std::uint64_t first_retired,
                    std::uint64_t count, std::uint64_t mem_count) override {
    to_.on_tick_span(func, first_retired, count, mem_count);
  }
  void on_access(std::uint32_t func, std::uint32_t pc, std::uint64_t retired,
                 std::uint64_t ea, std::uint32_t size, bool is_read, bool is_stack,
                 bool is_prefetch) override {
    to_.on_access(func, pc, retired, ea, size, is_read, is_stack, is_prefetch);
  }
  void on_ret(std::uint32_t func, std::uint32_t pc, std::uint64_t retired) override {
    to_.on_ret(func, pc, retired);
  }

 private:
  vm::EventSink& to_;
};

/// The compiled engine run through CompiledMachine::run(EventSink&), the
/// dispatch loop's generic instantiation, with a ForwardingSink in front of
/// the attribution. LiveEngineSource runs the loop instantiated for
/// KernelAttribution itself.
class GenericCompiledSource final : public EventSource {
 public:
  GenericCompiledSource(const vm::Program& program, vm::HostEnv& host)
      : program_(program), machine_(program, host) {}

  const vm::Program& program() const noexcept override { return program_; }
  vm::RunOutcome run(KernelAttribution& attribution) override {
    ForwardingSink forward(attribution);
    const vm::RunOutcome outcome = machine_.run(forward);
    attribution.input_finish(outcome);
    return outcome;
  }

 private:
  const vm::Program& program_;
  vm::CompiledMachine machine_;
};

class EngineMatrixZoo : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(EngineMatrixZoo, CompiledEqualsInterp) {
  const MatrixCase& input = GetParam();
  SessionConfig config;
  config.library_policy = input.policy;
  InterpReference ref(input.workload, config);
  config.engine = vm::EngineKind::kCompiled;
  for (unsigned bits = 1; bits < 15; ++bits) {
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

  // Every consumer (bits=15) on the session's own path, then, as one more
  // input, through the generic EventSink instantiation: both equal the
  // reference, and each other byte for byte.
  SCOPED_TRACE("tool mask bits=15");
  workloads::Instance guest = make_guest(input.workload);
  SessionRun specialised(guest.program, config, kAllTools);
  const vm::RunOutcome outcome = specialised.session.run_live(guest.host);
  EXPECT_EQ(outcome.status, ref.outcome.status);
  EXPECT_EQ(outcome.retired, ref.outcome.retired);
  const std::vector<std::uint8_t> specialised_trace =
      specialised.recorder->take_encoded();
  EXPECT_EQ(ref.trace, specialised_trace);
  expect_matches(*ref.run, ref.trace, specialised, {true, true, true, false});

  SCOPED_TRACE("compiled engine through a forwarding vm::EventSink");
  workloads::Instance generic_guest = make_guest(input.workload);
  SessionRun generic(generic_guest.program, config, kAllTools);
  GenericCompiledSource source(generic_guest.program, generic_guest.host);
  const vm::RunOutcome generic_outcome = generic.session.run(source);
  EXPECT_EQ(generic_outcome.status, outcome.status);
  EXPECT_EQ(generic_outcome.retired, outcome.retired);
  expect_matches(specialised, specialised_trace, generic, kAllTools);
}

INSTANTIATE_TEST_SUITE_P(Zoo, EngineMatrixZoo, ::testing::ValuesIn(matrix_cases()),
                         matrix_case_name);

// ---------------------------------------------------------------------------
// Parallel dispatch on top of the compiled engine: batched event emission
// feeding the drain threads must still land on the serial interpreter's
// answer (the two performance layers compose without touching accounting).

class EngineParallelZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineParallelZoo, CompiledParallelEqualsInterpSerial) {
  InterpReference ref(GetParam());
  workloads::Instance guest = make_guest(GetParam());
  SessionConfig config = engine_config(vm::EngineKind::kCompiled);
  config.pipeline.mode = PipelineMode::kParallel;
  config.pipeline.workers = 2;  // QUAD page shards
  config.pipeline.batch_events = 64;
  config.pipeline.ring_batches = 2;
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
  EXPECT_GT(compiled.lowering_stats().routines, 0u);
}

INSTANTIATE_TEST_SUITE_P(Zoo, EngineBareZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

using gasm::R;

// ---------------------------------------------------------------------------
// Straight-line runs: the compiled engine checks the stop point once per run
// and takes the per-op checked handlers only for the run that holds it. A
// stop anywhere — a run head, inside a run, on a predicated op, on a
// trapping op — must land exactly where the interpreter's does.

/// A guest built around run boundaries: `work` is one straight-line block
/// longer than the run cap, with a predicated store in its middle; main's
/// loop closes its run with a compare and branch (sltsi, brnz); the program
/// ends in a division by zero at the end of a run.
vm::Program make_run_guest() {
  gasm::ProgramBuilder prog;
  auto& work = prog.begin_function("work");
  work.enter(32);
  work.movi(R{2}, static_cast<std::int64_t>(vm::kGlobalBase));
  for (unsigned k = 0; k < vm::kRunCap + 24; ++k) {
    switch (k % 6) {
      case 0: work.load(R{3}, R{2}, 8 * (k % 5), 8); break;
      case 1: work.addi(R{4}, R{3}, static_cast<std::int64_t>(k)); break;
      case 2: work.store(gasm::SP, 8 * (k % 4), R{4}, 8); break;
      case 3: work.xor_(R{5}, R{4}, R{1}); break;
      case 4: work.store(R{2}, 8 * (k % 5), R{5}, 4); break;
      default: work.load(R{6}, gasm::SP, 8 * (k % 4), 8); break;
    }
    if (k == vm::kRunCap / 2) {
      // Predicated on the loop counter's parity: on in some calls, off in
      // others; a predicated-off store still retires and ticks.
      work.andi(R{8}, R{1}, 1);
      work.store(R{2}, 64, R{4}, 8);
      work.predicate_last(R{8});
    }
  }
  work.leave(32);
  work.ret();

  auto& main = prog.begin_function("main");
  const auto loop = main.new_label();
  main.movi(R{1}, 0);
  main.movi(R{13}, 1);
  main.bind(loop);
  main.call("work");
  main.add(R{1}, R{1}, R{13});
  main.sltsi(R{7}, R{1}, 3);
  main.brnz(R{7}, loop);
  main.movi(R{10}, 0);
  main.movi(R{12}, 7);
  main.divs(R{11}, R{12}, R{10});
  main.halt();
  return prog.build("main");
}

/// Everything one stop point observes on one engine.
struct StopRun {
  vm::RunOutcome outcome;
  std::unique_ptr<SessionRun> run;
  std::vector<std::uint8_t> trace;
};

StopRun run_stopped(const vm::Program& program, vm::EngineKind engine,
                    std::uint64_t trap_at, std::uint64_t budget) {
  SessionConfig config = engine_config(engine);
  config.fault_plan.trap_at_retired = trap_at;
  config.instruction_budget = budget;
  StopRun stop;
  stop.run = std::make_unique<SessionRun>(program, config, kAllTools);
  vm::HostEnv host;
  stop.outcome = stop.run->session.run_live(host);
  stop.trace = stop.run->recorder->take_encoded();
  return stop;
}

/// Tool state and trace bytes of two finished runs.
void expect_same_reports(SessionRun& reference, const std::vector<std::uint8_t>& reference_trace,
                         SessionRun& candidate, const std::vector<std::uint8_t>& candidate_trace) {
  testutil::expect_tquad_equal(*reference.tquad_tool, *candidate.tquad_tool);
  testutil::expect_quad_equal(*reference.quad_tool, *candidate.quad_tool);
  testutil::expect_gprof_equal(*reference.gprof_tool, *candidate.gprof_tool);
  EXPECT_EQ(reference_trace, candidate_trace);
}

TEST(EngineRuns, EveryStopPointMatchesTheInterpreter) {
  const vm::Program program = make_run_guest();
  vm::HostEnv probe_host;
  vm::Machine probe(program, probe_host);
  const vm::RunOutcome full = probe.run();
  ASSERT_EQ(full.status, vm::RunStatus::kTrapped);
  ASSERT_EQ(full.trap_kind, "integer division by zero");
  // Three calls of a block over twice the run cap, plus main's loop.
  ASSERT_GT(full.retired, 3 * (vm::kRunCap + 24));

  // Every retired count from the first instruction to one past the trap,
  // so every run's head, body and end, and the first op of the next run,
  // is a stop point of each kind.
  for (std::uint64_t n = 1; n <= full.retired + 1; ++n) {
    for (const bool as_trap : {true, false}) {
      SCOPED_TRACE((as_trap ? "trap_at_retired=" : "instruction_budget=") +
                   std::to_string(n));
      const std::uint64_t trap_at = as_trap ? n : 0;
      const std::uint64_t budget = as_trap ? 0 : n;
      StopRun interp = run_stopped(program, vm::EngineKind::kInterp, trap_at, budget);
      StopRun compiled = run_stopped(program, vm::EngineKind::kCompiled, trap_at, budget);
      ASSERT_EQ(compiled.outcome.status, interp.outcome.status);
      ASSERT_EQ(compiled.outcome.retired, interp.outcome.retired);
      EXPECT_EQ(compiled.outcome.trap_kind, interp.outcome.trap_kind);
      EXPECT_EQ(compiled.outcome.trap_func, interp.outcome.trap_func);
      EXPECT_EQ(compiled.outcome.trap_pc, interp.outcome.trap_pc);
      expect_same_reports(*interp.run, interp.trace, *compiled.run, compiled.trace);
    }
  }
}

/// Runs the guest as LiveEngineSource does, with the interrupt flag armed,
/// and raises the flag from inside the run: at the `nth` routine entry (on a
/// run boundary: the call ends its run), or at the first access retired at or
/// after `access_at` (inside a run). The raise happens in the engine's own
/// sink call, before the event goes on to the attribution, so it does not
/// wait for the attribution's batch to reach a consumer.
class InterruptRaiser final : public EventSource, public vm::EventSink {
 public:
  InterruptRaiser(const vm::Program& program, vm::EngineKind engine,
                  volatile std::sig_atomic_t& flag, std::uint64_t nth_enter,
                  std::uint64_t access_at)
      : program_(program), engine_(engine), flag_(flag), nth_enter_(nth_enter),
        access_at_(access_at) {}

  const vm::Program& program() const noexcept override { return program_; }
  vm::RunOutcome run(KernelAttribution& attribution) override {
    vm::HostEnv host;
    std::unique_ptr<vm::GuestEngine> engine;
    if (engine_ == vm::EngineKind::kCompiled) {
      engine = std::make_unique<vm::CompiledMachine>(program_, host);
    } else {
      engine = std::make_unique<vm::Machine>(program_, host);
    }
    engine->set_interrupt_flag(&flag_);
    attribution_ = &attribution;
    const vm::RunOutcome outcome = engine->run(*this);
    attribution.input_finish(outcome);
    return outcome;
  }

  void on_enter(std::uint32_t func, std::uint64_t retired) override {
    if (++enters_ == nth_enter_) raise(retired);
    attribution_->on_enter(func, retired);
  }
  void on_tick_span(std::uint32_t func, std::uint64_t first_retired, std::uint64_t count,
                    std::uint64_t mem_count) override {
    attribution_->on_tick_span(func, first_retired, count, mem_count);
  }
  void on_access(std::uint32_t func, std::uint32_t pc, std::uint64_t retired,
                 std::uint64_t ea, std::uint32_t size, bool is_read, bool is_stack,
                 bool is_prefetch) override {
    if (retired >= access_at_) raise(retired);
    attribution_->on_access(func, pc, retired, ea, size, is_read, is_stack, is_prefetch);
  }
  void on_ret(std::uint32_t func, std::uint32_t pc, std::uint64_t retired) override {
    attribution_->on_ret(func, pc, retired);
  }

  /// The retired stamp of the instruction during which the flag went up.
  std::optional<std::uint64_t> raised_at;

 private:
  void raise(std::uint64_t retired) {
    if (raised_at) return;
    raised_at = retired;
    flag_ = 1;
  }
  const vm::Program& program_;
  vm::EngineKind engine_;
  volatile std::sig_atomic_t& flag_;
  std::uint64_t nth_enter_;
  std::uint64_t access_at_;
  std::uint64_t enters_ = 0;
  KernelAttribution* attribution_ = nullptr;
};

struct InterruptedRun {
  vm::RunOutcome outcome;
  std::unique_ptr<SessionRun> run;
  std::optional<std::uint64_t> raised_at;
  std::vector<std::uint8_t> trace;
};

InterruptedRun run_interrupted(const vm::Program& program, vm::EngineKind engine,
                               std::uint64_t nth_enter, std::uint64_t access_at,
                               bool raise_first = false) {
  volatile std::sig_atomic_t flag = raise_first ? 1 : 0;
  InterruptedRun out;
  out.run = std::make_unique<SessionRun>(program, engine_config(engine), kAllTools);
  InterruptRaiser raiser(program, engine, flag, nth_enter, access_at);
  out.outcome = out.run->session.run(raiser);
  out.raised_at = raiser.raised_at;
  out.trace = out.run->recorder->take_encoded();
  return out;
}

// A flag that is up before the guest starts, or goes up in the call that
// ends a run, stops both engines at the next instruction: for the compiled
// engine that is the head of the next run.
TEST(EngineRuns, InterruptAtARunHeadMatchesTheInterpreter) {
  const vm::Program program = make_run_guest();
  constexpr std::uint64_t kNever = ~0ull;
  {
    SCOPED_TRACE("raised before the run");
    InterruptedRun interp = run_interrupted(program, vm::EngineKind::kInterp, 0, kNever, true);
    InterruptedRun compiled = run_interrupted(program, vm::EngineKind::kCompiled, 0, kNever, true);
    EXPECT_EQ(interp.outcome.status, vm::RunStatus::kInterrupted);
    EXPECT_EQ(compiled.outcome.status, vm::RunStatus::kInterrupted);
    EXPECT_EQ(compiled.outcome.retired, 0u);
    EXPECT_EQ(interp.outcome.retired, 0u);
    expect_same_reports(*interp.run, interp.trace, *compiled.run, compiled.trace);
  }
  // Entries 2..4 are the three calls of `work` (entry 1 is main's).
  for (std::uint64_t nth = 2; nth <= 4; ++nth) {
    SCOPED_TRACE("raised at enter " + std::to_string(nth));
    InterruptedRun interp = run_interrupted(program, vm::EngineKind::kInterp, nth, kNever);
    InterruptedRun compiled = run_interrupted(program, vm::EngineKind::kCompiled, nth, kNever);
    ASSERT_TRUE(compiled.raised_at.has_value());
    EXPECT_EQ(compiled.outcome.status, vm::RunStatus::kInterrupted);
    EXPECT_EQ(compiled.outcome.retired, *compiled.raised_at + 1);
    EXPECT_EQ(interp.outcome.status, vm::RunStatus::kInterrupted);
    EXPECT_EQ(interp.outcome.retired, compiled.outcome.retired);
    expect_same_reports(*interp.run, interp.trace, *compiled.run, compiled.trace);
  }
}

// A flag that goes up inside a run is seen at the next run head: the
// compiled engine stops after at most kRunCap more instructions, and what
// it reports is exactly the budget-truncated prefix of the same length.
TEST(EngineRuns, InterruptInsideARunStopsAtTheNextRunHead) {
  const vm::Program program = make_run_guest();
  vm::HostEnv probe_host;
  vm::Machine probe(program, probe_host);
  const std::uint64_t total = probe.run().retired;
  std::uint64_t last_stop = 0;
  for (std::uint64_t at = 1; at < total; at += 7) {
    SCOPED_TRACE("raised at the first access from retired " + std::to_string(at));
    InterruptedRun compiled = run_interrupted(program, vm::EngineKind::kCompiled, 0, at);
    if (!compiled.raised_at) break;  // no access left after `at`
    const std::uint64_t stop = compiled.outcome.retired;
    ASSERT_EQ(compiled.outcome.status, vm::RunStatus::kInterrupted);
    EXPECT_GT(stop, *compiled.raised_at);
    EXPECT_LE(stop, *compiled.raised_at + vm::kRunCap);
    EXPECT_GE(stop, last_stop);
    last_stop = stop;

    StopRun truncated = run_stopped(program, vm::EngineKind::kInterp, 0, stop);
    ASSERT_EQ(truncated.outcome.status, vm::RunStatus::kTruncated);
    ASSERT_EQ(truncated.outcome.retired, stop);
    testutil::expect_tquad_equal(*truncated.run->tquad_tool, *compiled.run->tquad_tool);
    testutil::expect_quad_equal(*truncated.run->quad_tool, *compiled.run->quad_tool);
    testutil::expect_gprof_equal(*truncated.run->gprof_tool, *compiled.run->gprof_tool);
  }
  EXPECT_GT(last_stop, 0u);
}

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

// ---------------------------------------------------------------------------
// Syscall edges, pinned for both engines.

/// A bare run's outcome and the post-run state the syscall tests inspect.
struct SysRun {
  vm::RunOutcome outcome;
  std::uint64_t regs[isa::kNumIntRegs] = {};
  std::uint64_t heap_used = 0;
};

template <typename Engine>
SysRun run_bare(const vm::Program& program, vm::HostEnv& host) {
  Engine engine(program, host);
  SysRun run{engine.run()};
  std::copy(std::begin(engine.cpu().regs), std::end(engine.cpu().regs), run.regs);
  run.heap_used = engine.heap_used();
  return run;
}

/// Build a one-function program from `body` and run it on both engines,
/// each against its own copy of `host`; the two runs must agree on the
/// outcome, the registers, the heap and the output files.
template <typename Body>
SysRun run_both(const vm::HostEnv& host, Body&& body, vm::HostEnv* interp_host = nullptr) {
  gasm::ProgramBuilder prog;
  auto& f = prog.begin_function("main");
  body(f);
  f.halt();
  const vm::Program program = prog.build("main");
  vm::HostEnv interp_env = host;
  vm::HostEnv compiled_env = host;
  const SysRun interp = run_bare<vm::Machine>(program, interp_env);
  const SysRun compiled = run_bare<vm::CompiledMachine>(program, compiled_env);
  EXPECT_EQ(compiled.outcome.status, interp.outcome.status);
  EXPECT_EQ(compiled.outcome.retired, interp.outcome.retired);
  EXPECT_EQ(compiled.outcome.trap_kind, interp.outcome.trap_kind);
  EXPECT_EQ(compiled.heap_used, interp.heap_used);
  for (unsigned reg = 0; reg < isa::kNumIntRegs; ++reg) {
    EXPECT_EQ(compiled.regs[reg], interp.regs[reg]) << "r" << reg;
  }
  for (int fd = 0; interp_env.is_input(fd) || interp_env.is_output(fd); ++fd) {
    if (interp_env.is_output(fd)) {
      EXPECT_EQ(compiled_env.output(fd), interp_env.output(fd)) << "fd " << fd;
    }
  }
  if (interp_host != nullptr) *interp_host = interp_env;
  return interp;
}

// A size that wraps the heap cursor past 2^64 must trap, not hand out an
// address inside the globals on the next call.
TEST(EngineSyscall, HeapBumpThatWrapsTraps) {
  const SysRun run = run_both(vm::HostEnv{}, [](auto& f) {
    f.movi(R{1}, -16);
    f.sys(isa::Sys::kAlloc);
    f.movi(R{1}, 16);
    f.sys(isa::Sys::kAlloc);
  });
  EXPECT_EQ(run.outcome.status, vm::RunStatus::kTrapped);
  EXPECT_EQ(run.outcome.trap_kind, "guest heap exhausted");
  EXPECT_EQ(run.outcome.retired, 2u);
  EXPECT_EQ(run.heap_used, 0u);
}

// The heap may fill up to kStackLimit exactly; one byte more traps.
TEST(EngineSyscall, HeapEndsExactlyAtStackLimit) {
  constexpr std::int64_t kHeapBytes = vm::kStackLimit - vm::kHeapBase;
  const SysRun run = run_both(vm::HostEnv{}, [](auto& f) {
    f.movi(R{1}, kHeapBytes);
    f.sys(isa::Sys::kAlloc);
    f.mov(R{10}, R{1});
    f.movi(R{2}, 0x5a5a);
    f.store(R{10}, kHeapBytes - 8, R{2}, 8);  // the heap's last 8 bytes
    f.load(R{11}, R{10}, kHeapBytes - 8, 8);
    f.movi(R{1}, 0);
    f.sys(isa::Sys::kAlloc);
    f.mov(R{12}, R{1});
    f.movi(R{1}, 1);
    f.sys(isa::Sys::kAlloc);
  });
  EXPECT_EQ(run.outcome.status, vm::RunStatus::kTrapped);
  EXPECT_EQ(run.outcome.trap_kind, "guest heap exhausted");
  EXPECT_EQ(run.regs[10], vm::kHeapBase);
  EXPECT_EQ(run.regs[11], 0x5a5au);
  EXPECT_EQ(run.regs[12], vm::kStackLimit);
  EXPECT_EQ(run.heap_used, static_cast<std::uint64_t>(kHeapBytes));
}

// A read of a terabyte copies what the file has and returns its length.
TEST(EngineSyscall, HugeReadCopiesOnlyTheFileBytes) {
  vm::HostEnv host;
  const int fd = host.attach_input({1, 2, 3});
  const SysRun run = run_both(host, [fd](auto& f) {
    f.movi(R{1}, fd);
    f.movi(R{2}, vm::kGlobalBase);
    f.movi(R{3}, std::int64_t{1} << 40);
    f.sys(isa::Sys::kRead);
    f.mov(R{10}, R{1});
    f.movi(R{2}, vm::kGlobalBase);
    f.load(R{11}, R{2}, 0, 8);
  });
  EXPECT_EQ(run.outcome.status, vm::RunStatus::kHalted);
  EXPECT_EQ(run.regs[10], 3u);
  EXPECT_EQ(run.regs[11], 0x030201u);
}

// A write must lie within the guest segments (below kStackBase): one that
// ends exactly there succeeds; a terabyte, or a range wrapping past 2^64,
// traps before any byte reaches the output.
TEST(EngineSyscall, WriteRangeMustStayInTheGuestAddressSpace) {
  vm::HostEnv host;
  const int out = host.create_output();
  vm::HostEnv after;
  const SysRun ok = run_both(
      host,
      [out](auto& f) {
        f.movi(R{2}, vm::kStackBase - 8);
        f.movi(R{3}, 0x1122334455667788);
        f.store(R{2}, 0, R{3}, 8);
        f.movi(R{1}, out);
        f.movi(R{3}, 8);
        f.sys(isa::Sys::kWrite);
      },
      &after);
  EXPECT_EQ(ok.outcome.status, vm::RunStatus::kHalted);
  EXPECT_EQ(ok.regs[1], 8u);
  EXPECT_EQ(after.output(out),
            (std::vector<std::uint8_t>{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}));

  const std::pair<std::int64_t, std::int64_t> bad[] = {
      {vm::kGlobalBase, std::int64_t{1} << 40},  // a terabyte
      {-8, 16},                                  // wraps past 2^64
      {vm::kStackBase - 8, 9},                   // one byte past the stack
  };
  for (const auto& [buf, len] : bad) {
    SCOPED_TRACE("buf " + std::to_string(buf) + " len " + std::to_string(len));
    const SysRun run = run_both(
        host,
        [out, buf, len](auto& f) {
          f.movi(R{1}, out);
          f.movi(R{2}, buf);
          f.movi(R{3}, len);
          f.sys(isa::Sys::kWrite);
        },
        &after);
    EXPECT_EQ(run.outcome.status, vm::RunStatus::kTrapped);
    EXPECT_EQ(run.outcome.trap_kind, "guest write range leaves the guest address space");
    EXPECT_TRUE(after.output(out).empty());
  }
}

// ---------------------------------------------------------------------------
// Forged returns: a guest may rewrite its saved return address, so a return
// can land on any pc of the caller — not only on a call's return site (a
// run head) but inside a run, or past the end of the code. Wherever it
// lands, the compiled engine must run exactly the instructions the
// interpreter runs.

/// A guest whose callee `bump` adds `skip` to its saved return address.
struct ForgedReturnGuest {
  vm::Program program;
  std::uint32_t main = 0;          ///< function index of main
  std::uint32_t return_site = 0;   ///< main's pc after the call
  std::uint32_t main_size = 0;     ///< main's instruction count
};

ForgedReturnGuest make_forged_return_guest(std::int64_t skip) {
  gasm::ProgramBuilder prog;
  auto& bump = prog.begin_function("bump");
  bump.load(R{9}, gasm::SP, 0, 8);
  bump.addi(R{9}, R{9}, skip);
  bump.store(gasm::SP, 0, R{9}, 8);
  bump.ret();

  auto& leaf = prog.begin_function("leaf");
  leaf.load(R{7}, R{1}, 0, 8);
  leaf.ret();

  auto& main = prog.begin_function("main");
  main.movi(R{1}, static_cast<std::int64_t>(vm::kGlobalBase));
  main.call("bump");
  const auto return_site = static_cast<std::uint32_t>(main.size());
  main.addi(R{2}, R{2}, 1);  // the return site: a run head
  main.addi(R{3}, R{3}, 1);  // the second instruction of an addi pair
  main.xor_(R{4}, R{2}, R{3});
  main.store(R{1}, 0, R{4}, 8);
  main.load(R{5}, R{1}, 0, 8);
  main.add(R{6}, R{5}, R{3});
  main.call("leaf");
  main.store(R{1}, 8, R{6}, 8);
  main.halt();
  const auto main_size = static_cast<std::uint32_t>(main.size());

  ForgedReturnGuest guest{prog.build("main"), 0, return_site, main_size};
  guest.main = guest.program.entry();
  return guest;
}

// Every landing from the return site to past the end: (a) skip 1 lands on
// the second of an `addi; addi` pair, which must run alone; (b) skip 2..6
// land inside the return site's run, where the fast path hands over to
// the checked path; (c) a landing at or past the end of main traps with
// "pc past end of function" at the landing pc. Both engines must agree on
// the outcome, the registers, every tool's state and the trace bytes.
TEST(EngineForgedReturn, EveryLandingMatchesTheInterpreter) {
  const ForgedReturnGuest probe = make_forged_return_guest(0);
  const std::int64_t past_end = probe.main_size - probe.return_site;
  for (std::int64_t skip = 0; skip <= past_end + 2; ++skip) {
    SCOPED_TRACE("skip " + std::to_string(skip));
    const ForgedReturnGuest guest = make_forged_return_guest(skip);
    const auto landing = static_cast<std::uint32_t>(guest.return_site + skip);

    vm::HostEnv interp_host;
    vm::HostEnv compiled_host;
    const SysRun interp = run_bare<vm::Machine>(guest.program, interp_host);
    const SysRun compiled = run_bare<vm::CompiledMachine>(guest.program, compiled_host);
    ASSERT_EQ(compiled.outcome.status, interp.outcome.status);
    EXPECT_EQ(compiled.outcome.retired, interp.outcome.retired);
    EXPECT_EQ(compiled.outcome.trap_kind, interp.outcome.trap_kind);
    EXPECT_EQ(compiled.outcome.trap_pc, interp.outcome.trap_pc);
    for (unsigned reg = 0; reg < isa::kNumIntRegs; ++reg) {
      EXPECT_EQ(compiled.regs[reg], interp.regs[reg]) << "r" << reg;
    }

    StopRun interp_session = run_stopped(guest.program, vm::EngineKind::kInterp, 0, 0);
    StopRun compiled_session = run_stopped(guest.program, vm::EngineKind::kCompiled, 0, 0);
    ASSERT_EQ(compiled_session.outcome.status, interp_session.outcome.status);
    EXPECT_EQ(compiled_session.outcome.retired, interp_session.outcome.retired);
    EXPECT_EQ(compiled_session.outcome.trap_kind, interp_session.outcome.trap_kind);
    EXPECT_EQ(compiled_session.outcome.trap_func, interp_session.outcome.trap_func);
    EXPECT_EQ(compiled_session.outcome.trap_pc, interp_session.outcome.trap_pc);
    expect_same_reports(*interp_session.run, interp_session.trace, *compiled_session.run,
                        compiled_session.trace);

    if (skip == 1) {
      // Only the second addi ran.
      EXPECT_EQ(interp.regs[2], 0u);
      EXPECT_EQ(interp.regs[3], 1u);
    }
    if (landing < guest.main_size) {
      EXPECT_EQ(interp.outcome.status, vm::RunStatus::kHalted);
      if (skip >= 2 && skip <= 6) {
        const vm::CompiledRoutine main = vm::lower_routine(guest.program, guest.main);
        EXPECT_NE(main.ops[landing].run_off, 0u) << "landing is not inside a run";
      }
    } else {
      EXPECT_EQ(interp.outcome.status, vm::RunStatus::kTrapped);
      EXPECT_EQ(interp.outcome.trap_kind, "pc past end of function");
      EXPECT_EQ(interp.outcome.trap_pc, landing);
      EXPECT_EQ(compiled_session.outcome.trap_func, guest.main);
    }
  }
}

}  // namespace
}  // namespace tq::session
