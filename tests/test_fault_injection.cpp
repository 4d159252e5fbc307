// Deterministic fault injection: the FaultPlan hooks on the VM and the
// partial-profile guarantee built on them. The load-bearing property is
// prefix equality — a session cut short by an injected guest trap at retired
// N must produce byte-for-byte the same tool state as a session gracefully
// truncated by an instruction budget of N, on every workload and for every
// tool. That is what makes a PARTIAL report trustworthy: it is exactly the
// clean run's prefix, not an approximation of it.
#include <gtest/gtest.h>

#include <string>

#include "gasm/builder.hpp"
#include "session/session.hpp"
#include "trace/trace_v2.hpp"
#include "workloads/registry.hpp"
#include "workloads/workloads.hpp"

#include "session_tool_compare.hpp"

namespace tq::session {
namespace {

using testutil::kAllTools;
using testutil::SessionRun;
using testutil::ToolMask;

/// Fault at retired N must equal budget-truncation at N, tool for tool, and
/// the traces both runs recorded must be identical and replayable.
void check_fault_equals_prefix(const vm::Program& program, vm::HostEnv&& fault_host,
                               vm::HostEnv&& budget_host, std::uint64_t clean_total) {
  ASSERT_GT(clean_total, 2u);
  const std::uint64_t cut = clean_total / 2;

  SessionConfig fault_config;
  fault_config.fault_plan.trap_at_retired = cut;
  SessionRun faulted(program, fault_config, kAllTools);
  const vm::RunOutcome fault_outcome = faulted.session.run_live(fault_host);
  ASSERT_EQ(fault_outcome.status, vm::RunStatus::kTrapped);
  EXPECT_NE(fault_outcome.trap_kind.find("fault injection"), std::string::npos);
  ASSERT_EQ(fault_outcome.retired, cut);

  SessionConfig budget_config;
  budget_config.instruction_budget = cut;
  SessionRun truncated(program, budget_config, kAllTools);
  const vm::RunOutcome budget_outcome = truncated.session.run_live(budget_host);
  ASSERT_EQ(budget_outcome.status, vm::RunStatus::kTruncated);
  ASSERT_EQ(budget_outcome.retired, cut);

  // Tool for tool, and the two traces byte for byte.
  const std::vector<std::uint8_t> fault_trace = faulted.recorder->take_encoded();
  testutil::expect_tools_equal(faulted, fault_trace, truncated, kAllTools);

  // Consumers saw the structured outcome, not just the event stream.
  EXPECT_EQ(faulted.tquad_tool->outcome().status, vm::RunStatus::kTrapped);
  EXPECT_EQ(faulted.quad_tool->outcome().status, vm::RunStatus::kTrapped);
  EXPECT_EQ(faulted.gprof_tool->outcome().status, vm::RunStatus::kTrapped);
  EXPECT_EQ(truncated.tquad_tool->outcome().status, vm::RunStatus::kTruncated);

  // Both cut-short traces were finalized on the error path and replay to the
  // same retired count through the session machinery.
  ASSERT_NO_THROW((void)trace::TraceV2View::open(fault_trace));
  SessionRun replayed(program, SessionConfig{}, ToolMask{.tquad = true});
  EXPECT_EQ(replayed.session.replay(fault_trace).retired, cut);
  testutil::expect_tquad_equal(*faulted.tquad_tool, *replayed.tquad_tool);
}

std::uint64_t clean_total(const vm::Program& program, vm::HostEnv& host) {
  vm::Machine machine(program, host);
  const vm::RunOutcome outcome = machine.run();
  EXPECT_EQ(outcome.status, vm::RunStatus::kHalted);
  return outcome.retired;
}

/// One test per registered workload — the registry supplies the workload
/// list (wfs included, no special-casing), so a newly registered shape gets
/// the prefix contract for free.
class FaultDifferentialZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultDifferentialZoo, TrapEqualsBudgetPrefix) {
  const workloads::Entry& entry = workloads::find_workload(GetParam());
  // Three builds: one clean run to measure the cut point, one faulted run,
  // one budget-truncated run (each Instance is single-shot).
  workloads::Instance clean = entry.build();
  workloads::Instance faulted = entry.build();
  workloads::Instance truncated = entry.build();
  const std::uint64_t total = clean_total(clean.program, clean.host);
  check_fault_equals_prefix(clean.program, std::move(faulted.host),
                            std::move(truncated.host), total);
}

INSTANTIATE_TEST_SUITE_P(Zoo, FaultDifferentialZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

// ---- FaultPlan trigger kinds on the bare Machine ----------------------------------

TEST(FaultPlan, TrapAtRetiredIsDeterministic) {
  const vm::Program program = workloads::build_stream(64, 1).program;
  vm::RunOutcome outcomes[2];
  for (vm::RunOutcome& outcome : outcomes) {
    vm::HostEnv host;
    vm::Machine machine(program, host);
    vm::FaultPlan plan;
    plan.trap_at_retired = 123;
    machine.set_fault_plan(plan);
    outcome = machine.run();
  }
  EXPECT_EQ(outcomes[0].status, vm::RunStatus::kTrapped);
  EXPECT_EQ(outcomes[0].retired, 123u);
  EXPECT_EQ(outcomes[0].status, outcomes[1].status);
  EXPECT_EQ(outcomes[0].retired, outcomes[1].retired);
  EXPECT_EQ(outcomes[0].trap_kind, outcomes[1].trap_kind);
  EXPECT_EQ(outcomes[0].trap_func, outcomes[1].trap_func);
  EXPECT_EQ(outcomes[0].trap_pc, outcomes[1].trap_pc);
}

TEST(FaultPlan, FailSyscallTrapsOnTheKthSyscall) {
  gasm::ProgramBuilder prog;
  auto& f = prog.begin_function("main");
  for (int i = 0; i < 3; ++i) {
    f.movi(gasm::R{1}, 16);
    f.sys(isa::Sys::kAlloc);
  }
  f.halt();
  const vm::Program program = prog.build("main");

  vm::HostEnv host;
  vm::Machine machine(program, host);
  vm::FaultPlan plan;
  plan.fail_syscall = 2;
  machine.set_fault_plan(plan);
  const vm::RunOutcome outcome = machine.run();
  ASSERT_EQ(outcome.status, vm::RunStatus::kTrapped);
  EXPECT_NE(outcome.trap_kind.find("syscall 2"), std::string::npos);
  // movi+sys, movi, then the failing sys delivered its tick: 4 retired.
  EXPECT_EQ(outcome.retired, 4u);
  EXPECT_EQ(outcome.trap_function, "main");
}

TEST(FaultPlan, FailFuncTrapsOnTheMthEntry) {
  gasm::ProgramBuilder prog;
  auto& helper = prog.begin_function("helper");
  helper.ret();
  auto& main_fn = prog.begin_function("main");
  for (int i = 0; i < 5; ++i) main_fn.call("helper");
  main_fn.halt();
  const vm::Program program = prog.build("main");

  std::uint32_t helper_id = 0;
  for (std::uint32_t k = 0; k < program.functions().size(); ++k) {
    if (program.functions()[k].name == "helper") helper_id = k;
  }

  vm::HostEnv host;
  vm::Machine machine(program, host);
  vm::FaultPlan plan;
  plan.fail_func = helper_id;
  plan.fail_func_entries = 3;
  machine.set_fault_plan(plan);
  const vm::RunOutcome outcome = machine.run();
  ASSERT_EQ(outcome.status, vm::RunStatus::kTrapped);
  EXPECT_EQ(outcome.trap_function, "helper");
  EXPECT_NE(outcome.trap_kind.find("entered 3 time"), std::string::npos);
  // call+ret per entry: two clean round trips, then the third call's tick.
  EXPECT_EQ(outcome.retired, 5u);
}

TEST(FaultPlan, UnarmedPlanChangesNothing) {
  const vm::Program program = workloads::build_stream(32, 1).program;
  vm::HostEnv clean_host;
  vm::Machine clean(program, clean_host);
  const vm::RunOutcome clean_outcome = clean.run();

  vm::HostEnv planned_host;
  vm::Machine planned(program, planned_host);
  planned.set_fault_plan(vm::FaultPlan{});  // all triggers disarmed
  const vm::RunOutcome planned_outcome = planned.run();
  EXPECT_EQ(planned_outcome.status, vm::RunStatus::kHalted);
  EXPECT_EQ(planned_outcome.retired, clean_outcome.retired);
}

}  // namespace
}  // namespace tq::session
