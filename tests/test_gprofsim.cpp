// The gprof-equivalent sampling profiler.
#include <gtest/gtest.h>

#include "gasm/builder.hpp"
#include "gprofsim/gprof_tool.hpp"
#include "session/session.hpp"

namespace tq::gprof {
namespace {

using gasm::ProgramBuilder;
using gasm::R;
using gasm::SP;

/// busy(iters): spin `iters` times. main calls busy_long once (heavy) and
/// busy_short many times (light).
vm::Program make_workload() {
  ProgramBuilder prog;
  auto make_spinner = [&](const std::string& name, std::int64_t iters) {
    auto& f = prog.begin_function(name);
    f.count_loop_imm(R{8}, 0, iters, [&] { f.addi(R{9}, R{9}, 1); });
    f.ret();
  };
  make_spinner("busy_long", 5000);
  make_spinner("busy_short", 50);
  auto& main_fn = prog.begin_function("main");
  main_fn.call("busy_long");
  main_fn.count_loop_imm(R{20}, 0, 10, [&] { main_fn.call("busy_short"); });
  main_fn.halt();
  return prog.build("main");
}

struct ProfRun {
  vm::Program program;
  vm::HostEnv host;
  std::unique_ptr<session::ProfileSession> session;
  std::unique_ptr<GprofTool> tool;

  explicit ProfRun(vm::Program prog, Options options = {})
      : program(std::move(prog)) {
    session::SessionConfig config;
    config.library_policy = options.library_policy;
    session = std::make_unique<session::ProfileSession>(program, config);
    tool = std::make_unique<GprofTool>(program, options);
    session->add_consumer(*tool);
    session->run_live(host);
  }
  std::uint32_t id(const std::string& name) const { return *program.find(name); }
};

TEST(GprofTool, CallCountsAreExact) {
  ProfRun run(make_workload(), Options{.sample_period = 100});
  EXPECT_EQ(run.tool->calls(run.id("busy_long")), 1u);
  EXPECT_EQ(run.tool->calls(run.id("busy_short")), 10u);
  EXPECT_EQ(run.tool->calls(run.id("main")), 1u);
}

TEST(GprofTool, ExactSelfInstructionsSumToTotal) {
  ProfRun run(make_workload(), Options{.sample_period = 97});
  std::uint64_t sum = 0;
  for (std::uint32_t k = 0; k < run.tool->kernel_count(); ++k) {
    sum += run.tool->exact_self_instructions(k);
  }
  EXPECT_EQ(sum, run.tool->total_retired());
}

TEST(GprofTool, SamplingApproximatesExactShares) {
  ProfRun run(make_workload(), Options{.sample_period = 23});
  const auto busy_long = run.id("busy_long");
  const double exact_share =
      static_cast<double>(run.tool->exact_self_instructions(busy_long)) /
      static_cast<double>(run.tool->total_retired());
  const double sampled_share =
      static_cast<double>(run.tool->samples(busy_long)) /
      static_cast<double>(run.tool->total_samples());
  EXPECT_NEAR(sampled_share, exact_share, 0.03);
}

TEST(GprofTool, InclusiveCoversCallees) {
  ProfRun run(make_workload(), Options{.sample_period = 100});
  const auto main_id = run.id("main");
  const auto busy_long = run.id("busy_long");
  // main's inclusive time covers nearly the whole program.
  EXPECT_GE(run.tool->inclusive_instructions(main_id),
            run.tool->total_retired() - 2);
  // busy_long's inclusive equals its self time (it calls nothing).
  EXPECT_EQ(run.tool->inclusive_instructions(busy_long),
            run.tool->exact_self_instructions(busy_long));
  // And self < inclusive for main.
  EXPECT_LT(run.tool->exact_self_instructions(main_id),
            run.tool->inclusive_instructions(main_id));
}

TEST(GprofTool, RecursionCountedOncePerOutermostActivation) {
  ProgramBuilder prog;
  auto& rec = prog.begin_function("rec");
  {
    const auto base = rec.new_label();
    rec.sltsi(R{3}, R{1}, 1);
    rec.brnz(R{3}, base);
    rec.enter(16);
    rec.store(SP, 0, R{1}, 8);
    rec.addi(R{1}, R{1}, -1);
    rec.call("rec");
    rec.load(R{1}, SP, 0, 8);
    rec.leave(16);
    rec.ret();
    rec.bind(base);
    rec.ret();
  }
  auto& main_fn = prog.begin_function("main");
  main_fn.movi(R{1}, 20);
  main_fn.call("rec");
  main_fn.halt();
  ProfRun run(prog.build("main"), Options{.sample_period = 10});
  const auto rec_id = run.id("rec");
  EXPECT_EQ(run.tool->calls(rec_id), 21u);
  // Inclusive must not be multiple-counted across nesting: it is bounded by
  // the whole run.
  EXPECT_LE(run.tool->inclusive_instructions(rec_id), run.tool->total_retired());
  EXPECT_GT(run.tool->inclusive_instructions(rec_id),
            run.tool->exact_self_instructions(rec_id) - 1);
}

TEST(GprofTool, FlatProfileSortedAndComplete) {
  ProfRun run(make_workload(), Options{.sample_period = 50});
  const auto rows = run.tool->flat_profile();
  ASSERT_EQ(rows.size(), 3u);  // busy_long, busy_short, main
  EXPECT_EQ(rows[0].name, "busy_long");
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].time_fraction, rows[i].time_fraction);
  }
  for (const auto& row : rows) {
    EXPECT_GT(row.calls, 0u);
    EXPECT_GE(row.total_ms_per_call, row.self_ms_per_call * 0.99);
  }
}

TEST(GprofTool, SecondsConversionUsesCpuModel) {
  Options opt;
  opt.clock_ghz = 1.0;
  opt.ipc = 1.0;
  ProfRun run(make_workload(), opt);
  // 1e9 instructions at 1 GHz, IPC 1 = 1 second.
  EXPECT_DOUBLE_EQ(run.tool->instructions_to_seconds(1'000'000'000), 1.0);
  Options fast;
  fast.clock_ghz = 2.0;
  fast.ipc = 2.0;
  ProfRun run2(make_workload(), fast);
  EXPECT_DOUBLE_EQ(run2.tool->instructions_to_seconds(1'000'000'000), 0.25);
}

TEST(GprofTool, LibraryRoutinesHiddenFromProfile) {
  ProgramBuilder prog;
  auto& lib = prog.begin_function("libc_thing", vm::ImageKind::kLibrary);
  lib.count_loop_imm(R{8}, 0, 100, [&] { lib.addi(R{9}, R{9}, 1); });
  lib.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("libc_thing");
  main_fn.halt();
  ProfRun run(prog.build("main"), Options{.sample_period = 10});
  for (const auto& row : run.tool->flat_profile()) {
    EXPECT_NE(row.name, "libc_thing");
  }
}

TEST(GprofTool, TableRendersPaperColumns) {
  ProfRun run(make_workload(), Options{.sample_period = 50});
  const std::string table = run.tool->flat_profile_table().to_ascii();
  EXPECT_NE(table.find("%time"), std::string::npos);
  EXPECT_NE(table.find("self seconds"), std::string::npos);
  EXPECT_NE(table.find("calls"), std::string::npos);
  EXPECT_NE(table.find("self ms/call"), std::string::npos);
  EXPECT_NE(table.find("total ms/call"), std::string::npos);
  EXPECT_NE(table.find("busy_long"), std::string::npos);
}


TEST(GprofTool, CallGraphEdgesExact) {
  ProfRun run(make_workload(), Options{.sample_period = 100});
  const auto edges = run.tool->call_graph();
  ASSERT_FALSE(edges.empty());
  // main -> busy_short (10 calls) must be the heaviest edge; main ->
  // busy_long carries exactly 1.
  bool found_short = false, found_long = false;
  for (const auto& edge : edges) {
    if (edge.caller == run.id("main") && edge.callee == run.id("busy_short")) {
      EXPECT_EQ(edge.calls, 10u);
      found_short = true;
    }
    if (edge.caller == run.id("main") && edge.callee == run.id("busy_long")) {
      EXPECT_EQ(edge.calls, 1u);
      found_long = true;
    }
  }
  EXPECT_TRUE(found_short);
  EXPECT_TRUE(found_long);
  EXPECT_EQ(edges.front().calls, 10u) << "edges sorted heaviest first";
}

TEST(GprofTool, CallGraphCoversRecursion) {
  ProgramBuilder prog;
  auto& rec = prog.begin_function("rec");
  {
    const auto base = rec.new_label();
    rec.sltsi(R{3}, R{1}, 1);
    rec.brnz(R{3}, base);
    rec.addi(R{1}, R{1}, -1);
    rec.call("rec");
    rec.ret();
    rec.bind(base);
    rec.ret();
  }
  auto& main_fn = prog.begin_function("main");
  main_fn.movi(R{1}, 5);
  main_fn.call("rec");
  main_fn.halt();
  ProfRun run(prog.build("main"), Options{.sample_period = 10});
  // Edges: main->rec (1) and rec->rec (5 self-recursions).
  std::uint64_t self_calls = 0;
  for (const auto& edge : run.tool->call_graph()) {
    if (edge.caller == run.id("rec") && edge.callee == run.id("rec")) {
      self_calls = edge.calls;
    }
  }
  EXPECT_EQ(self_calls, 5u);
}

}  // namespace
}  // namespace tq::gprof
