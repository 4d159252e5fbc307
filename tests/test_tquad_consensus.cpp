// Multi-pass bandwidth consensus (Table IV methodology).
#include <gtest/gtest.h>

#include "gasm/builder.hpp"
#include "session/session.hpp"
#include "tquad/consensus.hpp"

namespace tq::tquad {
namespace {

using gasm::ProgramBuilder;
using gasm::R;

vm::Program steady_program() {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 4096);
  auto& worker = prog.begin_function("worker");
  worker.movi(R{1}, static_cast<std::int64_t>(buf));
  worker.count_loop_imm(R{2}, 0, 400, [&] {
    worker.andi(R{3}, R{2}, 255);
    worker.shli(R{3}, R{3}, 3);
    worker.add(R{3}, R{3}, R{1});
    worker.store(R{3}, 0, R{2}, 8);
  });
  worker.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.count_loop_imm(R{28}, 0, 10, [&] { main_fn.call("worker"); });
  main_fn.halt();
  return prog.build("main");
}

void run_pass(const vm::Program& program, std::uint64_t slice,
              BandwidthConsensus& consensus) {
  vm::HostEnv host;
  session::ProfileSession session(program);
  TQuadTool tool(program, Options{.slice_interval = slice});
  session.add_consumer(tool);
  session.run_live(host);
  consensus.add_pass(tool);
}

TEST(Consensus, SteadyKernelIsConsistentAcrossSlices) {
  // A steady streaming kernel has slice-interval-independent *average*
  // bandwidth: the consensus across very different intervals stays tight.
  const vm::Program program = steady_program();
  BandwidthConsensus consensus(0.10);
  for (std::uint64_t slice : {500u, 2'000u, 10'000u}) {
    run_pass(program, slice, consensus);
  }
  EXPECT_EQ(consensus.passes(), 3u);
  const auto rows = consensus.rows();
  const auto worker = std::find_if(rows.begin(), rows.end(), [](const auto& row) {
    return row.name == "worker";
  });
  ASSERT_NE(worker, rows.end());
  EXPECT_FALSE(worker->avg_write_incl.inconsistent);
  EXPECT_GT(worker->avg_write_incl.mean, 0.5);
  // Consistent columns print without the bound marker.
  EXPECT_EQ(BandwidthConsensus::format_column(worker->avg_write_incl)[0] != '<', true);
}

TEST(Consensus, BurstyPeakIsFlaggedAsUpperBound) {
  // A kernel that runs one short burst per long call: its *peak* B/instr
  // depends strongly on the slice interval (fine slices isolate the burst,
  // coarse slices dilute it) -> the max column must come out inconsistent.
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 8192);
  auto& bursty = prog.begin_function("bursty");
  // burst: 64 contiguous movs (128B per instruction)...
  bursty.movi(R{1}, static_cast<std::int64_t>(buf));
  bursty.movi(R{2}, static_cast<std::int64_t>(buf) + 4096);
  bursty.count_loop_imm(R{3}, 0, 32, [&] { bursty.movs(R{2}, R{1}, 64); });
  // ...then a long silent spin.
  bursty.count_loop_imm(R{4}, 0, 2000, [&] { bursty.addi(R{5}, R{5}, 1); });
  bursty.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.count_loop_imm(R{28}, 0, 8, [&] { main_fn.call("bursty"); });
  main_fn.halt();
  const vm::Program program = prog.build("main");

  BandwidthConsensus consensus(0.10);
  for (std::uint64_t slice : {100u, 1'000u, 10'000u}) {
    run_pass(program, slice, consensus);
  }
  const auto rows = consensus.rows();
  const auto bursty_row =
      std::find_if(rows.begin(), rows.end(),
                   [](const auto& row) { return row.name == "bursty"; });
  ASSERT_NE(bursty_row, rows.end());
  EXPECT_TRUE(bursty_row->max_rw_incl.inconsistent)
      << "peak spread: " << bursty_row->max_rw_incl.spread;
  const std::string printed =
      BandwidthConsensus::format_column(bursty_row->max_rw_incl);
  EXPECT_EQ(printed[0], '<') << printed;  // the paper's "<" upper bound
}

TEST(Consensus, ActivitySpanComesFromFinestPass) {
  const vm::Program program = steady_program();
  BandwidthConsensus consensus;
  run_pass(program, 10'000, consensus);
  run_pass(program, 100, consensus);  // finest, added second
  const auto rows = consensus.rows();
  const auto worker = std::find_if(rows.begin(), rows.end(), [](const auto& row) {
    return row.name == "worker";
  });
  ASSERT_NE(worker, rows.end());
  // At slice 100 the worker is active in far more slices than at 10'000.
  EXPECT_GT(worker->activity_span, 50u);
}

TEST(Consensus, MismatchedProgramsAbort) {
  const vm::Program a = steady_program();
  ProgramBuilder prog;
  auto& main_fn = prog.begin_function("main");
  main_fn.halt();
  const vm::Program b = prog.build("main");
  BandwidthConsensus consensus;
  run_pass(a, 100, consensus);
  EXPECT_DEATH(run_pass(b, 100, consensus), "same program");
}

}  // namespace
}  // namespace tq::tquad
