// Report helpers: CPU-model unit conversions, table rendering, metric
// extraction branches.
#include <gtest/gtest.h>

#include "gasm/builder.hpp"
#include "session/session.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"

namespace tq::tquad {
namespace {

using gasm::ProgramBuilder;
using gasm::R;
using gasm::SP;

TEST(CpuModel, UnitConversions) {
  CpuModel model;
  model.clock_ghz = 2.0;
  model.cpi = 1.0;
  EXPECT_DOUBLE_EQ(model.to_bytes_per_cycle(4.0), 4.0);
  EXPECT_DOUBLE_EQ(model.to_bytes_per_second(1.0), 2e9);
  EXPECT_DOUBLE_EQ(model.to_seconds(2'000'000'000), 1.0);

  model.cpi = 2.0;  // slower PE: half the bytes per cycle, double the time
  EXPECT_DOUBLE_EQ(model.to_bytes_per_cycle(4.0), 2.0);
  EXPECT_DOUBLE_EQ(model.to_bytes_per_second(1.0), 1e9);
  EXPECT_DOUBLE_EQ(model.to_seconds(2'000'000'000), 2.0);
}

TEST(CpuModel, PaperDefaults) {
  const CpuModel model;
  EXPECT_DOUBLE_EQ(model.clock_ghz, 2.83);
  // 2.83e9 instructions at CPI 1 = one second on the paper's Q9550.
  EXPECT_NEAR(model.to_seconds(2'830'000'000), 1.0, 1e-12);
}

struct ReportRun {
  vm::Program program;
  vm::HostEnv host;
  std::unique_ptr<session::ProfileSession> session;
  std::unique_ptr<TQuadTool> tool;

  explicit ReportRun(vm::Program prog, std::uint64_t slice = 100)
      : program(std::move(prog)) {
    session = std::make_unique<session::ProfileSession>(program);
    tool = std::make_unique<TQuadTool>(program, Options{.slice_interval = slice});
    session->add_consumer(*tool);
    session->run_live(host);
  }
};

vm::Program simple_two_kernel_program() {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 1024);
  auto& reader = prog.begin_function("reader");
  reader.movi(R{1}, static_cast<std::int64_t>(buf));
  reader.count_loop_imm(R{2}, 0, 50, [&] {
    reader.andi(R{3}, R{2}, 63);
    reader.shli(R{3}, R{3}, 3);
    reader.add(R{3}, R{3}, R{1});
    reader.load(R{4}, R{3}, 0, 8);
  });
  reader.ret();
  auto& writer = prog.begin_function("writer");
  writer.movi(R{1}, static_cast<std::int64_t>(buf));
  writer.count_loop_imm(R{2}, 0, 50, [&] {
    writer.andi(R{3}, R{2}, 63);
    writer.shli(R{3}, R{3}, 3);
    writer.add(R{3}, R{3}, R{1});
    writer.store(R{3}, 0, R{2}, 8);
  });
  writer.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("writer");
  main_fn.call("reader");
  main_fn.halt();
  return prog.build("main");
}

TEST(BandwidthTable, RendersMbPerSecondColumns) {
  ReportRun run(simple_two_kernel_program());
  CpuModel model;
  model.clock_ghz = 1.0;
  model.cpi = 1.0;
  const std::string text = bandwidth_table(*run.tool, model).to_ascii();
  EXPECT_NE(text.find("avg read MB/s"), std::string::npos);
  EXPECT_NE(text.find("reader"), std::string::npos);
  EXPECT_NE(text.find("writer"), std::string::npos);
}

TEST(DenseSeries, EveryMetricBranch) {
  ReportRun run(simple_two_kernel_program(), 10);
  const auto reader = *run.program.find("reader");
  const auto writer = *run.program.find("writer");
  const auto& reader_totals = run.tool->bandwidth().kernel(reader).totals;
  const auto& writer_totals = run.tool->bandwidth().kernel(writer).totals;

  auto sum = [&](std::uint32_t kernel, Metric metric) {
    std::uint64_t total = 0;
    for (double v : dense_series(*run.tool, kernel, metric)) {
      total += static_cast<std::uint64_t>(v);
    }
    return total;
  };
  EXPECT_EQ(sum(reader, Metric::kReadIncl), reader_totals.read_incl);
  EXPECT_EQ(sum(reader, Metric::kReadExcl), reader_totals.read_excl);
  EXPECT_EQ(sum(writer, Metric::kWriteIncl), writer_totals.write_incl);
  EXPECT_EQ(sum(writer, Metric::kWriteExcl), writer_totals.write_excl);
  EXPECT_EQ(sum(reader, Metric::kReadWriteIncl),
            reader_totals.read_incl + reader_totals.write_incl);
  EXPECT_EQ(sum(reader, Metric::kReadWriteExcl),
            reader_totals.read_excl + reader_totals.write_excl);
}

TEST(FlatProfile, TieBreaksByName) {
  // reader and writer execute identical instruction counts; order must be
  // deterministic (alphabetical on ties).
  ReportRun run(simple_two_kernel_program());
  const auto rows = flat_profile(*run.tool);
  ASSERT_GE(rows.size(), 2u);
  std::size_t reader_pos = 99, writer_pos = 99;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].name == "reader") reader_pos = i;
    if (rows[i].name == "writer") writer_pos = i;
  }
  ASSERT_NE(reader_pos, 99u);
  ASSERT_NE(writer_pos, 99u);
  if (rows[reader_pos].instructions == rows[writer_pos].instructions) {
    EXPECT_LT(reader_pos, writer_pos);  // "reader" < "writer"
  }
}

TEST(FlatProfile, FractionsSumToOneWhenAllTracked) {
  ReportRun run(simple_two_kernel_program());
  double total = 0.0;
  for (const auto& row : flat_profile(*run.tool)) total += row.time_fraction;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

}  // namespace
}  // namespace tq::tquad
