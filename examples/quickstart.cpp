// Quickstart: profile a small guest program with tQUAD in ~60 lines.
//
//   1. Write a guest program with the gasm builder (or load a TQIM image).
//   2. Open a ProfileSession and register the TQuadTool on it.
//   3. Run, then read flat profile, per-kernel bandwidth and activity spans.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "gasm/builder.hpp"
#include "session/session.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"

int main() {
  using namespace tq;
  using gasm::F;
  using gasm::R;

  // -- 1. a tiny application: fill a vector, then sum it, 200 times --------
  gasm::ProgramBuilder prog;
  const std::uint64_t data = prog.alloc_global("data", 1024 * 8);

  auto& fill = prog.begin_function("fill");
  fill.movi(R{1}, static_cast<std::int64_t>(data));
  fill.count_loop_imm(R{2}, 0, 1024, [&] {
    fill.shli(R{3}, R{2}, 3);
    fill.add(R{3}, R{3}, R{1});
    fill.store(R{3}, 0, R{2}, 8);
  });
  fill.ret();

  auto& sum = prog.begin_function("sum");
  sum.movi(R{1}, static_cast<std::int64_t>(data));
  sum.movi(R{4}, 0);
  sum.count_loop_imm(R{2}, 0, 1024, [&] {
    sum.shli(R{3}, R{2}, 3);
    sum.add(R{3}, R{3}, R{1});
    sum.load(R{5}, R{3}, 0, 8);
    sum.add(R{4}, R{4}, R{5});
  });
  sum.ret();

  auto& main_fn = prog.begin_function("main");
  main_fn.count_loop_imm(R{28}, 0, 200, [&] {
    main_fn.call("fill");
    main_fn.call("sum");
  });
  main_fn.halt();
  vm::Program program = prog.build("main");

  // -- 2. session + tool -----------------------------------------------------
  vm::HostEnv host;
  session::ProfileSession session(program);
  tquad::TQuadTool tool(program, tquad::Options{.slice_interval = 10'000});
  session.add_consumer(tool);

  // -- 3. run and report -----------------------------------------------------
  const vm::RunOutcome result = session.run_live(host);
  std::printf("retired %s instructions\n\n", format_count(result.retired).c_str());
  std::fputs(tquad::flat_profile_table(tool).to_ascii().c_str(), stdout);

  std::printf("\nper-kernel bandwidth (bytes/instruction over active slices):\n");
  for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
    if (!tool.reported(k) || tool.activity(k).calls == 0) continue;
    const auto stats = tquad::bandwidth_stats(tool.bandwidth().kernel(k),
                                              tool.options().slice_interval);
    std::printf("  %-6s active %3llu slices (%llu-%llu)  avg rd %.3f  avg wr %.3f"
                "  peak %.3f\n",
                tool.kernel_name(k).c_str(),
                static_cast<unsigned long long>(stats.activity_span),
                static_cast<unsigned long long>(stats.first_slice),
                static_cast<unsigned long long>(stats.last_slice),
                stats.avg_read_incl, stats.avg_write_incl, stats.max_rw_incl);
  }
  return 0;
}
