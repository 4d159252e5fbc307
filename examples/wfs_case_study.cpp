// The paper's Section V case study end to end: profile the hArtes-wfs
// reimplementation with all three tools and print every analysis —
// gprof-style flat profile, QUAD producer/consumer summary, tQUAD bandwidth
// time series, and the detected execution phases.
//
//   ./build/examples/wfs_case_study                 # standard workload
//   ./build/examples/wfs_case_study -tiny           # fast run
//   ./build/examples/wfs_case_study -slice 1000     # finer time slices
#include <cstdio>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/ascii_chart.hpp"
#include "support/cli.hpp"
#include "tquad/phase.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"
#include "wfs/runner.hpp"

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli("wfs_case_study: the full Section V analysis pipeline");
  cli.add_flag("tiny", false, "use the tiny configuration");
  cli.add_int("slice", 5000, "tQUAD slice interval");
  cli.add_flag("verify", true, "check the audio output against the golden model");
  try {
    cli.parse(argc, argv);
  } catch (const Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }
  const wfs::WfsConfig cfg =
      cli.flag("tiny") ? wfs::WfsConfig::tiny() : wfs::WfsConfig::standard();

  // One session runs all three tools on a single execution.
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  const vm::Program& program = run.artifacts.program;
  session::ProfileSession session(program);
  gprof::GprofTool gprof_tool(program);
  quad::QuadTool quad_tool(program);
  tquad::TQuadTool tool(
      program,
      tquad::Options{.slice_interval = static_cast<std::uint64_t>(cli.integer("slice"))});
  session.add_consumer(gprof_tool);
  session.add_consumer(quad_tool);
  session.add_consumer(tool);
  session.run_live(run.host);

  // --- step 1: gprof-style flat profile (find the top kernels) --------------
  std::printf("=== step 1: flat profile (gsim) ===\n");
  std::fputs(gprof_tool.flat_profile_table().to_ascii().c_str(), stdout);

  // --- step 2: QUAD data-communication overview ------------------------------
  std::printf("\n=== step 2: QUAD producer/consumer bindings (top 10 by bytes) ===\n");
  const auto edges = quad_tool.bindings();
  for (std::size_t i = 0; i < edges.size() && i < 10; ++i) {
    std::printf("  %-24s -> %-24s %s\n",
                quad_tool.kernel_name(edges[i].producer).c_str(),
                quad_tool.kernel_name(edges[i].consumer).c_str(),
                format_bytes(edges[i].bytes).c_str());
  }

  // --- step 3: tQUAD temporal bandwidth + phases -----------------------------
  std::printf("\n=== step 3: tQUAD temporal analysis ===\n");

  std::printf("kernel activity over time (read+write bytes per slice):\n");
  std::vector<ChartSeries> series;
  for (const auto& row : tquad::flat_profile(tool)) {
    if (series.size() == 8 || row.name == "main") continue;
    series.push_back(ChartSeries{
        row.name, tquad::dense_series(tool, row.kernel,
                                      tquad::Metric::kReadWriteIncl)});
  }
  std::fputs(render_heat_strips(series).c_str(), stdout);

  const auto phases = tquad::detect_phases(tool);
  std::printf("\ndetected phases:\n%s", tquad::describe_phases(tool, phases).c_str());

  // --- step 4: validate the audio output -------------------------------------
  if (cli.flag("verify")) {
    const wfs::GoldenResult golden = wfs::run_golden(cfg, run.input);
    const wfs::WavData out = run.decode_output();
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < out.samples.size(); ++i) {
      if (out.samples[i] != golden.output[i]) ++mismatches;
    }
    std::printf("\naudio validation: %zu of %zu samples differ from the golden "
                "model (%s)\n",
                mismatches, out.samples.size(),
                mismatches == 0 ? "bit-exact" : "MISMATCH");
  }
  return 0;
}
