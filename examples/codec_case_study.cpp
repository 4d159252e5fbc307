// A second case study from the multimedia domain: the DCT image encoder.
//
// The paper notes "tQUAD was tested on a set of real applications" but only
// has room for hArtes wfs; this example profiles another member of that set
// and shows how differently shaped its temporal profile is — a three-phase
// load -> transform -> encode pipeline instead of the wfs five-phase run.
//
//   ./build/examples/codec_case_study [-standard] [-slice N]
#include <cstdio>

#include "dctc/dctc.hpp"
#include "session/session.hpp"
#include "support/ascii_chart.hpp"
#include "support/cli.hpp"
#include "tquad/phase.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli("codec_case_study: tQUAD on the DCT image encoder");
  cli.add_flag("standard", false, "encode the 256x256 image (default: tiny)");
  cli.add_int("slice", 2000, "time slice interval");
  try {
    cli.parse(argc, argv);
  } catch (const Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }
  const dctc::DctcConfig cfg = cli.flag("standard") ? dctc::DctcConfig::standard()
                                                    : dctc::DctcConfig::tiny();
  const auto pixels = dctc::make_test_image(cfg);
  dctc::DctcArtifacts artifacts = dctc::build_dctc_program(cfg);
  vm::HostEnv host;
  host.attach_input(pixels);
  host.create_output();

  session::ProfileSession session(artifacts.program);
  tquad::TQuadTool tool(
      artifacts.program,
      tquad::Options{.slice_interval = static_cast<std::uint64_t>(cli.integer("slice"))});
  session.add_consumer(tool);
  const vm::RunOutcome result = session.run_live(host);

  const auto& stream = host.output(dctc::DctcArtifacts::kOutputFd);
  std::printf("encoded %ux%u (%zu pixel bytes) into %zu bytes (%.1f:1) over %s "
              "instructions\n\n",
              cfg.width, cfg.height, pixels.size(), stream.size(),
              static_cast<double>(pixels.size()) / static_cast<double>(stream.size()),
              format_count(result.retired).c_str());

  std::fputs(tquad::flat_profile_table(tool).to_ascii().c_str(), stdout);

  std::printf("\nactivity over time:\n");
  std::vector<ChartSeries> series;
  for (const auto& row : tquad::flat_profile(tool)) {
    if (row.name == "main") continue;
    series.push_back(ChartSeries{
        row.name,
        tquad::dense_series(tool, row.kernel, tquad::Metric::kReadWriteIncl)});
  }
  std::fputs(render_heat_strips(series).c_str(), stdout);

  tquad::PhaseOptions phase_options;
  phase_options.coarse_factor = 64;  // coarse windows must span one block
  const auto phases = tquad::detect_phases(tool, phase_options);
  std::printf("\ndetected phases:\n%s",
              tquad::describe_phases(tool, phases).c_str());

  // Validate against the golden encoder.
  const dctc::GoldenEncode golden = dctc::run_golden_encode(cfg, pixels);
  std::printf("\nvalidation: stream %s the golden encoder's (%zu vs %zu bytes)\n",
              stream == golden.stream ? "matches" : "DIFFERS FROM", stream.size(),
              golden.stream.size());
  return stream == golden.stream ? 0 : 1;
}
