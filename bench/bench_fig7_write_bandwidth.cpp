// Figure 7 reproduction: memory bandwidth usage of the *last* ten kernels,
// write accesses, stack area excluded, finer time slices, second half of the
// run cut off (only wav_store is active there).
//
// The paper uses a 25e6-instruction slice (255 slices, 128 shown); we divide
// the run into ~256 slices and render the first half.
#include <cstdio>
#include <fstream>

#include "session/session.hpp"
#include "support/ascii_chart.hpp"
#include "support/cli.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"
#include "wfs/runner.hpp"

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli("bench_fig7_write_bandwidth: regenerate the paper's Figure 7");
  cli.add_int("slices", 256, "number of time slices across the run (paper: 255)");
  cli.add_flag("tiny", false, "use the tiny test configuration");
  cli.add_string("csv", "", "write the per-slice series (long format) to this path");
  try {
    cli.parse(argc, argv);
  } catch (const Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }

  const wfs::WfsConfig cfg =
      cli.flag("tiny") ? wfs::WfsConfig::tiny() : wfs::WfsConfig::standard();

  wfs::WfsRun probe = wfs::prepare_wfs_run(cfg);
  vm::Machine probe_machine(probe.artifacts.program, probe.host);
  const std::uint64_t total = probe_machine.run().retired;
  const std::uint64_t interval = std::max<std::uint64_t>(
      1, total / static_cast<std::uint64_t>(cli.integer("slices")));

  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  tquad::TQuadTool tool(run.artifacts.program,
                        tquad::Options{.slice_interval = interval});
  session.add_consumer(tool);
  session.run_live(run.host);

  // The last ten kernels of Table I (the quiet ones the coarse Figure 6
  // cannot resolve).
  const char* kLastTen[] = {
      "wav_load", "Filter_process_pre_", "zeroCplxVec", "r2c", "c2r",
      "AudioIo_getFrames", "ffw", "vsmult2d", "calculateGainPQ",
      "PrimarySource_deriveTP",
  };

  std::printf("== Figure 7: write bandwidth per slice, stack excluded ==\n");
  std::printf("slice interval %s instructions; second half of the run cut off "
              "(only wav_store is active there)\n\n",
              format_count(interval).c_str());

  std::vector<ChartSeries> series;
  for (const char* name : kLastTen) {
    const auto id = *run.artifacts.program.find(name);
    auto values = tquad::dense_series(tool, id, tquad::Metric::kWriteExcl);
    values.resize(values.size() / 2);  // cut off the wav_store half
    series.push_back(ChartSeries{name, std::move(values)});
  }
  ChartOptions options;
  options.width = 96;
  std::fputs(render_heat_strips(series, options).c_str(), stdout);

  if (!cli.str("csv").empty()) {
    std::ofstream csv(cli.str("csv"));
    csv << "kernel,slice,bytes\n";
    for (const auto& s : series) {
      for (std::size_t i = 0; i < s.values.size(); ++i) {
        if (s.values[i] > 0) {
          csv << s.name << ',' << i << ',' << s.values[i] << '\n';
        }
      }
    }
    std::printf("\nseries written to %s\n", cli.str("csv").c_str());
  }

  // Shape checks: wav_load confined to an early burst; the propagation
  // kernels (vsmult2d/calculateGainPQ/PrimarySource) stop at move_chunks;
  // getFrames regular throughout the processing region.
  auto activity_extent = [&](const char* name) {
    const auto id = *run.artifacts.program.find(name);
    const auto& bw = tool.bandwidth().kernel(id);
    return std::pair<std::uint64_t, std::uint64_t>{bw.first_active_slice(),
                                                   bw.last_active_slice()};
  };
  const auto load = activity_extent("wav_load");
  const auto gain = activity_extent("calculateGainPQ");
  const auto frames = activity_extent("AudioIo_getFrames");
  std::printf("\nshape checks:\n");
  std::printf("  wav_load active slices %llu-%llu (early, short)\n",
              static_cast<unsigned long long>(load.first),
              static_cast<unsigned long long>(load.second));
  std::printf("  calculateGainPQ active slices %llu-%llu "
              "(stops when the source stops moving)\n",
              static_cast<unsigned long long>(gain.first),
              static_cast<unsigned long long>(gain.second));
  std::printf("  AudioIo_getFrames active slices %llu-%llu "
              "(regular across the processing region)\n",
              static_cast<unsigned long long>(frames.first),
              static_cast<unsigned long long>(frames.second));
  std::printf("  gain kernels end before getFrames: %s (paper: yes)\n",
              gain.second < frames.second ? "yes" : "NO");
  return 0;
}
