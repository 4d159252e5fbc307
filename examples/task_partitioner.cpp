// The downstream use the paper builds toward (Sections I, V, VI): feed the
// profiling data into the Delft WorkBench partitioning step. This example
// assembles the whole decision pipeline:
//
//   1. QUAD      -> who communicates with whom (and through how many bytes)
//   2. clustering-> kernel groups that keep communication on-chip
//                   (the paper's future-work step, implemented in
//                   src/cluster)
//   3. tQUAD     -> per-cluster bandwidth intensity and activity spans
//   4. a simple scoring rule -> which clusters to move to the
//                   reconfigurable fabric, echoing the paper's Table II
//                   discussion ("fft1d is a better candidate than wav_store
//                   for hardware mapping").
//
//   ./build/examples/task_partitioner [-standard] [-clusters N]
#include <cstdio>

#include "cluster/cluster.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"
#include "wfs/runner.hpp"

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli("task_partitioner: QUAD + clustering + tQUAD -> HW/SW hints");
  cli.add_flag("standard", false, "use the standard (larger) workload");
  cli.add_int("clusters", 5, "target number of task clusters");
  try {
    cli.parse(argc, argv);
  } catch (const Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }
  const wfs::WfsConfig cfg =
      cli.flag("standard") ? wfs::WfsConfig::standard() : wfs::WfsConfig::tiny();

  // One session, both tools, a single run.
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  quad::QuadTool quad_tool(run.artifacts.program);
  tquad::TQuadTool tq_tool(run.artifacts.program, tquad::Options{.slice_interval = 2000});
  session.add_consumer(quad_tool);
  session.add_consumer(tq_tool);
  session.run_live(run.host);

  std::uint64_t run_instr = 0;
  for (std::uint32_t k = 0; k < quad_tool.kernel_count(); ++k) {
    run_instr += quad_tool.instructions(k);
  }
  cluster::ClusterOptions options;
  options.target_clusters = static_cast<std::size_t>(cli.integer("clusters"));
  // Resource budget: no cluster may hold more than ~40% of the run — the
  // fabric-capacity constraint that keeps single-linkage from chaining the
  // whole pipeline into one mega-task.
  options.max_cluster_weight = run_instr * 2 / 5;
  const cluster::Clustering clusters = cluster::cluster_kernels(quad_tool, options);

  std::printf("== task clusters (communication-driven) ==\n%s\n",
              cluster::describe_clustering(quad_tool, clusters).c_str());

  std::printf("== per-cluster mapping hints ==\n");
  TextTable table({"cluster", "kernels", "instr share", "global B/instr",
                   "stack/global ratio", "suggestion"});
  std::uint64_t total_instr = 0;
  for (std::uint32_t k = 0; k < quad_tool.kernel_count(); ++k) {
    total_instr += quad_tool.instructions(k);
  }
  for (std::size_t c = 0; c < clusters.clusters.size(); ++c) {
    std::uint64_t instr = 0;
    std::uint64_t global_in = 0, global_out_unma = 0, incl_in = 0;
    double bpi = 0.0;
    std::string names;
    for (std::uint32_t kernel : clusters.clusters[c]) {
      instr += quad_tool.instructions(kernel);
      global_in += quad_tool.excluding_stack(kernel).in_bytes;
      incl_in += quad_tool.including_stack(kernel).in_bytes;
      global_out_unma += quad_tool.excluding_stack(kernel).out_unma.count();
      const auto stats = tquad::bandwidth_stats(
          tq_tool.bandwidth().kernel(kernel), tq_tool.options().slice_interval);
      bpi = std::max(bpi, stats.max_rw_excl);
      if (!names.empty()) names += ' ';
      names += quad_tool.kernel_name(kernel);
      if (names.size() > 48) {
        names += "...";
        break;
      }
    }
    const double share =
        total_instr == 0 ? 0.0
                         : static_cast<double>(instr) / static_cast<double>(total_instr);
    const double stack_ratio =
        global_in == 0 ? 99.0
                       : static_cast<double>(incl_in) / static_cast<double>(global_in);
    // The paper's Table II logic: compute-heavy + mostly-local kernels are
    // hardware candidates (map buffers on-chip); scatter-heavy streamers
    // with unique-address output would squander the fabric.
    std::string suggestion;
    if (share > 0.15 && stack_ratio > 1.5) {
      suggestion = "HW (map local buffers on-chip)";
    } else if (share > 0.15) {
      suggestion = "HW only with fast external port";
    } else {
      suggestion = "keep in SW";
    }
    table.add_row({std::to_string(c + 1), names, format_percent(share),
                   format_fixed(bpi, 2), format_fixed(stack_ratio, 2), suggestion});
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf(
      "\nreading: this reproduces the paper's qualitative calls — the FFT\n"
      "pipeline cluster (compute-dense, stack-heavy, small UnMA) is the\n"
      "hardware candidate; AudioIo-style scatter kernels are not, whatever\n"
      "their share, because every byte lands on a fresh external address.\n");
  return 0;
}
