// Table II reproduction: QUAD producer/consumer summary of the wfs kernels.
//
// One QUAD run records both stack classifications simultaneously; the table
// prints IN / IN UnMA / OUT / OUT UnMA with the stack excluded and included,
// exactly the paper's columns, followed by the qualitative checks the
// paper's discussion rests on:
//   * zeroRealVec / zeroCplxVec read (almost) only from the stack — the
//     include/exclude IN ratio explodes (paper: > 300 / > 750);
//   * fft1d's IN UnMA is (nearly) identical in both cases — its temporaries
//     are small;
//   * AudioIo_setFrames writes every output byte to a distinct address
//     (OUT UnMA ~ bytes written once);
//   * AudioIo_getFrames reads via separate addresses (IN ~ IN UnMA);
//   * wav_store reads a huge number of distinct locations and exposes almost
//     nothing to other kernels (tiny OUT UnMA);
//   * ffw writes small tables whose bytes the whole run then consumes
//     (OUT >> bytes written).
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "wfs/runner.hpp"

#include "paper_reference.hpp"

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli("bench_table2_quad_bindings: regenerate the paper's Table II");
  cli.add_flag("tiny", false, "use the tiny test configuration");
  cli.add_flag("csv", false, "also print CSV");
  cli.add_flag("dot", false, "print the QDU graph in Graphviz DOT");
  try {
    cli.parse(argc, argv);
  } catch (const Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }

  const wfs::WfsConfig cfg =
      cli.flag("tiny") ? wfs::WfsConfig::tiny() : wfs::WfsConfig::standard();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  quad::QuadTool tool(run.artifacts.program);
  session.add_consumer(tool);
  session.run_live(run.host);

  std::map<std::string, const bench::PaperQuadRow*> paper;
  for (const auto& row : bench::paper_table2()) paper[row.kernel] = &row;

  TextTable table({"kernel", "IN ex", "INunma ex", "OUT ex", "OUTunma ex",
                   "IN in", "INunma in", "OUT in", "OUTunma in"});
  auto kernel_id = [&](const char* name) {
    return *run.artifacts.program.find(name);
  };
  for (const auto& row : bench::paper_table2()) {
    const auto id = kernel_id(row.kernel);
    const auto& ex = tool.excluding_stack(id);
    const auto& in = tool.including_stack(id);
    table.add_row({row.kernel, format_count(ex.in_bytes),
                   format_count(ex.in_unma.count()), format_count(ex.out_bytes),
                   format_count(ex.out_unma.count()), format_count(in.in_bytes),
                   format_count(in.in_unma.count()), format_count(in.out_bytes),
                   format_count(in.out_unma.count())});
  }

  std::printf("== Table II: QUAD producer/consumer summary ==\n");
  std::printf("workload: %u speakers, %u chunks x %u samples, FFT %u\n\n",
              cfg.speakers, cfg.chunks, cfg.chunk_size, cfg.fft_size);
  std::fputs(table.to_ascii().c_str(), stdout);
  if (cli.flag("csv")) std::fputs(table.to_csv().c_str(), stdout);

  // Shape checks from the paper's discussion.
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? std::numeric_limits<double>::infinity()
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  std::printf("\nshape checks (paper expectation in parentheses):\n");
  {
    const auto id = kernel_id("zeroRealVec");
    const double r =
        ratio(tool.including_stack(id).in_bytes, tool.excluding_stack(id).in_bytes);
    std::printf("  zeroRealVec IN incl/excl ratio: %s (> 300)\n",
                std::isinf(r) ? "inf" : format_fixed(r, 1).c_str());
  }
  {
    const auto id = kernel_id("zeroCplxVec");
    const double r =
        ratio(tool.including_stack(id).in_bytes, tool.excluding_stack(id).in_bytes);
    std::printf("  zeroCplxVec IN incl/excl ratio: %s (> 750)\n",
                std::isinf(r) ? "inf" : format_fixed(r, 1).c_str());
  }
  {
    const auto id = kernel_id("fft1d");
    const auto& ex = tool.excluding_stack(id);
    const auto& in = tool.including_stack(id);
    std::printf("  fft1d IN UnMA excl vs incl: %s vs %s (nearly identical)\n",
                format_count(ex.in_unma.count()).c_str(),
                format_count(in.in_unma.count()).c_str());
  }
  {
    const auto id = kernel_id("AudioIo_setFrames");
    const auto& ex = tool.excluding_stack(id);
    const std::uint64_t frame_bytes = cfg.output_samples() * 4;
    std::printf("  AudioIo_setFrames OUT UnMA: %s == output bytes %s "
                "(every byte to a distinct address)\n",
                format_count(ex.out_unma.count()).c_str(),
                format_count(frame_bytes).c_str());
  }
  {
    const auto id = kernel_id("AudioIo_getFrames");
    const auto& ex = tool.excluding_stack(id);
    std::printf("  AudioIo_getFrames IN vs IN UnMA: %s vs %s (IN ~ IN UnMA)\n",
                format_count(ex.in_bytes).c_str(),
                format_count(ex.in_unma.count()).c_str());
  }
  {
    const auto id = kernel_id("wav_store");
    const auto& ex = tool.excluding_stack(id);
    std::printf("  wav_store IN UnMA: %s (huge) vs OUT UnMA: %s (tiny)\n",
                format_count(ex.in_unma.count()).c_str(),
                format_count(ex.out_unma.count()).c_str());
  }
  {
    const auto id = kernel_id("ffw");
    const auto& ex = tool.excluding_stack(id);
    std::printf("  ffw OUT / OUT UnMA: %s / %s (small tables, consumed all run)\n",
                format_count(ex.out_bytes).c_str(),
                format_count(ex.out_unma.count()).c_str());
  }

  if (cli.flag("dot")) {
    std::printf("\n-- QDU graph --\n%s", tool.qdu_graph_dot().c_str());
  } else {
    std::printf("\n(QDU graph available with -dot; %zu bindings recorded)\n",
                tool.bindings().size());
  }
  return 0;
}
