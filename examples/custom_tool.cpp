// Writing your own analysis tool: an AnalysisConsumer on a ProfileSession —
// the seam tQUAD, QUAD and gprof are written against, as the paper's tools
// are written against Pin.
//
// The example tool is a *working-set tracker*. Becker and Chakraborty's
// Valgrind working-set tool (arXiv 1902.11028) defines the working set as
// the set of memory blocks referenced within a fixed window of execution.
// Here the block is a 64-byte cache line and the window is everything one
// kernel executes: for every kernel the tool counts the distinct lines it
// touches and how often it revisits them, and flags streaming kernels (many
// lines, few revisits) versus resident kernels (few lines, many revisits).
// This is the kind of decision input the paper's DWB partitioning flow
// needs: a resident kernel maps well to on-chip buffers, a streaming kernel
// does not.
#include <cstdio>
#include <vector>

#include "session/session.hpp"
#include "support/address_set.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "tquad/callstack.hpp"
#include "wfs/runner.hpp"

namespace {

using namespace tq;

constexpr tquad::LibraryPolicy kPolicy = tquad::LibraryPolicy::kExclude;

/// Accesses arrive already attributed to the kernel on top of the session's
/// call stack, so the tool keeps no stack of its own.
class WorkingSetTool final : public session::AnalysisConsumer {
 public:
  explicit WorkingSetTool(const vm::Program& program)
      : program_(program),
        tracked_(tquad::tracked_functions(program, kPolicy)),
        lines_(program.functions().size()),
        touches_(program.functions().size(), 0) {}

  unsigned event_interests() const override { return kAccessInterest; }

  // Prefetch touches count: they bring the line in like any read.
  void on_access(const session::AccessEvent& event) override {
    if (event.kernel == tquad::kNoKernel || event.size == 0) return;
    // Track distinct 64-byte lines; one insert per touched line.
    const std::uint64_t first = event.ea >> 6;
    const std::uint64_t last = (event.ea + event.size - 1) >> 6;
    for (std::uint64_t line = first; line <= last; ++line) {
      lines_[event.kernel].insert_range(line, 1);  // line-granular set
      ++touches_[event.kernel];
    }
  }

  void report() const {
    TextTable table({"kernel", "cache lines", "touches", "revisit factor", "class"});
    for (std::uint32_t k = 0; k < lines_.size(); ++k) {
      const std::uint64_t lines = lines_[k].count();
      if (lines == 0 || !tracked_[k]) continue;
      const double revisit =
          static_cast<double>(touches_[k]) / static_cast<double>(lines);
      table.add_row({program_.functions()[k].name, format_count(lines),
                     format_count(touches_[k]), format_fixed(revisit, 1),
                     revisit > 32.0  ? "resident (map on-chip)"
                     : revisit > 4.0 ? "mixed"
                                     : "streaming (keep off-chip)"});
    }
    std::fputs(table.to_ascii().c_str(), stdout);
  }

 private:
  const vm::Program& program_;
  std::vector<bool> tracked_;
  std::vector<AddressSet> lines_;
  std::vector<std::uint64_t> touches_;
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("custom_tool: a working-set tracker written as a session consumer");
  cli.add_flag("standard", false, "use the standard (larger) workload");
  try {
    cli.parse(argc, argv);
  } catch (const Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }
  const wfs::WfsConfig cfg =
      cli.flag("standard") ? wfs::WfsConfig::standard() : wfs::WfsConfig::tiny();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::SessionConfig config;
  config.library_policy = kPolicy;
  session::ProfileSession session(run.artifacts.program, config);
  WorkingSetTool tool(run.artifacts.program);
  session.add_consumer(tool);
  const vm::RunOutcome result = session.run_live(run.host);
  std::printf("working-set classification after %s instructions:\n\n",
              format_count(result.retired).c_str());
  tool.report();
  std::printf("\nreading: 'resident' kernels revisit a small line set and are "
              "candidates for on-chip buffers\n(the hardware-mapping decision "
              "the paper's Table II discussion walks through).\n");
  return 0;
}
