// quad: the companion data-communication analyser as a command-line tool.
//
//   quad -image app.tqim [-in file] [-libs exclude|caller|track]
//        [-dot qdu.dot] [-csv table2.csv] [-clusters N]
//        [-trace out.tqtr]
//        [-engine interp|compiled] [-pipeline serial|parallel[:N]]
//        [-metrics text|json[:path]] [-heartbeat N]
//
// Prints the Table II columns for every reported kernel, optionally the QDU
// graph in Graphviz DOT and a communication-driven task clustering. -trace
// additionally records a TQTR v2 event trace (replayable with tquad -replay) —
// the recorder rides the same single-pass ProfileSession as the analysis, so
// the guest executes once. SIGINT/SIGTERM stop the run gracefully: reports
// stamp INTERRUPTED, a -trace recording finalizes, and the tool exits 4.
// Exit codes: 0 ok/truncated, 1 tool error, 2 usage error, 3 guest trap,
// 4 interrupted.
#include <cstdio>
#include <optional>

#include "cluster/cluster.hpp"
#include "quad/buffer_report.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "tquad/callstack.hpp"
#include "trace/trace.hpp"

#include "cli_common.hpp"

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli("quad: producer/consumer memory analysis for TQIM guest images");
  cli.add_string("image", "", "guest image (TQIM) to analyse [required]");
  cli.add_string("in", "", "input file to attach as a guest descriptor");
  cli.add_string("libs", "exclude", "library/OS policy: exclude | caller | track");
  cli.add_string("dot", "", "write the QDU graph (Graphviz) to this path");
  cli.add_string("csv", "", "write the kernel table as CSV to this path");
  cli.add_int("clusters", 0, "if > 0, also print a task clustering");
  cli.add_string("buffers", "", "print per-buffer data maps (kernel name or 'all')");
  cli.add_string("trace", "", "record the event trace (TQTR) to this path");
  cli.add_int("budget", 2'000'000'000,
              "stop after this many instructions (reports stamp TRUNCATED)");
  cli.add_string("on-trap", "report",
                 "guest-fault handling: report (emit PARTIAL reports, exit 3) "
                 "| abort (print the trap and exit 3 with no reports)");
  cli.add_string("engine", "compiled",
                 "guest execution engine: compiled (threaded dispatch by "
                 "straight-line runs, default) | interp (reference "
                 "interpreter); reports are byte-identical either way");
  cli.add_string("pipeline", "serial",
                 "analysis dispatch: serial (tools run on the VM thread) | "
                 "parallel[:N] (one drain thread per event ring; N = QUAD page "
                 "shards, default hardware threads, at most 16) | "
                 "auto (parallel when the host has >= 4 hardware threads and "
                 "the attached tools can actually use the rings)");
  cli.add_string("metrics", "",
                 "emit profiler self-metrics after the reports: text | json, "
                 "optionally :path (e.g. json:metrics.json; default stdout)");
  cli.add_int("heartbeat", 0,
              "print a progress pulse to stderr every N million retired "
              "instructions (0 = off; the final pulse carries the outcome)");
  try {
    cli.parse(argc, argv);
    // Validate every flag before any file I/O or the (long) analysis run.
    cli::require_positive(cli, "budget");
    cli::require_non_negative(cli, "clusters");
    const std::uint64_t heartbeat = cli::heartbeat_interval(cli);
    cli::validate_on_trap(cli.str("on-trap"));
    const vm::EngineKind engine = cli::parse_engine(cli.str("engine"));
    const cli::MetricsSpec metrics_spec = cli::parse_metrics(cli.str("metrics"));
    // QUAD itself shards its access stream, so auto only needs the host
    // check; -trace adds a second lane.
    const unsigned consumer_lanes = 1u + (cli.str("trace").empty() ? 0u : 1u);
    const session::PipelineOptions pipeline =
        cli::resolve_pipeline(cli.str("pipeline"), consumer_lanes,
                              /*has_sharded_consumer=*/true);
    const tquad::LibraryPolicy policy = cli::parse_policy(cli.str("libs"));
    if (cli.str("image").empty()) {
      std::fprintf(stderr, "%s", cli.help().c_str());
      return 2;
    }
    const vm::Program program =
        vm::Program::deserialize(cli::read_file(cli.str("image")));
    vm::HostEnv host;
    if (!cli.str("in").empty()) host.attach_input(cli::read_file(cli.str("in")));
    host.create_output();

    // One guest execution feeds both the analysis and the optional trace
    // recorder through the shared attribution pass.
    metrics::Registry registry;
    session::SessionConfig config;
    config.library_policy = policy;
    config.instruction_budget = static_cast<std::uint64_t>(cli.integer("budget"));
    config.engine = engine;
    config.pipeline = pipeline;
    if (metrics_spec.enabled) config.metrics = &registry;
    config.heartbeat_interval = heartbeat;
    // Graceful ^C: the engine stops at the next run head or instruction, every
    // consumer flushes (the recorder finalizes its trace), and the reports
    // stamp INTERRUPTED.
    cli::install_interrupt_handler();
    config.interrupt = &cli::g_interrupt;
    session::ProfileSession profile(program, config);
    quad::QuadTool tool(program, quad::QuadOptions{policy});
    profile.add_consumer(tool);
    std::optional<trace::TraceRecorder> recorder;
    if (!cli.str("trace").empty()) {
      recorder.emplace(program, policy);
      profile.add_consumer(*recorder);
    }
    const vm::RunOutcome outcome = profile.run_live(host);
    if (outcome.status == vm::RunStatus::kTrapped &&
        cli.str("on-trap") == "abort") {
      std::fprintf(stderr, "quad: %s\n", outcome.summary().c_str());
      return 3;
    }
    cli::print_outcome_status(outcome);

    const TextTable table = cli::quad_kernel_table(tool);
    std::fputs(table.to_ascii().c_str(), stdout);
    std::printf("\n%zu producer->consumer bindings\n", tool.bindings().size());

    if (!cli.str("buffers").empty()) {
      const std::string filter =
          cli.str("buffers") == "all" ? "" : cli.str("buffers");
      std::printf("\n== buffer data maps (stack excluded) ==\n%s",
                  quad::buffer_table(tool, program, filter).to_ascii().c_str());
    }
    if (cli.integer("clusters") > 0) {
      cluster::ClusterOptions cluster_options;
      cluster_options.target_clusters =
          static_cast<std::size_t>(cli.integer("clusters"));
      const auto clustering = cluster::cluster_kernels(tool, cluster_options);
      std::printf("\n== task clustering ==\n%s",
                  cluster::describe_clustering(tool, clustering).c_str());
    }
    if (!cli.str("dot").empty()) {
      cli::write_text(cli.str("dot"), tool.qdu_graph_dot());
      std::printf("QDU graph written to %s\n", cli.str("dot").c_str());
    }
    if (!cli.str("csv").empty()) {
      cli::write_text(cli.str("csv"), table.to_csv());
    }
    if (recorder.has_value()) {
      cli::write_file(cli.str("trace"), recorder->take_encoded());
      std::printf("trace written to %s (v2)\n", cli.str("trace").c_str());
    }
    // Metrics come last, never interleaved with the reports above.
    if (metrics_spec.enabled) {
      tool.publish_metrics(registry);
      if (recorder.has_value()) recorder->publish_metrics(registry);
      cli::emit_metrics(registry, metrics_spec);
    }
    return cli::outcome_exit_code(outcome);
  } catch (const UsageError& err) {
    std::fprintf(stderr, "quad: %s\n", err.what());
    return 2;
  } catch (const Error& err) {
    std::fprintf(stderr, "quad: %s\n", err.what());
    return 1;
  }
}
