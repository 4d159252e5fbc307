// tquad: the command-line profiler, the shape in which the paper's tool
// actually shipped (a pintool with knobs for the time-slice interval, the
// stack-area option, and library exclusion — Section IV-C).
//
//   tquad -image app.tqim [-in file]... [-slice N] [-libs track|exclude|caller]
//         [-tools tquad,quad,gprof] [-report flat|bandwidth|phases|series|all]
//         [-csv out.csv] [-trace out.tqtr]
//         [-sample N] [-cpu-ghz G -cpi C] [-budget N] [-on-trap report|abort]
//         [-engine interp|compiled] [-pipeline serial|parallel[:N]|auto]
//         [-metrics text|json[:path]] [-viz json[:path] [-viz-bucket B]]
//         [-heartbeat N]
//   tquad -replay run.tqtr [-image app.tqim] [-slice N] [-threads T] [-salvage]
//   tquad -replay run.tqtr -image app.tqim -tools tquad,quad,gprof [-salvage]
//
// The image is a TQIM file (produce one with wfs_gen or Program::serialize);
// -in attaches input files as guest descriptors in order; one output
// descriptor is always appended after the inputs.
//
// All profiling goes through one ProfileSession: the guest executes ONCE and
// every tool selected with -tools (plus the -trace recorder) consumes the
// same attributed event stream — the paper needed a separate execution per
// tool. -replay aggregates a recorded TQTR v2 trace offline instead of
// running a guest: without -tools it prints the per-kernel bandwidth totals,
// aggregating whole blocks on up to -threads threads under the recorded kernel
// attribution (-image is only needed for kernel names); with -tools it
// replays the trace through the same session machinery and produces the
// full reports (requires -image). Other trace versions are rejected (exit 1).
// -in, -out and -trace act on a live guest, so -replay refuses them; -csv
// needs tquad in a session. Each refusal exits 1 before any file is read.
//
// Fault tolerance: a guest trap does not discard the run. Under the default
// -on-trap report the tool emits every report stamped `status: PARTIAL`,
// still writes -trace/-csv/-out, and exits 3; -on-trap abort prints the trap
// and exits 3 with no reports. -budget exhaustion stamps `status: TRUNCATED`
// and exits 0. -salvage replays damaged traces block-by-block, skipping
// blocks whose CRC or structure check fails. SIGINT/SIGTERM stop the run
// gracefully: reports stamp INTERRUPTED, a -trace recording finalizes (the
// pre-interrupt prefix replays, as pre-trap traces do), and the tool exits
// 4; a second signal kills immediately. Exit codes: 0 ok/truncated, 1 tool
// error, 2 usage error, 3 guest trap, 4 interrupted.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/ascii_chart.hpp"
#include "support/cli.hpp"
#include "support/parallel_for.hpp"
#include "support/table.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "tquad/address_map.hpp"
#include "tquad/phase.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"

#include "cli_common.hpp"

namespace {

using namespace tq;
using cli::read_file;
using cli::write_file;
using cli::write_text;

/// -replay starts one thread per trace block, up to -threads.
constexpr std::int64_t kMaxReplayThreads = 256;

/// Flag coherence checks, before any file I/O. Returns the -tools selection
/// (tquad when none is given).
cli::ToolSet validate_options(const CliParser& cli) {
  cli::require_positive(cli, "slice");
  cli::require_positive(cli, "sample");
  cli::require_positive(cli, "threads");
  if (cli.integer("threads") > kMaxReplayThreads) {
    throw UsageError("option -threads must be at most " +
                     std::to_string(kMaxReplayThreads) + " (got " +
                     std::to_string(cli.integer("threads")) + ")");
  }
  cli::require_positive(cli, "budget");
  (void)cli::parse_policy(cli.str("libs"));
  cli::validate_on_trap(cli.str("on-trap"));
  (void)cli::parse_engine(cli.str("engine"));
  (void)cli::parse_pipeline(cli.str("pipeline"));
  (void)cli::parse_metrics(cli.str("metrics"));
  (void)cli::parse_viz(cli.str("viz"));
  cli::require_positive(cli, "viz-bucket");
  (void)cli::heartbeat_interval(cli);
  cli::require_positive_real(cli, "cpu-ghz");
  cli::require_positive_real(cli, "cpi");
  const bool replaying = !cli.str("replay").empty();
  // A live run and -replay with -tools drive a profiling session; plain
  // -replay only aggregates the trace's bandwidth.
  const bool session = !replaying || !cli.str("tools").empty();
  if (cli.flag("salvage") && !replaying) {
    TQUAD_THROW("-salvage only applies to -replay");
  }
  if (!cli.str("viz").empty() && !session) {
    throw UsageError(
        "-viz needs a profiling session (a live run, or -replay with -tools)");
  }
  const std::string& report = cli.str("report");
  if (report != "flat" && report != "bandwidth" && report != "phases" &&
      report != "series" && report != "all") {
    TQUAD_THROW("unknown -report '" + report +
                "' (flat|bandwidth|phases|series|all)");
  }
  const cli::ToolSet tools =
      cli::parse_tools(cli.str("tools").empty() ? "tquad" : cli.str("tools"));
  if (!cli.str("csv").empty() && !(session && tools.tquad)) {
    TQUAD_THROW(session ? "-csv writes the tquad flat profile; add tquad to -tools"
                        : "-csv writes the tquad flat profile of a session; plain -replay "
                          "has none (use -replay with -tools tquad)");
  }
  if (replaying) {
    // Flags that act on a live guest have nothing to act on in a replay.
    for (const char* live_only : {"trace", "in", "out"}) {
      if (!cli.str(live_only).empty()) {
        TQUAD_THROW("-" + std::string(live_only) +
                    " acts on a live run and cannot be combined with -replay");
      }
    }
    if (!cli.str("tools").empty() && cli.str("image").empty()) {
      TQUAD_THROW("-replay with -tools needs -image for program context");
    }
  }
  return tools;
}

/// Offline -replay mode: aggregate a recorded TQTR file and print a
/// per-kernel totals table. The blocks split over up to -threads threads,
/// never more than one per block; their partial series fold back with
/// KernelBandwidth::merge.
int replay_trace(const CliParser& cli) {
  const auto bytes = read_file(cli.str("replay"));
  const auto slice = static_cast<std::uint64_t>(cli.integer("slice"));
  const auto threads = static_cast<unsigned>(cli.integer("threads"));
  const cli::MetricsSpec metrics_spec = cli::parse_metrics(cli.str("metrics"));
  metrics::Registry registry;

  trace::SalvageReport salvage_report;
  const trace::TraceV2View view =
      cli.flag("salvage") ? trace::TraceV2View::salvage(bytes, &salvage_report)
                          : trace::TraceV2View::open(bytes);
  if (cli.flag("salvage")) {
    cli::print_salvage_report(salvage_report);
    cli::publish_salvage_metrics(registry, salvage_report);
  }
  const std::uint32_t kernel_count = view.kernel_count();
  const std::uint64_t record_count = view.record_count();
  const std::uint64_t total_retired = view.total_retired();

  std::vector<tquad::BandwidthRecorder> shards(
      parallel_blocks(threads, 0, view.block_count()),
      tquad::BandwidthRecorder(kernel_count, slice));
  parallel_for_blocks(threads, 0, view.block_count(),
                      [&](std::uint64_t lo, std::uint64_t hi, unsigned shard) {
                        trace::aggregate_blocks(view, lo, hi, shards[shard]);
                      });
  std::vector<tquad::KernelBandwidth> kernels(kernel_count);
  std::uint64_t max_slice = 0;
  for (tquad::BandwidthRecorder& shard : shards) {
    shard.finish();
    max_slice = std::max(max_slice, shard.max_slice());
    for (std::uint32_t k = 0; k < kernel_count; ++k) kernels[k].merge(shard.kernel(k));
  }

  // Kernel names come from the image when given; indices otherwise.
  std::vector<std::string> names(kernel_count);
  for (std::uint32_t k = 0; k < kernel_count; ++k) names[k] = "k" + std::to_string(k);
  if (!cli.str("image").empty()) {
    const vm::Program program = vm::Program::deserialize(read_file(cli.str("image")));
    for (std::uint32_t k = 0; k < kernel_count && k < program.functions().size(); ++k) {
      names[k] = program.functions()[k].name;
    }
  }

  std::printf("replayed v2 trace: %llu events, %llu retired, %llu slices at interval %llu\n\n",
              static_cast<unsigned long long>(record_count),
              static_cast<unsigned long long>(total_retired),
              static_cast<unsigned long long>(max_slice + 1),
              static_cast<unsigned long long>(slice));
  TextTable table({"kernel", "read incl", "write incl", "read excl",
                   "write excl", "active slices"});
  for (std::uint32_t k = 0; k < kernel_count; ++k) {
    const auto& totals = kernels[k].totals;
    if (totals.read_incl == 0 && totals.write_incl == 0) continue;
    table.add_row({names[k], format_bytes(totals.read_incl),
                   format_bytes(totals.write_incl), format_bytes(totals.read_excl),
                   format_bytes(totals.write_excl),
                   std::to_string(kernels[k].active_slices())});
  }
  std::printf("%s\n", table.to_ascii().c_str());
  if (metrics_spec.enabled) {
    registry.add("trace.read.bytes", bytes.size());
    registry.add("trace.read.records", record_count);
    registry.set_gauge("session.retired", total_retired);
    registry.set_gauge("tquad.slices", max_slice + 1);
    cli::emit_metrics(registry, metrics_spec);
  }
  return 0;
}

/// Single-pass profiling: one ProfileSession feeds every selected tool from
/// one guest execution (or one trace replay).
int run_profile(const CliParser& cli, const cli::ToolSet& tools) {
  const tquad::LibraryPolicy policy = cli::parse_policy(cli.str("libs"));
  const vm::Program program = vm::Program::deserialize(read_file(cli.str("image")));
  const bool replaying = !cli.str("replay").empty();

  const cli::MetricsSpec metrics_spec = cli::parse_metrics(cli.str("metrics"));
  const cli::VizSpec viz_spec = cli::parse_viz(cli.str("viz"));
  metrics::Registry registry;
  session::SessionConfig config;
  config.library_policy = policy;
  config.instruction_budget = static_cast<std::uint64_t>(cli.integer("budget"));
  config.engine = cli::parse_engine(cli.str("engine"));
  // -pipeline auto is consumer-aware: count the lanes this invocation will
  // attach (tools, recorder, address map) and whether any of them shards
  // its access stream (QUAD does) before committing to parallel transport.
  const unsigned consumer_lanes =
      static_cast<unsigned>(tools.tquad) + static_cast<unsigned>(tools.quad) +
      static_cast<unsigned>(tools.gprof) +
      static_cast<unsigned>(!cli.str("trace").empty()) +
      static_cast<unsigned>(!cli.str("viz").empty());
  config.pipeline = cli::resolve_pipeline(cli.str("pipeline"), consumer_lanes,
                                          /*has_sharded_consumer=*/tools.quad);
  if (metrics_spec.enabled) config.metrics = &registry;
  config.heartbeat_interval = cli::heartbeat_interval(cli);
  // Graceful ^C: the engines stop at the next run head or instruction, every
  // consumer flushes (the recorder finalizes its trace), reports stamp
  // INTERRUPTED, and the tool exits 4.
  cli::install_interrupt_handler();
  config.interrupt = &cli::g_interrupt;
  session::ProfileSession profile(program, config);

  std::optional<tquad::TQuadTool> tquad_tool;
  std::optional<quad::QuadTool> quad_tool;
  std::optional<gprof::GprofTool> gprof_tool;
  std::optional<trace::TraceRecorder> recorder;
  if (tools.tquad) {
    tquad::Options options;
    options.slice_interval = static_cast<std::uint64_t>(cli.integer("slice"));
    options.library_policy = policy;
    tquad_tool.emplace(program, options);
    profile.add_consumer(*tquad_tool);
  }
  if (tools.quad) {
    quad_tool.emplace(program, quad::QuadOptions{policy});
    profile.add_consumer(*quad_tool);
  }
  if (tools.gprof) {
    gprof::Options options;
    options.sample_period = static_cast<std::uint64_t>(cli.integer("sample"));
    options.clock_ghz = cli.real("cpu-ghz");
    options.ipc = 1.0 / cli.real("cpi");
    options.library_policy = policy;
    gprof_tool.emplace(program, options);
    profile.add_consumer(*gprof_tool);
  }
  if (!cli.str("trace").empty()) {
    recorder.emplace(program, policy);
    profile.add_consumer(*recorder);
  }
  std::optional<tquad::AddressMapTool> address_map;
  if (viz_spec.enabled) {
    tquad::AddressMapOptions options;
    options.slice_interval = static_cast<std::uint64_t>(cli.integer("slice"));
    options.bucket_bytes = static_cast<std::uint64_t>(cli.integer("viz-bucket"));
    address_map.emplace(program, options);
    profile.add_consumer(*address_map);
  }

  vm::HostEnv host;
  int out_fd = -1;
  std::size_t replay_bytes = 0;
  vm::RunOutcome outcome;
  if (replaying) {
    const auto trace_bytes = read_file(cli.str("replay"));
    replay_bytes = trace_bytes.size();
    outcome = profile.replay(trace_bytes, cli.flag("salvage"));
  } else {
    if (!cli.str("in").empty()) host.attach_input(read_file(cli.str("in")));
    out_fd = host.create_output();
    outcome = profile.run_live(host);
  }
  if (outcome.status == vm::RunStatus::kTrapped &&
      cli.str("on-trap") == "abort") {
    std::fprintf(stderr, "tquad: %s\n", outcome.summary().c_str());
    return 3;
  }
  cli::print_outcome_status(outcome);
  if (replaying && cli.flag("salvage")) {
    cli::print_salvage_report(profile.salvage_report());
  }
  if (replaying) std::printf("replayed session: ");
  const std::uint64_t retired = outcome.retired;

  const std::string report = cli.str("report");
  if (tools.tquad) {
    std::printf("retired %s instructions; %llu time slices at interval %llu\n\n",
                format_count(retired).c_str(),
                static_cast<unsigned long long>(tquad_tool->bandwidth().max_slice() + 1),
                static_cast<unsigned long long>(
                    tquad_tool->options().slice_interval));
    if (report == "flat" || report == "all") {
      std::printf("== flat profile ==\n%s\n",
                  tquad::flat_profile_table(*tquad_tool).to_ascii().c_str());
    }
    if (report == "bandwidth" || report == "all") {
      tquad::CpuModel model;
      model.clock_ghz = cli.real("cpu-ghz");
      model.cpi = cli.real("cpi");
      std::printf("== bandwidth (at %.2f GHz, CPI %.2f) ==\n%s\n", model.clock_ghz,
                  model.cpi,
                  tquad::bandwidth_table(*tquad_tool, model).to_ascii().c_str());
    }
    if (report == "phases" || report == "all") {
      const auto phases = tquad::detect_phases(*tquad_tool);
      std::printf("== phases ==\n%s\n",
                  tquad::describe_phases(*tquad_tool, phases).c_str());
    }
    if (report == "series" || report == "all") {
      std::vector<ChartSeries> series;
      for (const auto& row : tquad::flat_profile(*tquad_tool)) {
        if (series.size() == 12) break;
        series.push_back(ChartSeries{
            row.name, tquad::dense_series(*tquad_tool, row.kernel,
                                          tquad::Metric::kReadWriteIncl)});
      }
      std::printf("== activity (read+write bytes per slice) ==\n%s\n",
                  render_heat_strips(series).c_str());
    }
  } else {
    std::printf("retired %s instructions\n\n", format_count(retired).c_str());
  }
  if (tools.quad) {
    std::printf("== quad kernel table (Table II) ==\n%s",
                cli::quad_kernel_table(*quad_tool).to_ascii().c_str());
    std::printf("\n%zu producer->consumer bindings\n\n",
                quad_tool->bindings().size());
  }
  if (tools.gprof) {
    std::printf("== gprof flat profile (sample period %llu) ==\n%s\n",
                static_cast<unsigned long long>(cli.integer("sample")),
                gprof_tool->flat_profile_table().to_ascii().c_str());
  }
  if (!cli.str("csv").empty()) {
    write_text(cli.str("csv"), tquad::flat_profile_table(*tquad_tool).to_csv());
  }
  if (recorder.has_value()) {
    write_file(cli.str("trace"), recorder->take_encoded());
    std::printf("trace written to %s (v2)\n", cli.str("trace").c_str());
  }
  if (out_fd >= 0 && !cli.str("out").empty()) {
    write_file(cli.str("out"), host.output(out_fd));
    std::printf("guest output written to %s\n", cli.str("out").c_str());
  }
  // The address map rides after every report (and before the metrics that
  // must stay the strictly-last output).
  if (address_map.has_value()) {
    cli::emit_viz(address_map->render_json(), viz_spec);
  }
  // Metrics are the very last output: the session published its event and
  // pipeline counters at the end of run(); the tool-side numbers join here,
  // and the rendering never interleaves with the reports above.
  if (metrics_spec.enabled) {
    if (quad_tool.has_value()) quad_tool->publish_metrics(registry);
    if (recorder.has_value()) recorder->publish_metrics(registry);
    if (replaying) {
      registry.add("trace.read.bytes", replay_bytes);
      if (cli.flag("salvage")) {
        cli::publish_salvage_metrics(registry, profile.salvage_report());
      }
    }
    cli::emit_metrics(registry, metrics_spec);
  }
  return cli::outcome_exit_code(outcome);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("tquad: temporal memory-bandwidth profiler for TQIM guest images");
  cli.add_string("image", "", "guest image (TQIM) to profile [required]");
  cli.add_string("in", "", "input file to attach as a guest descriptor");
  cli.add_int("slice", 5000, "time slice interval in instructions");
  cli.add_string("libs", "exclude",
                 "library/OS routine policy: exclude | caller | track");
  cli.add_string("tools", "",
                 "profilers sharing the single pass: comma-separated subset of "
                 "tquad,quad,gprof (default tquad; with -replay, enables "
                 "session replay of full profiles)");
  cli.add_string("report", "all", "flat | bandwidth | phases | series | all");
  cli.add_string("csv", "", "write the flat profile as CSV to this path");
  cli.add_string("trace", "", "record the event trace (TQTR) to this path");
  cli.add_string("replay", "", "aggregate this TQTR file offline instead of running");
  cli.add_int("threads", 4,
              "-replay block-parallel aggregation: at most this many threads, "
              "one per trace block (1..256)");
  cli.add_int("sample", 10'000, "gprof sample period in instructions");
  cli.add_string("out", "", "write guest output descriptor 's contents here");
  cli.add_double("cpu-ghz", 2.83, "target clock for unit conversion");
  cli.add_double("cpi", 1.0, "target cycles-per-instruction");
  cli.add_int("budget", 2'000'000'000,
              "stop after this many instructions (reports stamp TRUNCATED)");
  cli.add_string("on-trap", "report",
                 "guest-fault handling: report (emit PARTIAL reports, exit 3) "
                 "| abort (print the trap and exit 3 with no reports)");
  cli.add_flag("salvage", false,
               "with -replay: skip corrupt/truncated trace blocks instead of "
               "failing, and report what was recovered");
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
  cli.add_string("viz", "",
                 "export the per-kernel address-map heatmap (address bucket x "
                 "time slice) after the reports: json, optionally :path "
                 "(e.g. json:map.json; default stdout)");
  cli.add_int("viz-bucket", 256, "address bucket granularity for -viz, in bytes");
  cli.add_int("heartbeat", 0,
              "print a progress pulse to stderr every N million retired "
              "instructions (0 = off; the final pulse carries the outcome)");
  try {
    cli.parse(argc, argv);
    const cli::ToolSet tools = validate_options(cli);
    // Plain -replay keeps the classic offline bandwidth aggregation;
    // -replay with -tools drives the full session machinery instead.
    if (!cli.str("replay").empty() && cli.str("tools").empty()) {
      return replay_trace(cli);
    }
    if (cli.str("image").empty()) {
      std::fprintf(stderr, "%s", cli.help().c_str());
      return 2;
    }
    return run_profile(cli, tools);
  } catch (const UsageError& err) {
    std::fprintf(stderr, "tquad: %s\n", err.what());
    return 2;
  } catch (const Error& err) {
    std::fprintf(stderr, "tquad: %s\n", err.what());
    return 1;
  }
}
