// Helpers shared by the command-line tools (tquad_cli, quad_cli): file I/O,
// flag parsing/validation, and report fragments used by more than one tool.
#pragma once

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "quad/quad_tool.hpp"
#include "session/pipeline.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/table.hpp"
#include "tquad/callstack.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "vm/engine.hpp"
#include "vm/run_outcome.hpp"

namespace tq::cli {

/// The graceful-shutdown flag the engines poll (vm::GuestEngine /
/// session::SessionConfig interrupt plumbing). Set to 1 by the first
/// SIGINT/SIGTERM; the handler is installed with SA_RESETHAND, so a second
/// signal falls back to the default disposition and kills the process — an
/// escape hatch if the graceful path itself wedges.
inline volatile std::sig_atomic_t g_interrupt = 0;

/// Install the graceful SIGINT/SIGTERM handler. Call once, before the run;
/// wire `&g_interrupt` into SessionConfig::interrupt. The run then ends with
/// RunStatus::kInterrupted: reports stamp INTERRUPTED, recorders finalize
/// (the pre-interrupt trace replays, like pre-trap traces do), and the tool
/// exits 4.
inline void install_interrupt_handler() {
  struct sigaction action {};
  action.sa_handler = [](int) { g_interrupt = 1; };
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

inline std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) TQUAD_THROW("cannot open '" + path + "'");
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

inline void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) TQUAD_THROW("cannot write '" + path + "'");
  out << text;
}

inline void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) TQUAD_THROW("cannot write '" + path + "'");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

inline tquad::LibraryPolicy parse_policy(const std::string& name) {
  if (name == "exclude") return tquad::LibraryPolicy::kExclude;
  if (name == "caller") return tquad::LibraryPolicy::kAttributeToCaller;
  if (name == "track") return tquad::LibraryPolicy::kTrack;
  TQUAD_THROW("unknown -libs policy '" + name + "' (exclude|caller|track)");
}

/// Validate that an integer flag holds a strictly positive value; clear
/// error at parse time instead of undefined behaviour downstream (a zero
/// slice interval would divide by zero, a zero sample period never sample).
inline void require_positive(const CliParser& cli, const std::string& name) {
  if (cli.integer(name) <= 0) {
    TQUAD_THROW("option -" + name + " must be a positive integer (got " +
                std::to_string(cli.integer(name)) + ")");
  }
}

/// Validate that a real flag holds a finite, strictly positive value: a
/// zero, negative, nan or inf clock rate or CPI would turn every time and
/// bandwidth figure into inf, nan or a negative number.
inline void require_positive_real(const CliParser& cli, const std::string& name) {
  const double value = cli.real(name);
  if (!std::isfinite(value) || value <= 0) {
    char text[32];
    std::snprintf(text, sizeof text, "%g", value);
    TQUAD_THROW("option -" + name + " must be a positive finite number (got " +
                text + ")");
  }
}

inline void require_non_negative(const CliParser& cli, const std::string& name) {
  if (cli.integer(name) < 0) {
    TQUAD_THROW("option -" + name + " must not be negative (got " +
                std::to_string(cli.integer(name)) + ")");
  }
}

/// The `-heartbeat N` flag in retired instructions (N million; 0 = off).
/// N must not be negative, and N x 10^6 must fit in 64 bits.
inline std::uint64_t heartbeat_interval(const CliParser& cli) {
  constexpr std::uint64_t kPerUnit = 1'000'000;
  constexpr std::int64_t kMax =
      static_cast<std::int64_t>(UINT64_MAX / kPerUnit);  // 18446744073709
  require_non_negative(cli, "heartbeat");
  if (cli.integer("heartbeat") > kMax) {
    TQUAD_THROW("option -heartbeat must be at most " + std::to_string(kMax) +
                " (got " + std::to_string(cli.integer("heartbeat")) + ")");
  }
  return static_cast<std::uint64_t>(cli.integer("heartbeat")) * kPerUnit;
}

/// Parse the `-engine` flag: `compiled` (the threaded-dispatch engine,
/// the default) or `interp` (the reference interpreter). Reports
/// are byte-identical either way; unknown names are usage errors (exit 2).
inline vm::EngineKind parse_engine(const std::string& name) {
  if (name == "compiled") return vm::EngineKind::kCompiled;
  if (name == "interp") return vm::EngineKind::kInterp;
  throw UsageError("unknown -engine '" + name + "' (interp|compiled)");
}

/// Validate the `-on-trap` flag (what to do when the guest faults).
inline void validate_on_trap(const std::string& mode) {
  if (mode != "report" && mode != "abort") {
    TQUAD_THROW("unknown -on-trap mode '" + mode + "' (report|abort)");
  }
}

/// Parse the `-pipeline` flag: `serial` (the default reference
/// implementation), `parallel[:N]` (one drain thread per event ring, with N
/// QUAD page shards; N omitted = hardware concurrency, capped at 16), or
/// `auto`. For `auto` this only validates — it returns serial; the real
/// decision needs to know how many consumer lanes the run will attach,
/// which isn't known at flag-validation time. The run path calls
/// resolve_pipeline() with that count. Malformed specs — including an
/// explicit count of 0, which would otherwise silently fall through to the
/// hardware-concurrency default — raise UsageError, which the CLIs map to
/// exit code 2.
inline session::PipelineOptions parse_pipeline(const std::string& spec) {
  session::PipelineOptions options;
  if (spec == "serial" || spec == "auto") return options;
  const std::string kParallel = "parallel";
  if (spec.compare(0, kParallel.size(), kParallel) == 0) {
    options.mode = session::PipelineMode::kParallel;
    if (spec.size() == kParallel.size()) return options;
    if (spec[kParallel.size()] == ':') {
      const std::string count = spec.substr(kParallel.size() + 1);
      if (!count.empty() &&
          count.find_first_not_of("0123456789") == std::string::npos &&
          count.size() <= 4) {
        const unsigned long workers = std::stoul(count);
        if (workers > 0) {
          options.workers = static_cast<unsigned>(workers);
          return options;
        }
      }
      throw UsageError("bad -pipeline worker count '" + count +
                       "' (parallel:N needs a small positive integer)");
    }
  }
  throw UsageError("unknown -pipeline mode '" + spec +
                   "' (serial|parallel[:N]|auto)");
}

/// Resolve `-pipeline auto` into a real mode, consumer-aware. Parallel pays
/// for itself only when the drain work can actually spread out: it needs a
/// capable host (>= 4 hardware threads, the floor the perf contract is
/// benchmarked on) AND either several consumer lanes or a shardable tool
/// (QUAD splits its access stream across shard rings). With one unshardable
/// lane the publisher copies the whole event stream to a single drain thread
/// that then does exactly the serial work — pure overhead — so auto picks
/// serial and says why on stderr (graceful degradation should be visible, not
/// silent). Explicit serial/parallel specs pass through untouched. Call
/// once, on the run path, after the tool set is known.
inline session::PipelineOptions resolve_pipeline(const std::string& spec,
                                                 unsigned consumer_lanes,
                                                 bool has_sharded_consumer) {
  session::PipelineOptions options = parse_pipeline(spec);
  if (spec != "auto") return options;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 4) {
    std::fprintf(stderr,
                 "note: -pipeline auto selected serial (%u hardware threads; "
                 "parallel needs >= 4)\n",
                 hw);
    return options;
  }
  if (consumer_lanes < 2 && !has_sharded_consumer) {
    std::fprintf(stderr,
                 "note: -pipeline auto selected serial (%u consumer lane%s, "
                 "none shardable; parallel would be pure transport overhead)\n",
                 consumer_lanes, consumer_lanes == 1 ? "" : "s");
    return options;
  }
  options.mode = session::PipelineMode::kParallel;
  return options;
}

/// The `-metrics` flag: off by default, `text` or `json`, optionally with a
/// `:path` destination (`-metrics json:run_metrics.json`). Without a path
/// the rendering goes to stdout strictly *after* every report, so report
/// bytes are unchanged whether metrics are on or off.
struct MetricsSpec {
  bool enabled = false;
  bool json = false;
  std::string path;  ///< empty = stdout
};

inline MetricsSpec parse_metrics(const std::string& spec) {
  MetricsSpec metrics;
  if (spec.empty()) return metrics;
  std::string format = spec;
  const std::size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    format = spec.substr(0, colon);
    metrics.path = spec.substr(colon + 1);
    if (metrics.path.empty()) {
      throw UsageError("empty -metrics path in '" + spec +
                       "' (text|json[:path])");
    }
  }
  if (format == "text") {
    metrics.enabled = true;
  } else if (format == "json") {
    metrics.enabled = true;
    metrics.json = true;
  } else {
    throw UsageError("unknown -metrics format '" + format +
                     "' (text|json[:path])");
  }
  return metrics;
}

/// Emit the registry per the spec. Must be the last output of a run: with
/// no path, the text rendering goes to stdout under a `== metrics ==`
/// separator (JSON goes raw, as the trailing object).
inline void emit_metrics(const metrics::Registry& registry,
                         const MetricsSpec& spec) {
  if (!spec.enabled) return;
  const std::string body =
      spec.json ? registry.render_json() : registry.render_text();
  if (!spec.path.empty()) {
    write_text(spec.path, body);
    return;
  }
  if (!spec.json) std::printf("== metrics ==\n");
  std::fputs(body.c_str(), stdout);
}

/// The `-viz` flag: off by default, `json`, optionally with a `:path`
/// destination (`-viz json:map.json`). The address-map heatmap renders
/// after every report — with a path only a `written to` stamp joins the
/// stdout stream, so report bytes are unchanged whether -viz is on or off.
struct VizSpec {
  bool enabled = false;
  std::string path;  ///< empty = stdout
};

inline VizSpec parse_viz(const std::string& spec) {
  VizSpec viz;
  if (spec.empty()) return viz;
  std::string format = spec;
  const std::size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    format = spec.substr(0, colon);
    viz.path = spec.substr(colon + 1);
    if (viz.path.empty()) {
      throw UsageError("empty -viz path in '" + spec + "' (json[:path])");
    }
  }
  if (format != "json") {
    throw UsageError("unknown -viz format '" + format + "' (json[:path])");
  }
  viz.enabled = true;
  return viz;
}

/// Emit the rendered address map per the spec (after the reports, before
/// -metrics, which stays the strictly-last output).
inline void emit_viz(const std::string& body, const VizSpec& spec) {
  if (!spec.enabled) return;
  if (!spec.path.empty()) {
    write_text(spec.path, body);
    std::printf("address map written to %s\n", spec.path.c_str());
    return;
  }
  std::fputs(body.c_str(), stdout);
}

/// Exit code for a finished run: 3 flags a guest trap and 4 a
/// SIGINT/SIGTERM interruption (distinct from tool errors = 1 and usage
/// errors = 2); a budget cut is a graceful 0.
inline int outcome_exit_code(const vm::RunOutcome& outcome) {
  if (outcome.status == vm::RunStatus::kTrapped) return 3;
  if (outcome.status == vm::RunStatus::kInterrupted) return 4;
  return 0;
}

/// Stamp non-clean outcomes above the reports so a reader (or a script
/// grepping the output) cannot mistake a prefix profile for a full run.
inline void print_outcome_status(const vm::RunOutcome& outcome) {
  switch (outcome.status) {
    case vm::RunStatus::kHalted:
      break;
    case vm::RunStatus::kTrapped:
      std::printf("status: PARTIAL (%s)\n", outcome.summary().c_str());
      break;
    case vm::RunStatus::kTruncated:
      std::printf("status: TRUNCATED (%s)\n", outcome.summary().c_str());
      break;
    case vm::RunStatus::kInterrupted:
      std::printf("status: INTERRUPTED (%s)\n", outcome.summary().c_str());
      break;
  }
}

/// Salvage counters into the registry under trace.salvage.* names.
inline void publish_salvage_metrics(metrics::Registry& registry,
                                    const trace::SalvageReport& report) {
  registry.add("trace.salvage.blocks_found", report.blocks_found);
  registry.add("trace.salvage.blocks_recovered", report.blocks_recovered);
  registry.add("trace.salvage.blocks_dropped", report.dropped.size());
  registry.add("trace.salvage.records_recovered", report.records_recovered);
  registry.add("trace.salvage.records_dropped", report.records_dropped);
  registry.add("trace.salvage.index_rebuilt", report.index_rebuilt ? 1 : 0);
}

/// Human summary of a salvage pass over a damaged v2 trace.
inline void print_salvage_report(const trace::SalvageReport& report) {
  std::printf("salvage: recovered %zu of %zu blocks (%llu records kept, "
              "%llu dropped)%s\n",
              report.blocks_recovered, report.blocks_found,
              static_cast<unsigned long long>(report.records_recovered),
              static_cast<unsigned long long>(report.records_dropped),
              report.index_rebuilt ? "; index rebuilt from block headers" : "");
  for (const auto& dropped : report.dropped) {
    std::printf("salvage: dropped block %zu at offset %llu (%s)\n",
                dropped.index,
                static_cast<unsigned long long>(dropped.file_offset),
                dropped.reason.c_str());
  }
}

/// Which profilers a multi-tool session runs (the `-tools` flag).
struct ToolSet {
  bool tquad = false;
  bool quad = false;
  bool gprof = false;

  bool any() const noexcept { return tquad || quad || gprof; }
};

/// Parse a comma-separated `-tools` list: any subset of tquad,quad,gprof.
inline ToolSet parse_tools(const std::string& spec) {
  ToolSet tools;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string name = spec.substr(begin, end - begin);
    if (name == "tquad") {
      tools.tquad = true;
    } else if (name == "quad") {
      tools.quad = true;
    } else if (name == "gprof") {
      tools.gprof = true;
    } else {
      TQUAD_THROW("unknown tool '" + name +
                  "' in -tools (comma-separated subset of tquad,quad,gprof)");
    }
    begin = end + 1;
  }
  return tools;
}

/// The Table II kernel table of a finished QUAD run (shared by quad_cli and
/// tquad_cli's multi-tool mode).
inline TextTable quad_kernel_table(const quad::QuadTool& tool) {
  TextTable table({"kernel", "IN ex", "INunma ex", "OUT ex", "OUTunma ex",
                   "IN in", "INunma in", "OUT in", "OUTunma in"});
  for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
    if (!tool.reported(k)) continue;
    const auto& ex = tool.excluding_stack(k);
    const auto& in = tool.including_stack(k);
    if (in.in_bytes == 0 && in.out_unma.count() == 0) continue;  // silent
    table.add_row({tool.kernel_name(k), format_count(ex.in_bytes),
                   format_count(ex.in_unma.count()), format_count(ex.out_bytes),
                   format_count(ex.out_unma.count()), format_count(in.in_bytes),
                   format_count(in.in_unma.count()), format_count(in.out_bytes),
                   format_count(in.out_unma.count())});
  }
  return table;
}

}  // namespace tq::cli
