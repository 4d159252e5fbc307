// tquad_farm: fault-tolerant replay farm — a supervisor that fans TQTR
// replay jobs across worker processes and merges their results into a
// fleet-level bandwidth report.
//
//   tquad_farm -traces a.tqtr,b.tqtr -state state/
//              [-image app.tqim] [-shard-blocks N] [-slice N]
//              [-workers N] [-max-attempts K] [-timeout-ms T]
//              [-backoff-ms B] [-rss-mb M] [-seed S]
//              [-resume] [-out fleet.txt] [-metrics text|json[:path]]
//
// Each job is a whole TQTR v2 trace (replayed through the full analysis
// session when -image is given, its blocks aggregated under the recorded
// kernel attribution otherwise) or, with -shard-blocks, a block range of
// one, aggregated the same way; a trace of any other version fails its job.
// Jobs run in separate processes — a crash, hang (watchdog), or RLIMIT_AS
// blowout loses one attempt, not the farm — and are retried with
// exponential backoff before being quarantined with their captured stderr.
// Progress is journaled to `<state>/manifest.jsonl`; `-resume` re-runs
// only unfinished jobs and reproduces the identical merged report.
//
// The merged fleet report (stdout, and -out) depends only on the completed
// job set — never on retries, timing, or completion order.
//
// Exit codes: 0 all jobs merged, 1 tool error, 2 usage error,
// 3 degraded (some jobs quarantined), 4 interrupted (SIGINT/SIGTERM drain).
//
// The hidden `-worker` mode is the re-exec'd child: it replays exactly one
// job and writes a TQFS sidecar. `-chaos-*` flags inject deterministic
// worker failures (self-SIGKILL, hangs) for the chaos integration test.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "farm/fleet.hpp"
#include "farm/sidecar.hpp"
#include "farm/supervisor.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/atomic_file.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "tquad/tquad_tool.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"

#include "cli_common.hpp"

namespace {

using namespace tq;

// ---------------------------------------------------------------------------
// Worker mode

/// Deterministic failure injection: the draw depends only on
/// (chaos_seed, job, attempt), so a chaos run's schedule is reproducible
/// and the supervisor's "no chaos on the final attempt" guarantee makes
/// every healthy job eventually succeed.
void maybe_inject_chaos(std::uint64_t chaos_seed, std::uint32_t job_id,
                        unsigned attempt, double kill_p, double hang_p) {
  if (kill_p <= 0.0 && hang_p <= 0.0) return;
  SplitMix64 rng(chaos_seed ^ (job_id * 0x9E3779B97F4A7C15ull) ^ attempt);
  const double kill_draw = static_cast<double>(rng.next_below(1'000'000)) / 1e6;
  if (kill_draw < kill_p) ::raise(SIGKILL);
  const double hang_draw = static_cast<double>(rng.next_below(1'000'000)) / 1e6;
  if (hang_draw < hang_p) {
    for (;;) ::sleep(3600);  // until the watchdog SIGKILLs us
  }
}

farm::QuadCounts quad_counts(const quad::KernelCounters& counters) {
  farm::QuadCounts out;
  out.in_bytes = counters.in_bytes;
  out.in_unma = counters.in_unma.count();
  out.out_bytes = counters.out_bytes;
  out.out_unma = counters.out_unma.count();
  return out;
}

int run_worker(const CliParser& cli) {
  // Drain contract: a terminal ^C delivers SIGINT to the whole foreground
  // process group, but in-flight jobs are supposed to finish — the
  // supervisor escalates with SIGKILL when it really wants workers gone.
  std::signal(SIGINT, SIG_IGN);
  std::signal(SIGTERM, SIG_IGN);

  if (cli.str("trace").empty() || cli.str("sidecar").empty()) {
    throw UsageError("-worker needs -trace and -sidecar");
  }
  const auto job_id = static_cast<std::uint32_t>(cli.integer("job-id"));
  const auto attempt = static_cast<unsigned>(cli.integer("attempt"));
  maybe_inject_chaos(static_cast<std::uint64_t>(cli.integer("chaos-seed")),
                     job_id, attempt, cli.real("chaos-kill"),
                     cli.real("chaos-hang"));

  const std::uint64_t slice = static_cast<std::uint64_t>(cli.integer("slice"));
  const std::vector<std::uint8_t> bytes = cli::read_file(cli.str("trace"));
  const std::uint64_t block_lo = static_cast<std::uint64_t>(cli.integer("block-lo"));
  const std::uint64_t block_hi = static_cast<std::uint64_t>(cli.integer("block-hi"));

  farm::JobReport report;
  report.job_id = job_id;
  report.trace_path = cli.str("trace");
  report.slice_interval = slice;

  std::uint64_t records_fed = 0;
  if (!cli.str("image").empty() && block_hi <= block_lo) {
    // Whole trace through the full analysis session: bandwidth plus the
    // QUAD communication counters, with real kernel names.
    const vm::Program program =
        vm::Program::deserialize(cli::read_file(cli.str("image")));
    session::SessionConfig config;
    session::ProfileSession profile(program, config);
    tquad::Options options;
    options.slice_interval = slice;
    tquad::TQuadTool bandwidth(program, options);
    quad::QuadTool quad_tool(program, quad::QuadOptions{});
    profile.add_consumer(bandwidth);
    profile.add_consumer(quad_tool);
    (void)profile.replay(bytes, /*salvage=*/false);
    report.retired = bandwidth.total_retired();
    for (std::uint32_t k = 0; k < bandwidth.kernel_count(); ++k) {
      report.kernel_names.push_back(bandwidth.kernel_name(k));
      report.kernels.push_back(bandwidth.bandwidth().kernel(k));
      report.quad_excl.push_back(quad_counts(quad_tool.excluding_stack(k)));
      report.quad_incl.push_back(quad_counts(quad_tool.including_stack(k)));
    }
  } else {
    // A block range (-shard-blocks), or the whole trace without an image:
    // aggregate the blocks under the recorded kernel field. No image
    // needed — records are pre-attributed.
    const trace::TraceV2View view = trace::TraceV2View::open(bytes);
    std::uint64_t lo = 0;
    std::uint64_t hi = view.block_count();
    if (block_hi > block_lo) {
      report.whole = false;
      report.block_lo = lo = block_lo;
      report.block_hi = hi = block_hi;
    }
    tquad::BandwidthRecorder bandwidth(view.kernel_count(), slice);
    records_fed = trace::aggregate_blocks(view, lo, hi, bandwidth);
    bandwidth.finish();
    report.retired = hi == view.block_count() ? view.total_retired()
                                              : view.block(hi - 1).last_retired + 1;
    for (std::uint32_t k = 0; k < view.kernel_count(); ++k) {
      report.kernel_names.push_back("k" + std::to_string(k));
      report.kernels.push_back(bandwidth.kernel(k));
    }
  }

  report.metrics.push_back({"worker.retired", report.retired});
  if (records_fed > 0) {
    report.metrics.push_back({"worker.records", records_fed});
  }
  // Atomic: the supervisor treats sidecar existence after exit 0 as "the
  // whole result is here"; a worker killed mid-write must leave nothing.
  write_text_atomic(cli.str("sidecar"), farm::encode_sidecar(report));
  return 0;
}

// ---------------------------------------------------------------------------
// Supervisor mode

std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<farm::JobSpec> build_jobs(const std::vector<std::string>& traces,
                                      std::uint64_t shard_blocks) {
  std::vector<farm::JobSpec> jobs;
  for (const std::string& path : traces) {
    bool sharded = false;
    if (shard_blocks > 0) {
      // Probe the trace for its block count. A file we cannot even open as
      // v2 still becomes a whole job: the *worker* fails on it, and the
      // quarantine machinery — not the supervisor — owns poison inputs.
      try {
        const std::vector<std::uint8_t> bytes = cli::read_file(path);
        const trace::TraceV2View view = trace::TraceV2View::open(bytes);
        if (view.block_count() > shard_blocks) {
          for (std::uint64_t lo = 0; lo < view.block_count(); lo += shard_blocks) {
            farm::JobSpec spec;
            spec.id = static_cast<std::uint32_t>(jobs.size());
            spec.trace_path = path;
            spec.whole = false;
            spec.block_lo = lo;
            spec.block_hi =
                std::min<std::uint64_t>(lo + shard_blocks, view.block_count());
            jobs.push_back(spec);
          }
          sharded = true;
        }
      } catch (const Error&) {
        // fall through to a whole job
      }
    }
    if (!sharded) {
      farm::JobSpec spec;
      spec.id = static_cast<std::uint32_t>(jobs.size());
      spec.trace_path = path;
      jobs.push_back(spec);
    }
  }
  return jobs;
}

int run_supervisor(const CliParser& cli, const char* argv0) {
  if (cli.str("traces").empty()) {
    throw UsageError("missing -traces (comma-separated TQTR paths)");
  }
  if (cli.str("state").empty()) {
    throw UsageError("missing -state (checkpoint/state directory)");
  }
  cli::require_positive(cli, "slice");
  cli::require_positive(cli, "workers");
  cli::require_positive(cli, "max-attempts");
  cli::require_non_negative(cli, "timeout-ms");
  cli::require_positive(cli, "backoff-ms");
  cli::require_non_negative(cli, "rss-mb");
  cli::require_non_negative(cli, "shard-blocks");
  if (cli.real("chaos-kill") < 0.0 || cli.real("chaos-kill") >= 1.0 ||
      cli.real("chaos-hang") < 0.0 || cli.real("chaos-hang") >= 1.0) {
    throw UsageError("-chaos-kill/-chaos-hang must be in [0, 1)");
  }
  const cli::MetricsSpec metrics_spec = cli::parse_metrics(cli.str("metrics"));

  const std::vector<std::string> traces = split_commas(cli.str("traces"));
  if (traces.empty()) throw UsageError("-traces parsed to an empty list");

  farm::FarmOptions options;
  options.worker_exe = self_exe_path(argv0);
  options.image_path = cli.str("image");
  options.state_dir = cli.str("state");
  options.slice_interval = static_cast<std::uint64_t>(cli.integer("slice"));
  options.max_workers = static_cast<unsigned>(cli.integer("workers"));
  options.max_attempts = static_cast<unsigned>(cli.integer("max-attempts"));
  options.timeout_ms = static_cast<std::uint64_t>(cli.integer("timeout-ms"));
  options.backoff_ms = static_cast<std::uint64_t>(cli.integer("backoff-ms"));
  options.rss_mb = static_cast<std::uint64_t>(cli.integer("rss-mb"));
  options.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  options.resume = cli.flag("resume");
  options.chaos_kill = cli.real("chaos-kill");
  options.chaos_hang = cli.real("chaos-hang");
  options.chaos_seed = static_cast<std::uint64_t>(cli.integer("chaos-seed"));

  std::vector<farm::JobSpec> jobs = build_jobs(
      traces, static_cast<std::uint64_t>(cli.integer("shard-blocks")));

  farm::Supervisor::install_signal_handlers();
  farm::Supervisor supervisor(options, std::move(jobs));
  farm::FarmOutcome outcome = supervisor.run();

  // Merge. The fleet data report depends only on the completed job set.
  farm::FleetAggregate fleet;
  for (farm::JobReport& report : outcome.reports) fleet.add(std::move(report));
  const std::string data = fleet.render_data();
  std::fputs(data.c_str(), stdout);
  if (!cli.str("out").empty()) {
    write_text_atomic(cli.str("out"), data);
    std::printf("fleet report written to %s\n", cli.str("out").c_str());
  }

  const char* status = outcome.interrupted        ? "INTERRUPTED"
                       : !outcome.quarantined.empty() ? "DEGRADED"
                                                      : "COMPLETE";
  std::printf("farm: status %s — %zu jobs merged, %zu quarantined, "
              "%llu retries, %llu timeouts, %llu workers spawned\n",
              status, fleet.job_count(), outcome.quarantined.size(),
              static_cast<unsigned long long>(outcome.retries),
              static_cast<unsigned long long>(outcome.timeouts),
              static_cast<unsigned long long>(outcome.spawned));

  if (metrics_spec.enabled) {
    metrics::Registry registry;
    registry.set_gauge("farm.jobs", fleet.job_count() +
                                        outcome.quarantined.size());
    registry.set_gauge("farm.jobs_merged", fleet.job_count());
    registry.set_gauge("farm.quarantined", outcome.quarantined.size());
    registry.add("farm.retries", outcome.retries);
    registry.add("farm.timeouts", outcome.timeouts);
    registry.add("farm.workers_spawned", outcome.spawned);
    for (const auto& [name, value] : fleet.metric_sums()) {
      registry.add("farm.workers." + name, value);
    }
    cli::emit_metrics(registry, metrics_spec);
  }
  return outcome.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli("tquad_farm: supervised multi-process TQTR replay with "
                "retry, quarantine, and checkpoint-resume");
  // Supervisor flags.
  cli.add_string("traces", "", "comma-separated TQTR traces to replay [required]");
  cli.add_string("image", "", "guest image: whole-trace jobs replay the full "
                              "analysis session (bandwidth + QUAD counters)");
  cli.add_string("state", "", "state dir for manifest/sidecars/stderr [required]");
  cli.add_int("shard-blocks", 0,
              "split v2 traces with more than N blocks into N-block jobs "
              "(0 = one job per trace)");
  cli.add_int("slice", 50'000, "slice interval (instructions) for aggregation");
  cli.add_int("workers", 2, "max in-flight worker processes");
  cli.add_int("max-attempts", 3, "attempts per job before quarantine");
  cli.add_int("timeout-ms", 0, "per-attempt wall-clock watchdog (0 = off)");
  cli.add_int("backoff-ms", 100, "base retry backoff, doubled per attempt");
  cli.add_int("rss-mb", 0, "per-worker address-space budget (RLIMIT_AS, 0 = off)");
  cli.add_int("seed", 1, "jitter seed for the retry schedule");
  cli.add_flag("resume", false,
               "resume from the state dir's manifest: completed jobs load "
               "their sidecars, only unfinished jobs run");
  cli.add_string("out", "", "write the merged fleet report to this path");
  cli.add_string("metrics", "",
                 "emit farm metrics after the report: text | json[:path]");
  // Worker-mode flags (internal: the supervisor re-execs itself with these).
  cli.add_flag("worker", false, "internal: run as a single-job worker");
  cli.add_string("trace", "", "worker: the trace to replay");
  cli.add_string("sidecar", "", "worker: write the TQFS result here");
  cli.add_int("job-id", 0, "worker: job id");
  cli.add_int("attempt", 1, "worker: attempt ordinal");
  cli.add_int("block-lo", 0, "worker: first block of the range");
  cli.add_int("block-hi", 0, "worker: one past the last block of the range");
  // Chaos injection (tests).
  cli.add_double("chaos-kill", 0.0,
                 "probability a worker attempt self-SIGKILLs (never on the "
                 "final attempt)");
  cli.add_double("chaos-hang", 0.0,
                 "probability a worker attempt hangs until the watchdog");
  cli.add_int("chaos-seed", 0, "seed for deterministic chaos draws");
  try {
    cli.parse(argc, argv);
    if (cli.flag("worker")) return run_worker(cli);
    return run_supervisor(cli, argv[0]);
  } catch (const UsageError& err) {
    std::fprintf(stderr, "tquad_farm: %s\n", err.what());
    return 2;
  } catch (const Error& err) {
    std::fprintf(stderr, "tquad_farm: %s\n", err.what());
    return 1;
  }
}
