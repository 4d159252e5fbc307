// perfbench harness: the repository's end-to-end and per-layer benchmark.
//
// One process runs one workload through the public ProfileSession API with
// tools tquad,quad,gprof (slice 5000, library policy exclude), checks every
// report against a reference computed once and untimed, and prints each
// metric by name with its unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench_harness --workload wfs_serial|hashjoin_par3|wfs_replay
//                     --seed N --seconds S --trace 0|1
//                     [--out-dir DIR] [--commit ID] [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 is a separate run: it records spans (name, start, end, parent,
// operation id) around the benchmark's calls into each layer, runs the
// leave-one-in layer probes, writes the spans to DIR at exit, and prints the
// per-layer metrics. No end-to-end metric comes from a traced run.
// perfbench/README.md lists every metric and the workload each one serves.
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/ascii_chart.hpp"
#include "support/metrics.hpp"
#include "support/table.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "tquad/phase.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"
#include "vm/compiled.hpp"
#include "wfs/runner.hpp"
#include "workloads/workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tq;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSlice = 5000;
constexpr tquad::LibraryPolicy kPolicy = tquad::LibraryPolicy::kExclude;
constexpr std::uint32_t kHashjoinBuildRows = 524288;
constexpr std::uint32_t kHashjoinProbeRows = 1048576;
constexpr unsigned kParallelWorkers = 3;
constexpr int kMinOps = 5;                  ///< wall_s samples, at least
constexpr int kSetupReps = 20;              ///< setup-only samples after each operation,
constexpr double kSetupRepsSeconds = 0.02;  ///< within this many seconds
constexpr int kMinTracedCycles = 3;
/// peak_rss_mb is the second largest of this many probes under a parallel
/// pipeline, whose peak follows the thread schedule; a serial run's peak is
/// the same every time, so one probe does.
constexpr int kRssProbesParallel = 7;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Statistics

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

// ---------------------------------------------------------------------------
// Host speed (untraced mode)

/// The CPUs the calling thread may run on.
std::vector<int> allowed_cpus(const cpu_set_t& mask) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Pins the calling thread to one CPU.
void pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

/// Moves the calling thread to each CPU it may run on, in turn. On a shared
/// host one CPU can run slow for minutes while its physical core is busy with
/// a neighbour, and the scheduler keeps a lone busy thread where it started:
/// a serial run that starts there never sees a fast CPU. Rotating makes every
/// run sample every CPU. The destructor restores the original mask.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) == 0) cpus_ = allowed_cpus(allowed_);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (!cpus_.empty()) pin_to(cpus_[turn_++ % cpus_.size()]);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// What time_host_kernel() takes, in seconds, on the quiet host this
/// benchmark was tuned on (4-vCPU Xeon VM, gcc 12.2, Release). Only ratios
/// between runs matter; this constant sets the scale so that a scaled time
/// reads close to the raw one on that host when it is quiet.
constexpr double kReferenceKernelSeconds = 0.019;

/// A fixed CPU kernel that does not touch the program under test: eight
/// independent multiply-add chains with loads and stores into a 16 KiB
/// table, about 19 ms. It keeps the core's execution ports busy, so it slows
/// down with the core's clock and while a neighbour shares the physical
/// core, as a profiling operation does (see README.md).
double time_host_kernel() {
  std::uint32_t table[4096] = {};
  std::uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 3000000; ++i) {
    for (int k = 0; k < 8; ++k) {
      x[k] = x[k] * 6364136223846793005ull + table[x[k] >> 52];
      table[(x[k] >> 40) & 4095] += static_cast<std::uint32_t>(k);
    }
  }
  const double seconds = seconds_between(t0, Clock::now());
  static std::atomic<std::uint64_t> sink;  // keeps the chains from being optimised away
  sink.store(x[0] ^ x[3] ^ x[7], std::memory_order_relaxed);
  return seconds;
}

/// The host kernel's time on the calling thread's CPU, for a serial
/// operation. For a parallel one, whose threads spread over every CPU, the
/// mean of one kernel per allowed CPU, run at the same time.
double time_host_speed(bool all_cpus) {
  cpu_set_t mask;
  if (!all_cpus || sched_getaffinity(0, sizeof mask, &mask) != 0) return time_host_kernel();
  const std::vector<int> cpus = allowed_cpus(mask);
  std::vector<double> times(cpus.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&times, &cpus, i] {
      pin_to(cpus[i]);
      times[i] = time_host_kernel();
    });
  }
  for (std::thread& t : threads) t.join();
  double sum = 0.0;
  for (const double t : times) sum += t;
  return sum / static_cast<double>(times.size());
}

// ---------------------------------------------------------------------------
// Spans (traced mode only)

struct Span {
  std::string name;
  std::uint64_t op = 0;    ///< operation id; spans of one operation share it
  int parent = -1;         ///< index into the span list, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span recorder. The benchmark opens spans around its own calls
/// into each layer; nothing inside the program is instrumented.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void begin_op() { ++op_; }

  int open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.op = op_;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations, in seconds, of every span called `name` whose root span is
  /// called `root` (empty `root`: any).
  std::vector<double> durations(const std::string& name,
                                const std::string& root = "") const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name != name) continue;
      if (!root.empty() && spans_[root_of(span)].name != root) continue;
      out.push_back(static_cast<double>(span.duration_ns()) * 1e-9);
    }
    return out;
  }

  std::size_t root_of(const Span& span) const {
    const Span* s = &span;
    std::size_t index = static_cast<std::size_t>(s - spans_.data());
    while (s->parent >= 0) {
      index = static_cast<std::size_t>(s->parent);
      s = &spans_[index];
    }
    return index;
  }

  /// Self time: duration minus the time covered by direct children (children
  /// of one span run one after another on one thread, so they never overlap).
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration_ns();
    for (const Span& span : spans_) {
      if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.duration_ns();
    }
    return self;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing (the untraced mode).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->open(name);
  }
  ~SpanScope() { end(); }
  void end() {
    if (tracer_ != nullptr && id_ >= 0) tracer_->close(id_);
    id_ = -1;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  bool replay = false;            ///< the timed operation replays a trace
  bool seed_used = false;         ///< wfs has a fixed input
  session::PipelineOptions pipeline{};
  std::vector<std::uint8_t> image;  ///< TQIM bytes
  vm::HostEnv host;                 ///< copied fresh for every live run
  /// Golden checks; "" on success. check_output sees the host after a live
  /// run (wfs), check_memory the memory of a bare compiled run (hashjoin,
  /// whose result lives in guest memory a session does not expose).
  std::function<std::string(const vm::HostEnv&)> check_output;
  std::function<std::string(const PagedMemory&)> check_memory;
  std::vector<std::uint8_t> trace;  ///< recorded v2 trace (replay source)
};

Workload make_wfs(const std::string& name, bool replay) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::standard();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  Workload w;
  w.name = name;
  w.replay = replay;
  w.image = run.artifacts.program.serialize();
  w.host = run.host;
  auto golden = std::make_shared<wfs::GoldenResult>(wfs::run_golden(cfg, run.input));
  w.check_output = [golden](const vm::HostEnv& host) -> std::string {
    const wfs::WavData out =
        wfs::wav_decode(host.output(wfs::WfsArtifacts::kOutputFd));
    if (out.samples.size() != golden->output.size()) {
      return "wfs output has " + std::to_string(out.samples.size()) +
             " samples, golden model " + std::to_string(golden->output.size());
    }
    // The guest mirrors the golden arithmetic; one PCM16 LSB of wobble.
    for (std::size_t i = 0; i < out.samples.size(); ++i) {
      if (std::abs(int(out.samples[i]) - int(golden->output[i])) > 1) {
        return "wfs sample " + std::to_string(i) + " differs from the golden model";
      }
    }
    return {};
  };
  return w;
}

Workload make_hashjoin(std::uint64_t seed) {
  workloads::HashJoinArtifacts art =
      workloads::build_hashjoin(kHashjoinBuildRows, kHashjoinProbeRows, seed);
  Workload w;
  w.name = "hashjoin_par3";
  w.seed_used = true;
  w.pipeline.mode = session::PipelineMode::kParallel;
  w.pipeline.workers = kParallelWorkers;
  w.image = art.program.serialize();
  const std::uint64_t result_addr = art.result_addr;
  const std::uint64_t sum = art.expected_sum;
  const std::uint64_t matches = art.expected_matches;
  w.check_memory = [=](const PagedMemory& memory) -> std::string {
    if (memory.load(result_addr, 8) != sum) return "hashjoin payload sum differs";
    if (memory.load(result_addr + 8, 8) != matches) return "hashjoin match count differs";
    return {};
  };
  return w;
}

// ---------------------------------------------------------------------------
// One profiling operation

/// Subscribes to every event kind and does nothing: the attribution fan-out
/// cost without any accounting. on_tick_run is overridden too, so batched
/// ticks are not expanded one by one.
class EmptyConsumer final : public session::AnalysisConsumer {
 public:
  void on_tick_run(const session::TickRunEvent&) override {}
};

struct RunSpec {
  const char* root = "op";   ///< root span name
  bool replay = false;
  vm::EngineKind engine = vm::EngineKind::kCompiled;
  session::PipelineOptions pipeline{};
  bool tquad = false, quad = false, gprof = false;
  bool recorder = false;
  bool empty = false;
  /// Render the reports inside the timed region (a full operation). A
  /// record operation stops at take_encoded() and renders afterwards.
  bool timed_reports = false;
};

struct RunResult {
  double setup_s = 0.0;  ///< deserialize + session and tool construction
  double wall_s = 0.0;   ///< constructed session .. last report (or take_encoded)
  vm::RunOutcome outcome;
  std::string reports;   ///< rendered tquad, quad and gprof reports
  std::string tquad_report;
  std::vector<std::uint8_t> trace;
  session::EventCounts counts;
  session::PipelineStats pipeline;
  metrics::Snapshot quad_metrics;
  std::uint64_t tquad_slices = 0;
  std::string golden_error;
};

ChartSeries series_of(const tquad::TQuadTool& tool, const tquad::FlatRow& row) {
  return ChartSeries{row.name,
                     tquad::dense_series(tool, row.kernel, tquad::Metric::kReadWriteIncl)};
}

/// The tquad part of `tquad_cli -tools tquad,quad,gprof -report all`.
std::string render_tquad(const tquad::TQuadTool& tool, std::uint64_t retired) {
  std::string out = "retired " + format_count(retired) + " instructions; " +
                    std::to_string(tool.bandwidth().max_slice() + 1) +
                    " time slices at interval " +
                    std::to_string(tool.options().slice_interval) + "\n\n";
  out += "== flat profile ==\n" + tquad::flat_profile_table(tool).to_ascii() + "\n";
  const tquad::CpuModel model;
  char header[96];
  std::snprintf(header, sizeof header, "== bandwidth (at %.2f GHz, CPI %.2f) ==\n",
                model.clock_ghz, model.cpi);
  out += header + tquad::bandwidth_table(tool, model).to_ascii() + "\n";
  out += "== phases ==\n" +
         tquad::describe_phases(tool, tquad::detect_phases(tool)) + "\n";
  std::vector<ChartSeries> series;
  for (const auto& row : tquad::flat_profile(tool)) {
    if (series.size() == 12) break;
    series.push_back(series_of(tool, row));
  }
  out += "== activity (read+write bytes per slice) ==\n" +
         render_heat_strips(series) + "\n";
  return out;
}

/// The Table II kernel table, as tquad_cli prints it.
std::string render_quad(const quad::QuadTool& tool) {
  TextTable table({"kernel", "IN ex", "INunma ex", "OUT ex", "OUTunma ex", "IN in",
                   "INunma in", "OUT in", "OUTunma in"});
  for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
    if (!tool.reported(k)) continue;
    const auto& ex = tool.excluding_stack(k);
    const auto& in = tool.including_stack(k);
    if (in.in_bytes == 0 && in.out_unma.count() == 0) continue;
    table.add_row({tool.kernel_name(k), format_count(ex.in_bytes),
                   format_count(ex.in_unma.count()), format_count(ex.out_bytes),
                   format_count(ex.out_unma.count()), format_count(in.in_bytes),
                   format_count(in.in_unma.count()), format_count(in.out_bytes),
                   format_count(in.out_unma.count())});
  }
  return "== quad kernel table (Table II) ==\n" + table.to_ascii() + "\n" +
         std::to_string(tool.bindings().size()) + " producer->consumer bindings\n\n";
}

std::string render_gprof(const gprof::GprofTool& tool) {
  return "== gprof flat profile (sample period " +
         std::to_string(gprof::Options{}.sample_period) + ") ==\n" +
         tool.flat_profile_table().to_ascii() + "\n";
}

/// What one operation sets up: the deserialized program, the session and the
/// tools the spec asks for, constructed in place (the session and the tools
/// keep references to the program).
struct Profile {
  Profile(const Workload& w, const RunSpec& spec, Tracer* tracer) {
    {
      SpanScope span(tracer, "setup.image_load");
      program.emplace(vm::Program::deserialize(w.image));
    }
    SpanScope span(tracer, "session.construct");
    session::SessionConfig config;
    config.library_policy = kPolicy;
    config.engine = spec.engine;
    config.pipeline = spec.pipeline;
    session.emplace(*program, config);
    if (spec.tquad) {
      tquad_tool.emplace(*program, tquad::Options{.slice_interval = kSlice,
                                                  .library_policy = kPolicy});
      session->add_consumer(*tquad_tool);
    }
    if (spec.quad) {
      quad_tool.emplace(*program, quad::QuadOptions{kPolicy});
      session->add_consumer(*quad_tool);
    }
    if (spec.gprof) {
      gprof::Options options;
      options.library_policy = kPolicy;
      gprof_tool.emplace(*program, options);
      session->add_consumer(*gprof_tool);
    }
    if (spec.recorder) {
      recorder.emplace(*program, kPolicy, trace::TraceFormat::kV2);
      session->add_consumer(*recorder);
    }
    if (spec.empty) session->add_consumer(empty);
  }

  std::optional<vm::Program> program;
  std::optional<session::ProfileSession> session;
  std::optional<tquad::TQuadTool> tquad_tool;
  std::optional<quad::QuadTool> quad_tool;
  std::optional<gprof::GprofTool> gprof_tool;
  std::optional<trace::TraceRecorder> recorder;
  EmptyConsumer empty;
};

/// Deserialize the image, construct the session and the tools, run (live or
/// replay), and render the reports: the operation a user of the profiler
/// waits for, with a span around each call into a layer.
RunResult run_profile(const Workload& w, const RunSpec& spec, Tracer* tracer) {
  RunResult result;
  vm::HostEnv host = w.host;  // untimed: a fresh guest environment
  if (tracer != nullptr) tracer->begin_op();
  SpanScope root(tracer, spec.root);

  const Clock::time_point t0 = Clock::now();
  Profile p(w, spec, tracer);
  const Clock::time_point t1 = Clock::now();
  {
    SpanScope span(tracer, "session.run");
    result.outcome = spec.replay ? p.session->replay(w.trace) : p.session->run_live(host);
  }
  if (p.recorder.has_value()) {
    SpanScope span(tracer, "trace.take_encoded");
    result.trace = p.recorder->take_encoded();
  }
  const auto render = [&](Tracer* tracer) {
    if (p.tquad_tool.has_value()) {
      SpanScope span(tracer, "report.tquad");
      result.tquad_report = render_tquad(*p.tquad_tool, result.outcome.retired);
    }
    result.reports = result.tquad_report;
    if (p.quad_tool.has_value()) {
      SpanScope span(tracer, "report.quad");
      result.reports += render_quad(*p.quad_tool);
    }
    if (p.gprof_tool.has_value()) {
      SpanScope span(tracer, "report.gprof");
      result.reports += render_gprof(*p.gprof_tool);
    }
  };
  if (spec.timed_reports) render(tracer);
  const Clock::time_point t2 = Clock::now();
  root.end();
  if (!spec.timed_reports) render(nullptr);  // only for the checks

  result.setup_s = seconds_between(t0, t1);
  result.wall_s = seconds_between(t1, t2);
  result.counts = p.session->attribution().event_counts();
  result.pipeline = p.session->pipeline_stats();
  if (p.quad_tool.has_value()) {
    metrics::Registry registry;
    p.quad_tool->publish_metrics(registry);
    result.quad_metrics = registry.snapshot();
  }
  if (p.tquad_tool.has_value()) {
    result.tquad_slices = p.tquad_tool->bandwidth().max_slice() + 1;
  }
  if (!spec.replay && w.check_output) result.golden_error = w.check_output(host);
  return result;
}

template <class Bytes>
std::uint64_t fnv1a(const Bytes& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// Checking

struct Checker {
  std::uint64_t reference = 0;        ///< digest of the full reports
  std::uint64_t tquad_reference = 0;  ///< digest of the tquad report alone
  std::uint64_t trace_reference = 0;  ///< digest of the first recorded trace
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void count(const std::string& what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(), error.c_str());
  }

  static std::string outcome_error(const RunResult& r) {
    if (r.outcome.status != vm::RunStatus::kHalted) return r.outcome.summary();
    return r.golden_error;
  }

  /// A full operation: halted, golden model satisfied, report digest equal.
  void full(const std::string& what, const RunResult& r) {
    std::string error = outcome_error(r);
    if (error.empty() && fnv1a(r.reports) != reference) error = "report digest mismatch";
    count(what, error);
  }

  /// A record operation: its tquad report and its trace bytes must match.
  void record(const RunResult& r) {
    std::string error = outcome_error(r);
    if (error.empty() && fnv1a(r.tquad_report) != tquad_reference) {
      error = "tquad report digest mismatch";
    }
    if (error.empty() && fnv1a(r.trace) != trace_reference) error = "trace bytes differ";
    count("record", error);
  }
};

RunSpec full_spec(const Workload& w) {
  return {.root = "op", .replay = w.replay, .pipeline = w.pipeline, .tquad = true,
          .quad = true, .gprof = true, .timed_reports = true};
}

RunSpec record_spec(const Workload& w) {
  return {.root = "record", .pipeline = w.pipeline, .tquad = true, .recorder = true};
}

/// Deserialize + construct only: an extra setup_s sample.
double setup_only(const Workload& w) {
  const Clock::time_point t0 = Clock::now();
  const Profile p(w, full_spec(w), nullptr);
  return seconds_between(t0, Clock::now());
}

/// The untimed reference digests: the interp-engine serial run for live
/// workloads, the live (compiled) serial run for wfs_replay.
void compute_reference(const Workload& w, Checker& checker, bool corrupt) {
  const RunSpec spec{.root = "reference",
                     .engine = w.replay ? vm::EngineKind::kCompiled : vm::EngineKind::kInterp,
                     .tquad = true, .quad = true, .gprof = true};
  const Clock::time_point t0 = Clock::now();
  const RunResult r = run_profile(w, spec, nullptr);
  checker.count("reference", Checker::outcome_error(r));
  checker.reference = fnv1a(r.reports);
  checker.tquad_reference = fnv1a(r.tquad_report);
  if (corrupt) checker.reference ^= 1;
  std::printf("reference: %s serial run, %s instructions, digest %016llx (%.2f s, untimed)\n",
              vm::engine_kind_name(spec.engine), format_count(r.outcome.retired).c_str(),
              static_cast<unsigned long long>(checker.reference),
              seconds_between(t0, Clock::now()));
}

/// Bare compiled run: the vm layer alone, plus the memory golden check.
struct BareResult {
  double construct_s = 0.0;
  double run_s = 0.0;
  std::string error;
};

BareResult run_bare(const Workload& w, const vm::Program& program, Tracer* tracer) {
  BareResult result;
  vm::HostEnv host = w.host;
  if (tracer != nullptr) tracer->begin_op();
  SpanScope root(tracer, "bare");
  std::optional<vm::CompiledMachine> machine;
  Clock::time_point t0 = Clock::now();
  {
    SpanScope span(tracer, "vm.construct");
    machine.emplace(program, host);
  }
  Clock::time_point t1 = Clock::now();
  vm::RunOutcome outcome;
  {
    SpanScope span(tracer, "vm.run");
    outcome = machine->run();
  }
  Clock::time_point t2 = Clock::now();
  root.end();
  result.construct_s = seconds_between(t0, t1);
  result.run_s = seconds_between(t1, t2);
  if (outcome.status != vm::RunStatus::kHalted) {
    result.error = outcome.summary();
  } else if (w.check_memory) {
    result.error = w.check_memory(machine->memory());
  } else if (w.check_output) {
    result.error = w.check_output(host);
  }
  return result;
}

/// TraceV2View::open plus decode_block over every block.
double decode_all_blocks(const std::vector<std::uint8_t>& bytes, Tracer* tracer,
                         std::uint64_t* records) {
  if (tracer != nullptr) tracer->begin_op();
  SpanScope root(tracer, "decode");
  const Clock::time_point t0 = Clock::now();
  std::uint64_t count = 0;
  {
    SpanScope span(tracer, "trace.decode");
    const trace::TraceV2View view = trace::TraceV2View::open(bytes);
    for (std::size_t i = 0; i < view.block_count(); ++i) {
      count += view.decode_block(i).size();
    }
  }
  *records = count;
  return seconds_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Output

struct Stamp {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_used = false;
  std::string commit;
  int trace = 0;
};

std::string compiler_name() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." + std::to_string(__clang_minor__) +
         "." + std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  ///< empty for exact counts and derived values
};

void print_metric(const std::string& workload, const Metric& m) {
  std::printf("%-14s %-36s %16.6f %-9s", workload.c_str(), m.name.c_str(), m.value,
              m.unit.c_str());
  if (m.samples.size() > 1) {
    std::printf("  median of %zu; q1 %.6g, q3 %.6g", m.samples.size(),
                quantile(m.samples, 0.25), quantile(m.samples, 0.75));
  }
  std::printf("\n");
}

void write_stamp(std::FILE* f, const Stamp& stamp) {
  std::fprintf(f,
               "  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"seed_used\": %s,\n"
               "  \"trace\": %d,\n  \"nproc\": %u,\n  \"compiler\": \"%s\",\n"
               "  \"build_type\": \"%s\",\n  \"commit\": \"%s\",\n",
               stamp.workload.c_str(), static_cast<unsigned long long>(stamp.seed),
               stamp.seed_used ? "true" : "false", stamp.trace,
               std::thread::hardware_concurrency(), compiler_name().c_str(),
               PERFBENCH_BUILD_TYPE, stamp.commit.c_str());
}

/// Full results (every sample) next to the build, for later inspection.
void write_results(const std::string& path, const Stamp& stamp,
                   const std::vector<Metric>& metrics, const Checker& checker) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n");
  write_stamp(f, stamp);
  std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n  \"metrics\": {\n",
               static_cast<unsigned long long>(checker.attempted),
               static_cast<unsigned long long>(checker.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(f, "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": [",
                 m.name.c_str(), m.value, m.unit.c_str());
    for (std::size_t s = 0; s < m.samples.size(); ++s) {
      std::fprintf(f, "%s%.9g", s ? ", " : "", m.samples[s]);
    }
    std::fprintf(f, "]}%s\n", i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

void write_spans(const std::string& path, const Stamp& stamp, const Tracer& tracer,
                 double min_coverage) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const std::vector<std::int64_t> self = tracer.self_ns();
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_name;  // total, self
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    auto& entry = by_name[tracer.spans()[i].name];
    entry.first += tracer.spans()[i].duration_ns();
    entry.second += self[i];
  }
  std::fprintf(f, "{\n");
  write_stamp(f, stamp);
  std::fprintf(f, "  \"min_top_level_coverage\": %.6f,\n  \"self_time_ms\": {\n",
               min_coverage);
  std::size_t n = 0;
  for (const auto& [name, times] : by_name) {
    std::fprintf(f, "    \"%s\": {\"total\": %.6f, \"self\": %.6f}%s\n", name.c_str(),
                 static_cast<double>(times.first) * 1e-6,
                 static_cast<double>(times.second) * 1e-6,
                 ++n < by_name.size() ? "," : "");
  }
  std::fprintf(f, "  },\n  \"spans\": [\n");
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    std::fprintf(f,
                 "    {\"id\": %zu, \"name\": \"%s\", \"op\": %llu, \"parent\": %d, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld}%s\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.op), s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]),
                 i + 1 < tracer.spans().size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void print_result_line(const Checker& checker, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              checker.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted),
              static_cast<unsigned long long>(checker.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// The two modes

Metric sampled(const std::string& name, const std::string& unit,
               std::vector<double> samples, double scale = 1.0) {
  for (double& s : samples) s *= scale;
  return Metric{name, unit, median(samples), std::move(samples)};
}

Metric exact(const std::string& name, const std::string& unit, double value) {
  return Metric{name, unit, value, {}};
}

/// One record operation (record_s). The first recorded trace becomes the
/// workload's replay source and the reference the later ones must match.
double record_trace(Workload& w, Checker& checker, Tracer* tracer) {
  RunResult r = run_profile(w, record_spec(w), tracer);
  if (w.trace.empty()) {
    w.trace = r.trace;
    checker.trace_reference = fnv1a(w.trace);
  }
  checker.record(r);
  return r.wall_s;
}

/// One record operation, then full operations and setup-only repetitions,
/// taking turns over the whole run so that both metrics see the same stretch
/// of machine time. The host kernel is timed right before and after each
/// full operation, and every time sample of that operation and of the setups
/// after it is scaled by kReferenceKernelSeconds over the kernel's mean. A
/// serial workload's thread moves to the next CPU before each full
/// operation; a parallel one keeps the default mask, which the pipeline's
/// worker threads inherit, and times the kernel on every CPU.
std::vector<Metric> run_untraced(Workload& w, Checker& checker, double seconds,
                                 double peak_rss_mb) {
  if (w.check_memory) {
    // Untimed: the memory golden model needs a machine a session hides.
    const vm::Program program = vm::Program::deserialize(w.image);
    checker.count("golden model", run_bare(w, program, nullptr).error);
  }
  const double record_s = record_trace(w, checker, nullptr);
  const std::uint64_t retired = trace::TraceV2View::open(w.trace).total_retired();
  std::vector<double> wall, setup, raw_wall, kernel;
  const bool parallel = w.pipeline.mode == session::PipelineMode::kParallel;
  std::optional<CpuRotation> rotation;
  if (!parallel) rotation.emplace();

  const Clock::time_point start = Clock::now();
  while (wall.size() < static_cast<std::size_t>(kMinOps) ||
         seconds_between(start, Clock::now()) < seconds) {
    if (rotation) rotation->next();
    const double kernel_before = time_host_speed(parallel);
    const RunResult r = run_profile(w, full_spec(w), nullptr);
    kernel.push_back(0.5 * (kernel_before + time_host_speed(parallel)));
    const double scale = kReferenceKernelSeconds / kernel.back();
    checker.full("operation", r);
    raw_wall.push_back(r.wall_s);
    wall.push_back(r.wall_s * scale);
    setup.push_back(r.setup_s * scale);
    const Clock::time_point reps_start = Clock::now();
    for (int i = 0; i < kSetupReps &&
                    seconds_between(reps_start, Clock::now()) < kSetupRepsSeconds;
         ++i) {
      setup.push_back(setup_only(w) * scale);
    }
  }

  const double fail_ratio = static_cast<double>(checker.failed) /
                            static_cast<double>(std::max<std::uint64_t>(checker.attempted, 1));
  std::printf("%-14s %-36s %16.6f %-9s  %llu of %llu operations failed\n", w.name.c_str(),
              "fail_ratio", fail_ratio, "ratio",
              static_cast<unsigned long long>(checker.failed),
              static_cast<unsigned long long>(checker.attempted));
  std::printf("%-14s %-36s %16.6f %-9s  one record operation, not in BENCHMARK.json\n",
              w.name.c_str(), "record_s", record_s, "s");
  std::printf("%-14s %-36s %16.6f %-9s  unscaled; best %.6g, q1 %.6g, q3 %.6g\n",
              w.name.c_str(), "wall_s.raw", median(raw_wall), "s",
              *std::min_element(raw_wall.begin(), raw_wall.end()), quantile(raw_wall, 0.25),
              quantile(raw_wall, 0.75));
  std::printf("%-14s %-36s %16.6f %-9s  median; reference %.3f, q1 %.6g, q3 %.6g\n",
              w.name.c_str(), "host_kernel_s", median(kernel), "s", kReferenceKernelSeconds,
              quantile(kernel, 0.25), quantile(kernel, 0.75));
  return {
      sampled("wall_s", "s", wall),
      sampled("setup_s", "s", setup),
      exact("peak_rss_mb", "MB", peak_rss_mb),
      exact("trace_bytes_per_instr", "B/instr",
            static_cast<double>(w.trace.size()) / static_cast<double>(retired)),
  };
}

/// Layer probes, repeated for the run's seconds: each is one operation with
/// its own spans. Consumer busy time is leave-one-in: a session with only
/// that consumer minus a session with none, so no clock is read per event.
std::vector<Metric> run_traced(Workload& w, Checker& checker, double seconds,
                               Tracer& tracer, double* min_coverage) {
  record_trace(w, checker, &tracer);
  const vm::Program program = vm::Program::deserialize(w.image);
  const trace::TraceV2View view = trace::TraceV2View::open(w.trace);
  const auto retired = static_cast<double>(view.total_retired());
  const auto records = static_cast<double>(view.record_count());

  std::map<std::string, std::vector<double>> t;  // probe -> run seconds
  const auto probe = [&](const RunSpec& spec) {
    t[spec.root].push_back(run_profile(w, spec, &tracer).wall_s);
  };
  std::vector<double> traced_ops, untraced_ops;
  RunResult last_full;
  session::PipelineStats pipeline;
  const char* mode = w.replay ? "replay" : "live";

  // Cycles run while another one still fits in the run's seconds.
  const Clock::time_point start = Clock::now();
  double cycle_s = 0.0;
  for (int cycle = 0; cycle < kMinTracedCycles ||
                      seconds_between(start, Clock::now()) + cycle_s <= seconds;
       ++cycle) {
    const Clock::time_point cycle_start = Clock::now();
    // The full operation, traced and untraced, in alternating order.
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k + cycle) % 2 == 0;
      RunResult r = run_profile(w, full_spec(w), traced ? &tracer : nullptr);
      checker.full(traced ? "traced operation" : "operation", r);
      (traced ? traced_ops : untraced_ops).push_back(r.wall_s);
      if (traced) last_full = std::move(r);
    }
    if (w.pipeline.mode == session::PipelineMode::kParallel) {
      pipeline = last_full.pipeline;
    } else {
      // Serial workloads have no pipeline; a parallel:3 probe of the same
      // operation supplies the pipeline.* counters.
      RunSpec spec = full_spec(w);
      spec.root = "pipeline_probe";
      spec.pipeline.mode = session::PipelineMode::kParallel;
      spec.pipeline.workers = kParallelWorkers;
      const RunResult r = run_profile(w, spec, &tracer);
      checker.full("pipeline probe", r);
      pipeline = r.pipeline;
    }

    const BareResult bare = run_bare(w, program, &tracer);
    checker.count("bare run", bare.error);
    t["vm.construct"].push_back(bare.construct_s);
    t["vm.run"].push_back(bare.run_s);
    t["vm.bare"].push_back(bare.construct_s + bare.run_s);

    probe({.root = "live.empty", .empty = true});
    std::uint64_t decoded = 0;
    t["decode"].push_back(decode_all_blocks(w.trace, &tracer, &decoded));
    checker.count("decode", decoded == view.record_count() ? "" : "decoded record count");
    probe({.root = "replay.empty", .replay = true, .empty = true});
    // Each baseline runs right before the probes measured against it.
    probe({.root = "live.none"});
    probe({.root = "live.recorder", .recorder = true});
    if (w.replay) {
      probe({.root = "replay.none", .replay = true});
      probe({.root = "replay.tquad", .replay = true, .tquad = true});
      probe({.root = "replay.quad", .replay = true, .quad = true});
      probe({.root = "replay.gprof", .replay = true, .gprof = true});
    } else {
      probe({.root = "live.tquad", .tquad = true});
      probe({.root = "live.quad", .quad = true});
      probe({.root = "live.gprof", .gprof = true});
    }
    cycle_s = seconds_between(cycle_start, Clock::now());
  }

  // Top-level coverage: the root span's direct children over its duration.
  *min_coverage = 1.0;
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.duration_ns();
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && spans[i].name == "op" && spans[i].duration_ns() > 0) {
      *min_coverage = std::min(*min_coverage, static_cast<double>(covered[i]) /
                                                  static_cast<double>(spans[i].duration_ns()));
    }
  }

  const auto med = [&](const std::string& key) { return median(t[key]); };
  // Marginal costs pair each probe with its baseline from the same cycle,
  // so drift between cycles cancels; the median is over cycles.
  const auto marginal = [&](const std::string& probe, const std::string& baseline) {
    std::vector<double> diffs;
    for (std::size_t i = 0; i < t[probe].size(); ++i) {
      diffs.push_back(t[probe][i] - t[baseline][i]);
    }
    return median(diffs);
  };
  const auto ns_per_instr = [&](double s) { return s * 1e9 / retired; };
  const auto busy = [&](const char* tool) {
    return exact(std::string(tool) + ".busy_ns_per_instr", "ns/instr",
                 ns_per_instr(marginal(std::string(mode) + "." + tool,
                                       std::string(mode) + ".none")));
  };
  const auto gauge = [&](const char* name) {
    for (const auto& [key, value] : last_full.quad_metrics.gauges) {
      if (key == name) return static_cast<double>(value.value);
    }
    return 0.0;
  };
  std::vector<double> overhead;  // traced over untraced, paired within a cycle
  for (std::size_t i = 0; i < traced_ops.size(); ++i) {
    overhead.push_back((traced_ops[i] / untraced_ops[i] - 1.0) * 100.0);
  }
  const double overhead_pct = median(overhead);
  const session::EventCounts& counts = last_full.counts;
  const session::PipelineStats& ps = pipeline;
  return {
      sampled("setup.image_load_ms", "ms", tracer.durations("setup.image_load"), 1e3),
      sampled("vm.lower_ms", "ms", t["vm.construct"], 1e3),
      exact("vm.dispatch_ns_per_instr", "ns/instr", ns_per_instr(med("vm.run"))),
      exact("session.attribution_ns_per_instr", "ns/instr",
            ns_per_instr(marginal("live.empty", "vm.bare"))),
      exact("session.events.enter", "count", static_cast<double>(counts.enters)),
      exact("session.events.tick", "count", static_cast<double>(counts.ticks)),
      exact("session.events.tick_run", "count", static_cast<double>(counts.tick_runs)),
      exact("session.events.access", "count", static_cast<double>(counts.accesses)),
      exact("session.replay_source_ns_per_instr", "ns/instr",
            ns_per_instr(marginal("replay.empty", "decode"))),
      exact("trace.decode_mev_s", "Mev/s", records / med("decode") / 1e6),
      exact("trace.encode_ns_per_record", "ns/record",
            marginal("live.recorder", "live.none") * 1e9 / records),
      exact("trace.records", "count", records),
      exact("trace.blocks", "count", static_cast<double>(view.block_count())),
      busy("tquad"),
      busy("quad"),
      busy("gprof"),
      exact("quad.shadow.pages", "count", gauge("quad.shadow.pages")),
      exact("quad.unma.in_incl", "count", gauge("quad.unma.in_incl")),
      exact("quad.bindings", "count", gauge("quad.bindings")),
      exact("tquad.slices", "count", static_cast<double>(last_full.tquad_slices)),
      exact("pipeline.producer_stall_ms", "ms", static_cast<double>(ps.producer_stall_ns) * 1e-6),
      exact("pipeline.backpressure_waits", "count", static_cast<double>(ps.backpressure_waits)),
      exact("pipeline.shard_fold_ms", "ms", static_cast<double>(ps.shard_fold_ns) * 1e-6),
      exact("pipeline.batches_published", "count", static_cast<double>(ps.batches_published)),
      exact("pipeline.freelist.hits", "count", static_cast<double>(ps.freelist_hits)),
      exact("pipeline.batch.grows", "count", static_cast<double>(ps.batch_grows)),
      exact("pipeline.ring.capacity_grows", "count",
            static_cast<double>(ps.ring_capacity_grows)),
      sampled("report.tquad_ms", "ms", tracer.durations("report.tquad", "op"), 1e3),
      sampled("report.quad_ms", "ms", tracer.durations("report.quad", "op"), 1e3),
      sampled("report.gprof_ms", "ms", tracer.durations("report.gprof", "op"), 1e3),
      exact("bench.tracing_overhead_pct", "%", overhead_pct),
  };
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
  std::string commit = "unknown";
  bool corrupt_reference = false;
  bool rss_probe = false;  ///< run one operation and exit (see probe_peak_rss_mb)
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "wfs_serial|hashjoin_par3|wfs_replay --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--commit ID] [--corrupt-reference]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference" || flag == "--rss-probe") {
      (flag == "--rss-probe" ? args.rss_probe : args.corrupt_reference) = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "wfs_serial" && args.workload != "hashjoin_par3" &&
      args.workload != "wfs_replay") {
    usage("unknown --workload");
  }
  if (args.trace != 0 && args.trace != 1) usage("--trace takes 0 or 1");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  for (char& c : args.commit) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '-') c = '_';
  }
  return args;
}

/// The peak resident memory of a separate process that builds the workload
/// and runs one operation (wfs_replay first records its trace), as one CLI
/// invocation would. Measured apart from the timing process, whose heap and
/// thread arenas grow with every operation it repeats.
double probe_peak_rss_mb(const Args& args, std::string* error) {
  std::vector<std::string> words = {"perfbench_harness", "--workload", args.workload,
                                    "--seed", std::to_string(args.seed), "--rss-probe"};
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = "cannot start the memory probe: " + std::string(std::strerror(rc));
    return 0.0;
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) *error = "memory probe failed";
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int rss_probe(Workload& w) {
  if (w.replay) {
    const RunResult record = run_profile(w, record_spec(w), nullptr);
    w.trace = record.trace;
  }
  const RunResult r = run_profile(w, full_spec(w), nullptr);
  return r.outcome.status == vm::RunStatus::kHalted ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    Workload w = args.workload == "hashjoin_par3" ? make_hashjoin(args.seed)
                                                  : make_wfs(args.workload,
                                                             args.workload == "wfs_replay");
    if (args.rss_probe) return rss_probe(w);
    const Stamp stamp{w.name, args.seed, w.seed_used, args.commit, args.trace};
    std::printf("perfbench: workload=%s seed=%llu%s trace=%d nproc=%u compiler=%s "
                "build=%s commit=%s\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                w.seed_used ? "" : " (ignored: wfs has a fixed input)", args.trace,
                std::thread::hardware_concurrency(), compiler_name().c_str(),
                PERFBENCH_BUILD_TYPE, args.commit.c_str());

    Checker checker;
    compute_reference(w, checker, args.corrupt_reference);
    std::filesystem::create_directories(args.out_dir);
    const std::string base = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace);
    std::vector<Metric> metrics;
    if (args.trace == 0) {
      // Under parallel:3 the rings grow and the thread arenas fill with the
      // schedule, so one probe's peak varies; the second largest of several.
      const int probes =
          w.pipeline.mode == session::PipelineMode::kParallel ? kRssProbesParallel : 1;
      std::vector<double> rss;
      for (int i = 0; i < probes; ++i) {
        std::string error;
        rss.push_back(probe_peak_rss_mb(args, &error));
        checker.count("memory probe", error);
      }
      std::sort(rss.begin(), rss.end());
      metrics = run_untraced(w, checker, args.seconds, rss[rss.size() > 1 ? rss.size() - 2 : 0]);
    } else {
      Tracer tracer;
      double coverage = 0.0;
      metrics = run_traced(w, checker, args.seconds, tracer, &coverage);
      write_spans(base + "-spans.json", stamp, tracer, coverage);
      std::printf("spans: %zu recorded, top-level coverage of each operation >= %.2f%%, "
                  "written to %s-spans.json\n",
                  tracer.spans().size(), coverage * 100.0, base.c_str());
    }
    for (const Metric& m : metrics) print_metric(w.name, m);
    write_results(base + ".json", stamp, metrics, checker);
    print_result_line(checker, metrics);
    std::fflush(stdout);
    return checker.failed == 0 ? 0 : 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench_harness: %s\n", err.what());
    return 1;
  }
}
