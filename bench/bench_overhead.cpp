// Section V-A reproduction: instrumentation overhead.
//
// The paper reports a 37.2x-68.95x slowdown of the instrumented hArtes wfs
// versus native execution, depending on the time-slice interval and the
// stack-area option. Our equivalents:
//   * "native execution"      -> the golden model (compiled C++);
//   * "instrumented execution"-> the VM running the guest under tQUAD/QUAD,
//     one ProfileSession on the default compiled engine.
// The VM itself contributes a baseline execution cost, so the bench
// reports both the tool-over-VM factor (what instrumentation adds) and the
// tool-over-native factor (the paper's measurement).
//
// google-benchmark drives the steady-state measurements on the tiny
// configuration; a one-shot standard-configuration run prints the headline
// slowdown table. One-shot sections then write the BENCH_*.json files: the
// session, pipeline, metrics and engine gates, and QUAD's per-access cost
// on a recorded access stream (BENCH_quad.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/metrics.hpp"
#include "tquad/tquad_tool.hpp"
#include "vm/compiled.hpp"
#include "wfs/runner.hpp"
#include "workloads/registry.hpp"
#include "workloads/workloads.hpp"

#include "bench_env.hpp"
#include "paper_reference.hpp"

namespace {

using namespace tq;

/// Profile `run` with `tool` alone: a one-tool ProfileSession on the default
/// (compiled) engine. Returns the retired instruction count.
std::uint64_t profile_alone(wfs::WfsRun& run, session::AnalysisConsumer& tool) {
  session::ProfileSession profile(run.artifacts.program);
  profile.add_consumer(tool);
  return profile.run_live(run.host).retired;
}

void BM_GoldenModel(benchmark::State& state) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  const wfs::WavData input = wfs::make_test_signal(cfg.input_samples());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wfs::run_golden(cfg, input));
  }
}
BENCHMARK(BM_GoldenModel)->Unit(benchmark::kMillisecond);

void BM_VmNative(benchmark::State& state) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  std::uint64_t retired = 0;
  for (auto _ : state) {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    vm::CompiledMachine machine(run.artifacts.program, run.host);
    retired = machine.run().retired;
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(retired), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_VmNative)->Unit(benchmark::kMillisecond);

void BM_VmTquad(benchmark::State& state) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  const auto slice = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t retired = 0;
  for (auto _ : state) {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    tquad::TQuadTool tool(run.artifacts.program,
                          tquad::Options{.slice_interval = slice});
    retired = profile_alone(run, tool);
    benchmark::DoNotOptimize(tool.total_retired());
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(retired), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_VmTquad)->Arg(5000)->Arg(100000)->Arg(10'000'000)
    ->Unit(benchmark::kMillisecond);

void BM_VmQuad(benchmark::State& state) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  for (auto _ : state) {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    quad::QuadTool tool(run.artifacts.program);
    profile_alone(run, tool);
    benchmark::DoNotOptimize(tool.kernel_count());
  }
}
BENCHMARK(BM_VmQuad)->Unit(benchmark::kMillisecond);

void BM_VmGprof(benchmark::State& state) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  for (auto _ : state) {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    gprof::GprofTool tool(run.artifacts.program);
    profile_alone(run, tool);
    benchmark::DoNotOptimize(tool.total_retired());
  }
}
BENCHMARK(BM_VmGprof)->Unit(benchmark::kMillisecond);

// All three profilers sharing one execution through a ProfileSession — the
// single-pass the paper's methodology lacked (it ran each tool separately).
void BM_VmSessionAll(benchmark::State& state) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  for (auto _ : state) {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    session::ProfileSession profile(run.artifacts.program);
    tquad::TQuadTool tquad_tool(run.artifacts.program,
                                tquad::Options{.slice_interval = 5000});
    quad::QuadTool quad_tool(run.artifacts.program);
    gprof::GprofTool gprof_tool(run.artifacts.program, {});
    profile.add_consumer(tquad_tool);
    profile.add_consumer(quad_tool);
    profile.add_consumer(gprof_tool);
    benchmark::DoNotOptimize(profile.run_live(run.host));
  }
}
BENCHMARK(BM_VmSessionAll)->Unit(benchmark::kMillisecond);

double time_once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Print a gate's verdict, and a failure to stderr too. Returns false only
/// on a failure: a skipped gate is not one.
bool conclude(const char* name, const std::string& gate) {
  std::printf("%-44s %s\n", (std::string(name) + " gate").c_str(), gate.c_str());
  if (gate.rfind("failed", 0) != 0) return true;
  std::fprintf(stderr, "%s gate %s\n", name, gate.c_str());
  return false;
}

void print_headline_slowdowns() {
  const wfs::WfsConfig cfg = wfs::WfsConfig::standard();
  const wfs::WavData input = wfs::make_test_signal(cfg.input_samples());

  const double golden_s = time_once([&] {
    benchmark::DoNotOptimize(wfs::run_golden(cfg, input));
  });
  std::uint64_t retired = 0;
  // Uninstrumented baseline on the same (compiled) engine the profiled rows
  // use, so "vs plain VM" is the cost the tools add.
  const double native_s = time_once([&] {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    vm::CompiledMachine machine(run.artifacts.program, run.host);
    retired = machine.run().retired;
  });
  const double tquad_fine_s = time_once([&] {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    tquad::TQuadTool tool(run.artifacts.program, tquad::Options{.slice_interval = 5000});
    profile_alone(run, tool);
  });
  const double tquad_coarse_s = time_once([&] {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    tquad::TQuadTool tool(run.artifacts.program,
                          tquad::Options{.slice_interval = 10'000'000});
    profile_alone(run, tool);
  });
  const double quad_s = time_once([&] {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    quad::QuadTool tool(run.artifacts.program);
    profile_alone(run, tool);
  });

  std::printf("\n== headline slowdowns (standard configuration, %s instructions) ==\n",
              format_count(retired).c_str());
  std::printf("%-28s %10s %18s %18s\n", "configuration", "seconds", "vs native (C++)",
              "vs plain VM");
  auto row = [&](const char* name, double seconds) {
    std::printf("%-28s %10.3f %17.1fx %17.1fx\n", name, seconds, seconds / golden_s,
                seconds / native_s);
  };
  row("golden model (native C++)", golden_s);
  row("VM, uninstrumented", native_s);
  row("VM + tQUAD, slice 5e3", tquad_fine_s);
  row("VM + tQUAD, slice 1e7", tquad_coarse_s);
  row("VM + QUAD", quad_s);
  std::printf("\npaper: instrumented vs native slowdown %.1fx-%.1fx depending on the\n"
              "slice interval and the stack option; the 'vs native' column is the\n"
              "comparable measurement here.\n",
              tq::bench::kPaperSlowdownLow, tq::bench::kPaperSlowdownHigh);
}

/// Single pass vs three passes on the standard configuration, with
/// BENCH_session.json for CI. Both sides run on the same (default compiled)
/// engine: three one-tool sessions against one session feeding all three
/// tools, image preparation included on both sides. Gate: speedup floor
/// 1.8x.
bool print_session_speedup() {
  const wfs::WfsConfig cfg = wfs::WfsConfig::standard();
  const tquad::Options tquad_options{.slice_interval = 5000};
  const bench::RatioBound bound{"speedup", 1.8, true};

  std::uint64_t retired = 0;
  const auto three_pass = [&] {
    return time_once([&] {
      {
        wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
        tquad::TQuadTool tool(run.artifacts.program, tquad_options);
        retired = profile_alone(run, tool);
      }
      {
        wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
        quad::QuadTool tool(run.artifacts.program);
        profile_alone(run, tool);
      }
      {
        wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
        gprof::GprofTool tool(run.artifacts.program);
        profile_alone(run, tool);
      }
    });
  };
  const auto single_pass = [&] {
    return time_once([&] {
      wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
      session::ProfileSession profile(run.artifacts.program);
      tquad::TQuadTool tquad_tool(run.artifacts.program, tquad_options);
      quad::QuadTool quad_tool(run.artifacts.program);
      gprof::GprofTool gprof_tool(run.artifacts.program, {});
      profile.add_consumer(tquad_tool);
      profile.add_consumer(quad_tool);
      profile.add_consumer(gprof_tool);
      profile.run_live(run.host);
    });
  };
  const bench::PairedRuns runs = bench::run_pairs(three_pass, single_pass);
  const std::string gate = bound.verdict(runs.ratio.median);

  std::printf("\n== single-pass session vs separate runs (standard configuration, "
              "%d pairs) ==\n", bench::kPairs);
  bench::print_paired("tquad + quad + gprof, three executions",
                      "tquad + quad + gprof, one ProfileSession", "speedup (floor 1.80x)",
                      runs);

  bench::JsonWriter json;
  json.field("workload", "wfs standard")
      .field("tools", "tquad+quad+gprof")
      .field("retired_instructions", retired);
  bench::write_paired_gate(json, "three_pass_seconds", "single_pass_seconds", runs, bound,
                           gate);
  json.write("BENCH_session.json");
  return conclude("session", gate);
}

/// Serial vs parallel pipeline, with BENCH_pipeline.json for CI.
///
/// The gate runs at full scale: the hash join of 524,288 build rows and
/// 1,048,576 probe rows (about 4 * 10^7 instructions, the benchmark's
/// hashjoin_par3 input), tquad+quad+gprof, serial vs `-pipeline
/// parallel:3`, against the 1.2x floor. The zoo rows below it run at bench
/// scale, where each serial run takes a few milliseconds and thread start
/// and drain dominate; they are recorded for information only.
///
/// The gate needs >= 4 hardware threads: on smaller hosts the parallel run
/// degenerates into context-switched serial execution plus ring traffic,
/// and would measure the scheduler, not the pipeline. There the JSON's
/// `gate` reads "skipped:hw_threads<4".
bool print_pipeline_speedup() {
  const tquad::Options tquad_options{.slice_interval = 5000};
  const bench::RatioBound bound{"speedup", 1.2, true};
  const unsigned cores = std::thread::hardware_concurrency();

  // Image construction stays outside the timed region: the measurement is
  // the profiling run, exactly what a -pipeline switch changes.
  std::uint64_t retired = 0;
  const auto run_session = [&](const vm::Program& program, vm::HostEnv& host,
                               const session::PipelineOptions& pipeline) {
    session::SessionConfig config;
    config.pipeline = pipeline;
    return time_once([&] {
      session::ProfileSession profile(program, config);
      tquad::TQuadTool tquad_tool(program, tquad_options);
      quad::QuadTool quad_tool(program);
      gprof::GprofTool gprof_tool(program, {});
      profile.add_consumer(tquad_tool);
      profile.add_consumer(quad_tool);
      profile.add_consumer(gprof_tool);
      retired = profile.run_live(host).retired;
    });
  };
  const auto parallel = [](unsigned shards) {
    session::PipelineOptions options;
    options.mode = session::PipelineMode::kParallel;
    options.workers = shards;
    return options;
  };

  const workloads::HashJoinArtifacts hashjoin =
      workloads::build_hashjoin(524288, 1048576);
  const auto run_hashjoin = [&](const session::PipelineOptions& pipeline) {
    vm::HostEnv host;
    return run_session(hashjoin.program, host, pipeline);
  };
  const bench::PairedRuns runs = bench::run_pairs([&] { return run_hashjoin({}); },
                                                  [&] { return run_hashjoin(parallel(3)); });
  const std::uint64_t hashjoin_retired = retired;
  const std::string gate =
      cores < 4 ? "skipped:hw_threads<4" : bound.verdict(runs.ratio.median);

  std::vector<std::pair<std::string, bench::PairedRuns>> rows;
  for (const workloads::Entry& entry : workloads::registry()) {
    const auto run_entry = [&](const session::PipelineOptions& pipeline) {
      workloads::Instance instance = entry.build_bench();
      return run_session(instance.program, instance.host, pipeline);
    };
    rows.emplace_back(entry.name,
                      bench::run_pairs([&] { return run_entry({}); },
                                       [&] { return run_entry(parallel(4)); }));
  }

  std::printf("\n== parallel pipeline vs serial dispatch (%u hardware threads) ==\n",
              cores);
  std::printf("gate: hashjoin 524288 x 1048576 (%s instructions), tquad+quad+gprof, "
              "%d pairs\n",
              format_count(hashjoin_retired).c_str(), bench::kPairs);
  bench::print_paired("serial", "parallel:3", "speedup (floor 1.20x)", runs);
  std::printf("zoo at bench scale, medians of %d pairs, for information only:\n",
              bench::kPairs);
  std::printf("%-14s %12s %14s %10s\n", "workload", "serial (s)", "parallel:4 (s)",
              "speedup");
  for (const auto& [name, row] : rows) {
    std::printf("%-14s %12.3f %14.3f %9.2fx\n", name.c_str(), row.a.median, row.b.median,
                row.ratio.median);
  }

  bench::JsonWriter json;
  json.field("layer", "pipeline")
      .field("tools", "tquad+quad+gprof")
      .field("workload", "hashjoin 524288 build rows, 1048576 probe rows")
      .field("retired_instructions", hashjoin_retired)
      .field("pipeline", "parallel:3");
  bench::write_paired_gate(json, "serial_seconds", "parallel3_seconds", runs, bound, gate);
  json.begin_array("zoo_bench_scale_informational");
  for (const auto& [name, row] : rows) {
    json.begin_object()
        .field("name", name)
        .field("serial_seconds", row.a)
        .field("parallel4_seconds", row.b)
        .field("speedup", row.ratio)
        .end_object();
  }
  json.end_array();
  json.write("BENCH_pipeline.json");
  return conclude("pipeline", gate);
}

/// Metrics-enabled overhead, with BENCH_metrics.json for CI.
///
/// The self-observability contract: enabling -metrics must cost < 2% wall
/// time, because the hot path only bumps plain always-on counters — the
/// registry is touched once, after the run. The ratio is metrics-on over
/// metrics-off, rendering included, and its ceiling is 1.02.
bool print_metrics_overhead() {
  const wfs::WfsConfig cfg = wfs::WfsConfig::standard();
  const tquad::Options tquad_options{.slice_interval = 5000};
  const bench::RatioBound bound{"metrics_over_plain", 1.02, false};

  const auto run_session = [&](metrics::Registry* registry) {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    session::SessionConfig config;
    config.metrics = registry;
    session::ProfileSession profile(run.artifacts.program, config);
    tquad::TQuadTool tquad_tool(run.artifacts.program, tquad_options);
    quad::QuadTool quad_tool(run.artifacts.program);
    gprof::GprofTool gprof_tool(run.artifacts.program, {});
    profile.add_consumer(tquad_tool);
    profile.add_consumer(quad_tool);
    profile.add_consumer(gprof_tool);
    profile.run_live(run.host);
    if (registry != nullptr) {
      quad_tool.publish_metrics(*registry);
      benchmark::DoNotOptimize(registry->render_json());
    }
  };
  const bench::PairedRuns runs = bench::run_pairs(
      [&] {
        return time_once([&] {
          metrics::Registry registry;
          run_session(&registry);
        });
      },
      [&] { return time_once([&] { run_session(nullptr); }); });
  const std::string gate = bound.verdict(runs.ratio.median);

  std::printf("\n== metrics-enabled overhead (standard configuration, %d pairs) ==\n",
              bench::kPairs);
  bench::print_paired("session, metrics on (incl. rendering)", "session, metrics off",
                      "metrics on / off (ceiling 1.02x)", runs);

  bench::JsonWriter json;
  json.field("workload", "wfs standard").field("tools", "tquad+quad+gprof");
  bench::write_paired_gate(json, "metrics_seconds", "plain_seconds", runs, bound, gate);
  json.write("BENCH_metrics.json");
  return conclude("metrics", gate);
}

/// Keeps a copy of every batch of an access-only session: stretch headers,
/// access records and the end marker, as the attribution encoded them.
class BatchRecorder final : public session::AnalysisConsumer {
 public:
  unsigned event_interests() const override { return kAccessInterest; }
  void on_batch(unsigned, const session::Batch& batch) override {
    session::Batch& copy = batches.emplace_back(batch.size);
    std::copy_n(batch.records.get(), batch.size, copy.records.get());
    copy.size = batch.size;
    for (std::size_t r = 0; r < batch.size; ++r) {
      if ((batch.records[r].tag & session::kKindMask) == session::kAccess) ++accesses;
    }
  }
  std::vector<session::Batch> batches;
  std::uint64_t accesses = 0;
};

/// QUAD's access accounting alone, with BENCH_quad.json: wfs standard's
/// access stream is recorded once as the session's batches, then each rep
/// hands them to a fresh QuadTool's on_batch, so guest execution and
/// attribution stay out of the number. ns_per_access divides by every access
/// record (prefetches and unattributed ones, which QUAD skips, included).
/// There is no second variant, so it has no gate.
void print_quad_replay() {
  const wfs::WfsConfig cfg = wfs::WfsConfig::standard();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  BatchRecorder recorder;
  profile_alone(run, recorder);

  std::vector<double> ns_per_access;
  for (int rep = 0; rep < bench::kPairs; ++rep) {
    quad::QuadTool tool(run.artifacts.program);
    const double seconds = time_once([&] {
      for (const session::Batch& batch : recorder.batches) {
        tool.on_batch(session::AnalysisConsumer::kAccessInterest, batch);
      }
    });
    benchmark::DoNotOptimize(tool.bindings());
    ns_per_access.push_back(seconds * 1e9 / static_cast<double>(recorder.accesses));
  }
  const bench::Summary summary = bench::summarize(std::move(ns_per_access));

  std::printf("\n== QUAD access accounting (wfs standard, %s accesses in %zu batches "
              "replayed, %d reps) ==\n", format_count(recorder.accesses).c_str(),
              recorder.batches.size(), bench::kPairs);
  std::printf("%-44s %8.2f ns  (q1 %.2f, q3 %.2f)\n", "per access, median",
              summary.median, summary.q1, summary.q3);

  bench::JsonWriter json;
  json.field("layer", "quad")
      .field("workload", "wfs standard")
      .field("delivery", "stretch batches through on_batch")
      .field("accesses", recorder.accesses)
      .field("batches", recorder.batches.size())
      .field("reps", bench::kPairs)
      .field("ns_per_access", summary);
  json.write("BENCH_quad.json");
}

/// One uninstrumented run of `cfg` on `Machine`, image preparation outside
/// the timed region.
template <typename Machine>
double time_bare(const wfs::WfsConfig& cfg, std::uint64_t& retired) {
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  return time_once([&] {
    Machine machine(run.artifacts.program, run.host);
    retired = machine.run().retired;
  });
}

/// Compiled engine vs interpreter, with BENCH_jit.json for CI.
///
/// Two comparisons on the standard wfs configuration:
///   * end to end: a full tQUAD profiling session (slice 5000) — guest
///     execution, attribution, and tool accounting included. This is the
///     gated one (floor 2.5x, target 3x): the compiled engine batches
///     the ticks between two attribution boundaries into one span where
///     the interpreter emits one per instruction, but both pay the shared
///     per-access event cost.
///   * bare: the uninstrumented VM, where threaded dispatch by straight-line
///     runs goes free of any event traffic — the engine's raw dispatch win.
///     Recorded for information only.
bool print_jit_speedup() {
  const wfs::WfsConfig cfg = wfs::WfsConfig::standard();
  const tquad::Options tquad_options{.slice_interval = 5000};
  const bench::RatioBound bound{"end_to_end_speedup", 2.5, true};
  constexpr double kTarget = 3.0;

  // Workload construction (program build + host wiring) is hoisted out of
  // every timed region: the measurement is the run itself — lowering, guest
  // execution and, end to end, attribution and tool accounting — exactly
  // what an -engine switch changes for a loaded image.
  const auto run_session = [&](vm::EngineKind kind) {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    session::SessionConfig config;
    config.engine = kind;
    return time_once([&] {
      session::ProfileSession profile(run.artifacts.program, config);
      tquad::TQuadTool tool(run.artifacts.program, tquad_options);
      profile.add_consumer(tool);
      benchmark::DoNotOptimize(profile.run_live(run.host));
    });
  };
  std::uint64_t retired = 0;

  const bench::PairedRuns end_to_end =
      bench::run_pairs([&] { return run_session(vm::EngineKind::kInterp); },
                       [&] { return run_session(vm::EngineKind::kCompiled); });
  const bench::PairedRuns bare =
      bench::run_pairs([&] { return time_bare<vm::Machine>(cfg, retired); },
                       [&] { return time_bare<vm::CompiledMachine>(cfg, retired); });
  const std::string gate = bound.verdict(end_to_end.ratio.median);

  std::printf("\n== compiled engine vs interpreter (standard configuration, "
              "%s instructions, %d pairs) ==\n", format_count(retired).c_str(),
              bench::kPairs);
  bench::print_paired("tQUAD session, -engine interp", "tQUAD session, -engine compiled",
                      "end-to-end speedup (floor 2.50x)", end_to_end);
  bench::print_paired("bare VM, interpreter", "bare VM, compiled", "bare dispatch speedup",
                      bare);

  bench::JsonWriter json;
  json.field("workload", "wfs standard")
      .field("tools", "tquad")
      .field("retired_instructions", retired)
      .field("bare_interp_seconds", bare.a)
      .field("bare_compiled_seconds", bare.b)
      .field("bare_speedup", bare.ratio)
      .field("end_to_end_speedup_target", kTarget);
  bench::write_paired_gate(json, "interp_seconds", "compiled_seconds", end_to_end, bound,
                           gate);
  json.write("BENCH_jit.json");
  return conclude("jit", gate);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_headline_slowdowns();
  const bool session_ok = print_session_speedup();
  const bool pipeline_ok = print_pipeline_speedup();
  const bool metrics_ok = print_metrics_overhead();
  const bool jit_ok = print_jit_speedup();
  print_quad_replay();
  return session_ok && pipeline_ok && metrics_ok && jit_ok ? 0 : 1;
}
