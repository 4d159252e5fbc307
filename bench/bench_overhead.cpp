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
// slowdown table.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/metrics.hpp"
#include "tquad/tquad_tool.hpp"
#include "vm/compiled.hpp"
#include "wfs/runner.hpp"
#include "workloads/registry.hpp"

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

/// One-shot single-pass-vs-three-pass comparison on the standard
/// configuration, with a machine-readable BENCH_session.json for CI. Both
/// sides run on the same (default compiled) engine: three one-tool sessions
/// against one session feeding all three tools. Returns false if the
/// combined session fails the 1.8x speedup floor.
bool print_session_speedup() {
  const wfs::WfsConfig cfg = wfs::WfsConfig::standard();
  const tquad::Options tquad_options{.slice_interval = 5000};
  // Best of a few repetitions per variant: the comparison is between two
  // deterministic single-threaded runs, so min is the noise-robust statistic.
  constexpr int kReps = 3;

  std::uint64_t retired = 0;
  double three_pass_s = 0.0;
  double single_pass_s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double three = time_once([&] {
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

    const double single = time_once([&] {
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

    if (rep == 0 || three < three_pass_s) three_pass_s = three;
    if (rep == 0 || single < single_pass_s) single_pass_s = single;
  }

  const double speedup = three_pass_s / single_pass_s;
  std::printf("\n== single-pass session vs separate runs (standard configuration) ==\n");
  std::printf("%-44s %10.3f s\n", "tquad + quad + gprof, three executions",
              three_pass_s);
  std::printf("%-44s %10.3f s\n", "tquad + quad + gprof, one ProfileSession",
              single_pass_s);
  std::printf("%-44s %9.2fx  (floor 1.80x)\n", "speedup", speedup);

  std::FILE* json = std::fopen("BENCH_session.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    tq::bench::write_env_json_fields(json);
    std::fprintf(json,
                 "  \"workload\": \"wfs standard\",\n"
                 "  \"retired_instructions\": %llu,\n"
                 "  \"three_pass_seconds\": %.6f,\n"
                 "  \"single_pass_seconds\": %.6f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"speedup_floor\": 1.8\n"
                 "}\n",
                 static_cast<unsigned long long>(retired), three_pass_s,
                 single_pass_s, speedup);
    std::fclose(json);
    std::printf("wrote BENCH_session.json\n");
  }
  if (speedup < 1.8) {
    std::fprintf(stderr, "session speedup %.2fx below the 1.80x floor\n", speedup);
    return false;
  }
  return true;
}

/// One-shot serial-vs-parallel pipeline comparison across the whole
/// workload zoo at bench scale, with a machine-readable BENCH_pipeline.json
/// for CI.
///
/// Per workload: best-of-kReps serial vs `-pipeline parallel:4` minima with
/// the measurement order alternating every rep (so clock/load drift over
/// the window biases both variants equally instead of always penalising
/// whichever runs second). The gate requires parallel:4 >= 1.2x serial on
/// at least (zoo - 2) workloads — the pipeline must win across memory
/// shapes, not just on one streaming-friendly case.
///
/// The floor is enforced only when the machine actually has >= 4 hardware
/// threads: on smaller hosts (CI containers are often single-core) the
/// parallel run degenerates into context-switched serial execution plus
/// ring traffic, and the gate would measure the scheduler, not the
/// pipeline. A skip is never silent: the JSON records
/// `"gate": "skipped:hw_threads<4"` and the skip is printed to stderr.
bool print_pipeline_speedup() {
  const tquad::Options tquad_options{.slice_interval = 5000};
  constexpr int kReps = 3;
  constexpr double kFloor = 1.2;
  const unsigned cores = std::thread::hardware_concurrency();
  const bool gate_applicable = cores >= 4;

  const auto run_zoo_session = [&](const workloads::Entry& entry,
                                   const session::PipelineOptions& pipeline) {
    // Workload construction stays outside the timed region: the measurement
    // is the profiling run, exactly what a -pipeline switch changes.
    workloads::Instance instance = entry.build_bench();
    session::SessionConfig config;
    config.pipeline = pipeline;
    return time_once([&] {
      session::ProfileSession profile(instance.program, config);
      tquad::TQuadTool tquad_tool(instance.program, tquad_options);
      quad::QuadTool quad_tool(instance.program);
      gprof::GprofTool gprof_tool(instance.program, {});
      profile.add_consumer(tquad_tool);
      profile.add_consumer(quad_tool);
      profile.add_consumer(gprof_tool);
      benchmark::DoNotOptimize(profile.run_live(instance.host));
    });
  };
  session::PipelineOptions par4;
  par4.mode = session::PipelineMode::kParallel;
  par4.workers = 4;

  struct Row {
    std::string name;
    double serial_s = 0.0;
    double par4_s = 0.0;
    double speedup() const { return serial_s / par4_s; }
  };
  std::vector<Row> rows;
  const auto& zoo = workloads::registry();
  rows.reserve(zoo.size());
  for (const workloads::Entry& entry : zoo) {
    Row row;
    row.name = entry.name;
    for (int rep = 0; rep < kReps; ++rep) {
      double serial, par;
      if (rep % 2 == 0) {
        serial = run_zoo_session(entry, {});
        par = run_zoo_session(entry, par4);
      } else {
        par = run_zoo_session(entry, par4);
        serial = run_zoo_session(entry, {});
      }
      if (rep == 0 || serial < row.serial_s) row.serial_s = serial;
      if (rep == 0 || par < row.par4_s) row.par4_s = par;
    }
    rows.push_back(row);
  }

  std::size_t winners = 0;
  for (const Row& row : rows) {
    if (row.speedup() >= kFloor) ++winners;
  }
  const std::size_t needed = zoo.size() > 2 ? zoo.size() - 2 : zoo.size();
  const char* gate = gate_applicable ? "enforced" : "skipped:hw_threads<4";

  std::printf("\n== parallel pipeline vs serial dispatch (zoo at bench scale, "
              "%u hardware threads) ==\n", cores);
  std::printf("%-14s %12s %14s %10s\n", "workload", "serial (s)",
              "parallel:4 (s)", "speedup");
  for (const Row& row : rows) {
    std::printf("%-14s %12.3f %14.3f %9.2fx%s\n", row.name.c_str(),
                row.serial_s, row.par4_s, row.speedup(),
                row.speedup() >= kFloor ? "" : "  (below floor)");
  }
  std::printf("%-44s %zu of %zu >= %.2fx (need %zu; gate %s)\n",
              "parallel:4 floor", winners, rows.size(), kFloor, needed, gate);
  if (!gate_applicable) {
    std::fprintf(stderr,
                 "pipeline gate skipped: %u hardware threads < 4, parallel:4 "
                 "would measure the scheduler\n",
                 cores);
  }

  std::FILE* json = std::fopen("BENCH_pipeline.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    tq::bench::write_env_json_fields(json);
    std::fprintf(json,
                 "  \"tools\": \"tquad+quad+gprof\",\n"
                 "  \"hardware_threads\": %u,\n"
                 "  \"speedup_floor\": %.2f,\n"
                 "  \"workloads_at_floor\": %zu,\n"
                 "  \"workloads_needed\": %zu,\n"
                 "  \"gate\": \"%s\",\n"
                 "  \"workloads\": [\n",
                 cores, kFloor, winners, needed, gate);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(json,
                   "    {\"name\": \"%s\", \"serial_seconds\": %.6f, "
                   "\"parallel4_seconds\": %.6f, \"speedup\": %.3f}%s\n",
                   row.name.c_str(), row.serial_s, row.par4_s, row.speedup(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_pipeline.json\n");
  }
  if (gate_applicable && winners < needed) {
    std::fprintf(stderr,
                 "parallel:4 at the %.2fx floor on only %zu of %zu zoo "
                 "workloads (need %zu)\n",
                 kFloor, winners, rows.size(), needed);
    return false;
  }
  return true;
}

/// One-shot metrics-overhead measurement, with BENCH_metrics.json for CI.
///
/// The self-observability contract: enabling -metrics must cost < 2% wall
/// time, because the hot path only bumps plain always-on counters — the
/// registry is touched once, after the run. Best-of-N minima keep the gate
/// noise-robust on loaded CI hosts.
bool print_metrics_overhead() {
  const wfs::WfsConfig cfg = wfs::WfsConfig::standard();
  const tquad::Options tquad_options{.slice_interval = 5000};
  constexpr int kReps = 5;
  constexpr double kCeiling = 0.02;  // 2%

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

  double plain_s = 0.0;
  double metered_s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    // Alternate the order each rep: clock-frequency / load drift over the
    // measurement window then biases both variants equally instead of
    // always penalising whichever runs second.
    const auto measure_plain = [&] { return time_once([&] { run_session(nullptr); }); };
    const auto measure_metered = [&] {
      return time_once([&] {
        metrics::Registry registry;
        run_session(&registry);
      });
    };
    double plain, metered;
    if (rep % 2 == 0) {
      plain = measure_plain();
      metered = measure_metered();
    } else {
      metered = measure_metered();
      plain = measure_plain();
    }
    if (rep == 0 || plain < plain_s) plain_s = plain;
    if (rep == 0 || metered < metered_s) metered_s = metered;
  }

  const double overhead = metered_s / plain_s - 1.0;
  std::printf("\n== metrics-enabled overhead (standard configuration) ==\n");
  std::printf("%-44s %10.3f s\n", "session, metrics off", plain_s);
  std::printf("%-44s %10.3f s\n", "session, metrics on (incl. rendering)",
              metered_s);
  std::printf("%-44s %9.2f%%  (ceiling %.0f%%)\n", "overhead", overhead * 100.0,
              kCeiling * 100.0);

  std::FILE* json = std::fopen("BENCH_metrics.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    tq::bench::write_env_json_fields(json);
    std::fprintf(json,
                 "  \"workload\": \"wfs standard\",\n"
                 "  \"tools\": \"tquad+quad+gprof\",\n"
                 "  \"plain_seconds\": %.6f,\n"
                 "  \"metrics_seconds\": %.6f,\n"
                 "  \"overhead_fraction\": %.4f,\n"
                 "  \"overhead_ceiling\": %.2f\n"
                 "}\n",
                 plain_s, metered_s, overhead, kCeiling);
    std::fclose(json);
    std::printf("wrote BENCH_metrics.json\n");
  }
  if (overhead >= kCeiling) {
    std::fprintf(stderr, "metrics overhead %.2f%% at or above the %.0f%% ceiling\n",
                 overhead * 100.0, kCeiling * 100.0);
    return false;
  }
  return true;
}

/// One-shot compiled-vs-interpreter comparison, with BENCH_jit.json for CI.
///
/// Two measurements on the standard wfs configuration:
///   * end-to-end: a full tQUAD profiling session (slice 5000) — guest
///     execution, attribution, and tool accounting included. This is the
///     gated number (floor 2.5x, target 3x): the compiled engine batches
///     the ticks between two attribution boundaries into one span where
///     the interpreter emits one per instruction, but both pay the shared
///     per-access event cost.
///   * bare: the uninstrumented VM, where fused-op threaded dispatch runs
///     free of any event traffic — the engine's raw dispatch win.
bool print_jit_speedup() {
  const wfs::WfsConfig cfg = wfs::WfsConfig::standard();
  const tquad::Options tquad_options{.slice_interval = 5000};
  constexpr int kReps = 3;
  constexpr double kFloor = 2.5;
  constexpr double kTarget = 3.0;

  // Workload construction (program build + host wiring) is hoisted out of
  // every timed region: the measurement is the profiling run itself —
  // lowering, guest execution, attribution, and tool
  // accounting — exactly what an -engine switch changes for a loaded image.
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
  double interp_s = 0.0;
  double compiled_s = 0.0;
  double bare_interp_s = 0.0;
  double bare_compiled_s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const double interp = run_session(vm::EngineKind::kInterp);
    const double compiled = run_session(vm::EngineKind::kCompiled);
    const double bare_interp = [&] {
      wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
      return time_once([&] {
        vm::Machine machine(run.artifacts.program, run.host);
        retired = machine.run().retired;
      });
    }();
    const double bare_compiled = [&] {
      wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
      return time_once([&] {
        vm::CompiledMachine machine(run.artifacts.program, run.host);
        benchmark::DoNotOptimize(machine.run());
      });
    }();
    if (rep == 0 || interp < interp_s) interp_s = interp;
    if (rep == 0 || compiled < compiled_s) compiled_s = compiled;
    if (rep == 0 || bare_interp < bare_interp_s) bare_interp_s = bare_interp;
    if (rep == 0 || bare_compiled < bare_compiled_s) bare_compiled_s = bare_compiled;
  }

  const double speedup = interp_s / compiled_s;
  const double bare_speedup = bare_interp_s / bare_compiled_s;
  std::printf("\n== compiled engine vs interpreter (standard configuration, "
              "%s instructions) ==\n", format_count(retired).c_str());
  std::printf("%-44s %10.3f s  (%.1f Minstr/s)\n", "tQUAD session, -engine interp",
              interp_s, static_cast<double>(retired) / 1e6 / interp_s);
  std::printf("%-44s %10.3f s  (%.1f Minstr/s)\n", "tQUAD session, -engine compiled",
              compiled_s, static_cast<double>(retired) / 1e6 / compiled_s);
  std::printf("%-44s %9.2fx  (floor %.2fx, target %.2fx)\n", "end-to-end speedup",
              speedup, kFloor, kTarget);
  std::printf("%-44s %10.3f s\n", "bare VM, interpreter", bare_interp_s);
  std::printf("%-44s %10.3f s\n", "bare VM, compiled", bare_compiled_s);
  std::printf("%-44s %9.2fx\n", "bare dispatch speedup", bare_speedup);

  std::FILE* json = std::fopen("BENCH_jit.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n");
    tq::bench::write_env_json_fields(json);
    std::fprintf(json,
                 "  \"workload\": \"wfs standard\",\n"
                 "  \"tools\": \"tquad\",\n"
                 "  \"retired_instructions\": %llu,\n"
                 "  \"interp_seconds\": %.6f,\n"
                 "  \"compiled_seconds\": %.6f,\n"
                 "  \"end_to_end_speedup\": %.3f,\n"
                 "  \"bare_interp_seconds\": %.6f,\n"
                 "  \"bare_compiled_seconds\": %.6f,\n"
                 "  \"bare_speedup\": %.3f,\n"
                 "  \"speedup_floor\": %.2f,\n"
                 "  \"speedup_target\": %.2f\n"
                 "}\n",
                 static_cast<unsigned long long>(retired), interp_s, compiled_s,
                 speedup, bare_interp_s, bare_compiled_s, bare_speedup, kFloor,
                 kTarget);
    std::fclose(json);
    std::printf("wrote BENCH_jit.json\n");
  }
  if (speedup < kFloor) {
    std::fprintf(stderr, "compiled-engine speedup %.2fx below the %.2fx floor\n",
                 speedup, kFloor);
    return false;
  }
  return true;
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
  return session_ok && pipeline_ok && metrics_ok && jit_ok ? 0 : 1;
}
