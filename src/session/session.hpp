// ProfileSession: one execution, one attribution pass, N tools.
//
// The paper assembled its tables from four separate executions of the same
// application (gprof, QUAD, gprof-of-QUAD, tQUAD). A ProfileSession runs the
// guest once — or replays a recorded trace — and feeds any subset of the
// tools simultaneously through the shared KernelAttribution service:
//
//   EventSource (live Engine | TQTR replay)
//        └─> KernelAttribution (one CallStack, one policy, one classifier)
//              ├─> tquad::TQuadTool
//              ├─> quad::QuadTool
//              ├─> gprof::GprofTool
//              └─> trace::TraceRecorder
//
// Tools are consumers only: none keeps its own call stack. Each must be
// built with the same library policy as the session — the shared stack is
// the single source of attribution truth, and a tool's own policy only
// feeds its static reported() table.
#pragma once

#include <chrono>
#include <csignal>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "session/attribution.hpp"
#include "session/event_source.hpp"
#include "session/pipeline.hpp"
#include "vm/host_env.hpp"
#include "vm/program.hpp"

namespace tq::session {

struct SessionConfig {
  tquad::LibraryPolicy library_policy = tquad::LibraryPolicy::kExclude;
  std::uint64_t instruction_budget = 0;  ///< live runs only; 0 = unlimited
  vm::FaultPlan fault_plan;              ///< live runs only; default disarmed
  /// Which execution engine runs live guests. The compiled fused-op engine
  /// is the default; the interpreter remains as the reference
  /// (`-engine interp`). Reports are byte-identical either way.
  vm::EngineKind engine = vm::EngineKind::kCompiled;
  PipelineOptions pipeline;              ///< serial (inline consumers) by default
  /// Optional self-observability: when set, the session publishes its event
  /// counts (and, for parallel runs, the pipeline's ring/worker/shard
  /// telemetry) into the registry after the drain barrier. Never touches
  /// report output.
  metrics::Registry* metrics = nullptr;
  /// Print a one-line progress pulse to stderr every this many retired
  /// instructions (0 = off). The final pulse carries the run status, so
  /// PARTIAL/trap exits are visible too.
  std::uint64_t heartbeat_interval = 0;
  /// Cooperative interruption: when non-null and `*interrupt` becomes
  /// nonzero (typically from a SIGINT/SIGTERM handler), the run stops at the
  /// next retirement boundary (live) or block boundary (replay) with
  /// RunStatus::kInterrupted. Every consumer still sees on_finish, so
  /// recorders finalize and reports can stamp INTERRUPTED. The flag must
  /// outlive the run.
  const volatile std::sig_atomic_t* interrupt = nullptr;
};

/// The heartbeat consumer. Registered directly with the KernelAttribution —
/// never behind a pipeline lane — so it observes the stream inline on the
/// VM thread in both serial and parallel modes; its O(1) on_tick_run keeps
/// it off the report path entirely (stderr only).
class HeartbeatPrinter final : public AnalysisConsumer {
 public:
  /// Start pulsing every `every` retired instructions from now.
  void arm(std::uint64_t every);

  unsigned event_interests() const override { return kTickInterest; }
  void on_tick(const TickEvent& event) override {
    pulse_to(event.retired + 1);
  }
  void on_tick_run(const TickRunEvent& run) override {
    pulse_to(run.first_retired + run.count);
  }
  void on_finish(const vm::RunOutcome& outcome) override;

 private:
  void pulse_to(std::uint64_t retired);
  double elapsed_seconds() const;

  std::uint64_t every_ = 0;
  std::uint64_t next_ = 0;
  std::chrono::steady_clock::time_point start_{};
  // Throughput since the previous pulse (Minstr/s in the pulse line).
  std::uint64_t last_retired_ = 0;
  std::chrono::steady_clock::time_point last_pulse_{};
};

class ProfileSession {
 public:
  explicit ProfileSession(const vm::Program& program, SessionConfig config = {});

  ProfileSession(const ProfileSession&) = delete;
  ProfileSession& operator=(const ProfileSession&) = delete;

  /// Register a tool (before run). Dispatch follows add order.
  void add_consumer(AnalysisConsumer& consumer);

  /// Drive `source` through the attribution pass. Single-shot. Returns the
  /// structured outcome: guest traps and budget truncation come back as
  /// statuses — every consumer has already been flushed and notified via
  /// on_finish() — while host/tool errors throw.
  vm::RunOutcome run(EventSource& source);

  /// Execute the guest once under live instrumentation.
  vm::RunOutcome run_live(vm::HostEnv& host);

  /// Replay a recorded TQTR byte image (v1 or v2, auto-detected). With
  /// `salvage`, corrupt or truncated v2 blocks are skipped instead of
  /// failing the replay (see TraceV2View::salvage); the recovery details
  /// are in salvage_report() afterwards.
  vm::RunOutcome replay(std::span<const std::uint8_t> trace_bytes,
                        bool salvage = false);

  const vm::Program& program() const noexcept { return attribution_.program(); }
  const SessionConfig& config() const noexcept { return config_; }
  const KernelAttribution& attribution() const noexcept { return attribution_; }
  std::uint64_t total_retired() const noexcept { return outcome_.retired; }
  /// The outcome of the completed run (valid after run/run_live/replay).
  const vm::RunOutcome& outcome() const noexcept { return outcome_; }
  /// What a salvage replay recovered (zero-valued otherwise).
  const trace::SalvageReport& salvage_report() const noexcept {
    return salvage_report_;
  }

  /// Ring traffic of a completed parallel run (zero-valued for serial runs).
  const PipelineStats& pipeline_stats() const noexcept { return pipeline_stats_; }

 private:
  void publish_metrics();

  SessionConfig config_;
  KernelAttribution attribution_;
  std::vector<AnalysisConsumer*> consumers_;  ///< registered at run()
  vm::RunOutcome outcome_;
  trace::SalvageReport salvage_report_;
  PipelineStats pipeline_stats_;
  HeartbeatPrinter heartbeat_;
  bool ran_ = false;
};

}  // namespace tq::session
