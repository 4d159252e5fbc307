// ProfileSession: one execution, one attribution pass, N tools.
//
// The paper assembled its tables from four separate executions of the same
// application (gprof, QUAD, gprof-of-QUAD, tQUAD). A ProfileSession runs the
// guest once — or replays a recorded trace — and feeds any subset of the
// tools simultaneously through the shared KernelAttribution service:
//
//   EventSource (live Engine | TQTR replay)
//        └─> KernelAttribution (one CallStack, one policy, one classifier)
//              │  one batch of 32-byte records, each event encoded once
//              ├─> tquad::TQuadTool
//              ├─> quad::QuadTool
//              ├─> gprof::GprofTool
//              └─> trace::TraceRecorder
//
// Serial mode delivers each full batch to the tools on the VM thread;
// parallel mode shares the same batch with one reader thread per tool (and
// per QUAD page shard) through the ParallelPipeline.
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
  /// Which execution engine runs live guests. The compiled engine is the
  /// default; the interpreter remains as the reference (`-engine interp`).
  /// Reports are byte-identical either way.
  vm::EngineKind engine = vm::EngineKind::kCompiled;
  PipelineOptions pipeline;              ///< serial (inline consumers) by default
  /// Optional self-observability: when set, the session publishes its event
  /// counts (and, for parallel runs, the pipeline's ring and shard
  /// telemetry) into the registry after the drain barrier. Never touches
  /// report output.
  metrics::Registry* metrics = nullptr;
  /// Print a one-line progress pulse to stderr every this many retired
  /// instructions (0 = off). The final pulse carries the run status, so
  /// PARTIAL/trap exits are visible too.
  std::uint64_t heartbeat_interval = 0;
  /// Cooperative interruption: when non-null and `*interrupt` becomes
  /// nonzero (typically from a SIGINT/SIGTERM handler), the run stops at the
  /// next run head (compiled engine, within vm::kRunCap instructions), the
  /// next instruction (interpreter) or the next block boundary (replay) with
  /// RunStatus::kInterrupted. Every consumer still sees on_finish, so
  /// recorders finalize and reports can stamp INTERRUPTED. The flag must
  /// outlive the run.
  const volatile std::sig_atomic_t* interrupt = nullptr;
};

/// The heartbeat consumer. Attached to the KernelAttribution itself — never
/// behind a pipeline reader — so in both serial and parallel modes it is
/// delivered at each batch flush on the VM thread: a pulse can come up to one
/// batch late, but none is dropped. Its O(1) on_tick_run keeps it off the
/// report path entirely (stderr only).
class HeartbeatPrinter final : public AnalysisConsumer {
 public:
  /// Start pulsing every `every` retired instructions from now.
  void arm(std::uint64_t every);

  unsigned event_interests() const override { return kTickInterest; }
  void on_tick_run(const TickRunEvent& run) override {
    pulse_to(run.first_retired + run.count);
  }
  void on_finish(const vm::RunOutcome& outcome) override;
  void on_batch(unsigned interests, const Batch& batch) override {
    deliver(*this, interests, batch);
  }

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

  /// Replay a recorded TQTR v2 byte image; any other version throws
  /// tq::Error. With `salvage`, corrupt or truncated blocks are skipped
  /// instead of failing the replay (see TraceV2View::salvage); the recovery
  /// details are in salvage_report() afterwards.
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
  void publish_metrics(const EventSource& source);

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
