// Event sources: where a profiling session's raw event stream comes from.
//
// Two implementations of one interface, so every tool runs online or
// offline without code changes:
//   * LiveEngineSource — executes the guest on either engine, forwarding its
//     vm::EventSink stream (entries / ticks / accesses / returns, as they
//     retire) into the attribution service;
//   * TraceReplaySource — reconstructs the same event stream from a recorded
//     TQTR v2 trace, including the per-instruction ticks the trace does not
//     store explicitly (see event_source.cpp).
#pragma once

#include <csignal>
#include <cstdint>
#include <memory>
#include <span>

#include "session/attribution.hpp"
#include "trace/trace_v2.hpp"
#include "vm/engine.hpp"
#include "vm/host_env.hpp"
#include "vm/machine.hpp"
#include "vm/program.hpp"

namespace tq {
namespace metrics {
class Registry;
}  // namespace metrics
namespace vm {
class CompiledMachine;
}  // namespace vm
}  // namespace tq

namespace tq::session {

/// A source of raw profiling events. run() drives the whole stream through
/// `attribution` (enter/tick/access/ret in retirement order, then
/// input_finish on every path — including guest traps and truncation) and
/// returns the structured outcome. Only host/tool errors throw.
class EventSource {
 public:
  virtual ~EventSource() = default;
  virtual const vm::Program& program() const noexcept = 0;
  virtual vm::RunOutcome run(KernelAttribution& attribution) = 0;
  /// Publish the source's own gauges after run() (none by default).
  virtual void publish_metrics(metrics::Registry& /*registry*/) const {}
};

/// Executes the guest once, forwarding its vm::EventSink stream into the
/// attribution service. Single-shot, like the engine it owns. With
/// EngineKind::kCompiled (the default) the guest runs on the compiled
/// threaded-dispatch engine, which batches ticks into spans; with
/// EngineKind::kInterp it runs on the reference interpreter, which emits
/// one-tick spans. Both produce byte-identical consumer-visible streams.
class LiveEngineSource final : public EventSource {
 public:
  LiveEngineSource(const vm::Program& program, vm::HostEnv& host,
                   std::uint64_t instruction_budget = 0,
                   vm::EngineKind engine = vm::EngineKind::kCompiled);

  /// Arm deterministic fault injection on the underlying engine.
  void set_fault_plan(const vm::FaultPlan& plan) noexcept {
    engine_->set_fault_plan(plan);
  }

  /// Arm cooperative interruption on the underlying engine (see
  /// vm::GuestEngine::set_interrupt_flag).
  void set_interrupt_flag(const volatile std::sig_atomic_t* flag) noexcept {
    engine_->set_interrupt_flag(flag);
  }

  const vm::Program& program() const noexcept override { return program_; }
  vm::RunOutcome run(KernelAttribution& attribution) override;
  /// The compiled engine's lowering totals (`vm.lowered.*`); nothing for
  /// the interpreter.
  void publish_metrics(metrics::Registry& registry) const override;

 private:
  const vm::Program& program_;
  std::unique_ptr<vm::GuestEngine> engine_;
  const vm::CompiledMachine* compiled_ = nullptr;  ///< engine_, if compiled
  bool ran_ = false;
};

/// Replays a recorded TQTR v2 byte image as a live-equivalent event stream
/// (other versions throw tq::Error). The trace must have been recorded from
/// `program` (kernel counts are cross-checked); it streams block-by-block,
/// so memory stays bounded.
///
/// Attribution is re-derived from the recorded enter/ret events — the
/// pre-attributed kernel fields in the records are ignored — so a trace can
/// replay under any library policy. Ticks arrive as tick runs, like live.
/// One caveat: predicated-off instructions leave no records, so their
/// replayed ticks never count toward a run's mem_count (see
/// docs/FORMATS.md, "Replaying full profiles").
class TraceReplaySource final : public EventSource {
 public:
  TraceReplaySource(std::span<const std::uint8_t> bytes, const vm::Program& program,
                    bool salvage = false);

  /// Arm cooperative interruption: the replay checks the flag between
  /// blocks and stops with kInterrupted; the events fed so far are a valid
  /// prefix.
  void set_interrupt_flag(const volatile std::sig_atomic_t* flag) noexcept {
    interrupt_ = flag;
  }

  const vm::Program& program() const noexcept override { return program_; }
  vm::RunOutcome run(KernelAttribution& attribution) override;

  /// After a salvage-mode run: what the decoder recovered vs. dropped
  /// (zero-valued when the trace was clean).
  const trace::SalvageReport& salvage_report() const noexcept {
    return salvage_report_;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  const vm::Program& program_;
  trace::SalvageReport salvage_report_;
  const volatile std::sig_atomic_t* interrupt_ = nullptr;
  bool salvage_ = false;
  bool ran_ = false;
};

}  // namespace tq::session
