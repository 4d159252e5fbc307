// Event sources: where a profiling session's raw event stream comes from.
//
// Two implementations of one interface, so every tool runs online or
// offline without code changes:
//   * LiveEngineSource — executes the guest on either engine, forwarding its
//     vm::EventSink stream (entries / ticks / accesses / returns, as they
//     retire) into the attribution service;
//   * TraceReplaySource — reconstructs the same event stream from a recorded
//     TQTR trace (v1 or v2, auto-detected), including the per-instruction
//     ticks the trace does not store explicitly (see event_source.cpp).
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
};

/// Executes the guest once, forwarding its vm::EventSink stream into the
/// attribution service. Single-shot, like the engine it owns. With
/// EngineKind::kCompiled (the default) the guest runs on the fused-op
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

 private:
  const vm::Program& program_;
  std::unique_ptr<vm::GuestEngine> engine_;
  bool ran_ = false;
};

/// Replays a recorded TQTR byte image (v1 flat or v2 blocked, auto-detected
/// from the header) as a live-equivalent event stream. The trace must have
/// been recorded from `program` (kernel counts are cross-checked); v2
/// traces stream block-by-block, so memory stays bounded.
///
/// Attribution is re-derived from the recorded enter/ret events — the
/// pre-attributed kernel fields in the records are ignored — so a trace can
/// replay under any library policy. One caveat: predicated-off instructions
/// leave no records, so replayed TickEvents carry zero operand widths for
/// them (see docs/FORMATS.md, "Replaying full profiles").
class TraceReplaySource final : public EventSource {
 public:
  TraceReplaySource(std::span<const std::uint8_t> bytes, const vm::Program& program,
                    bool salvage = false);

  /// Arm cooperative interruption: the replay checks the flag between v2
  /// blocks (and between v1 record chunks) and stops with kInterrupted; the
  /// events fed so far are a valid prefix.
  void set_interrupt_flag(const volatile std::sig_atomic_t* flag) noexcept {
    interrupt_ = flag;
  }

  const vm::Program& program() const noexcept override { return program_; }
  vm::RunOutcome run(KernelAttribution& attribution) override;

  /// After a salvage-mode run: what the decoder recovered vs. dropped
  /// (zero-valued when the trace was clean). v2-only.
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
