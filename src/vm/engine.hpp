// The common engine seam: two execution engines, one contract.
//
// The interpreter (vm::Machine) and the compiled threaded-dispatch engine
// (vm::CompiledMachine) execute the same guest programs with byte-identical
// observable behaviour — RunOutcome semantics, instruction budgets, the
// FaultPlan triggers and the exact-prefix PARTIAL/trap contract all carry
// over unchanged. GuestEngine is the shared surface callers program
// against; EngineKind selects the implementation at the session and CLI
// layers (`-engine interp|compiled`).
#pragma once

#include <csignal>
#include <cstdint>

#include "vm/probe.hpp"
#include "vm/run_outcome.hpp"

namespace tq::vm {

struct Cpu;
struct FaultPlan;

/// Which execution engine runs the guest.
enum class EngineKind : std::uint8_t {
  kInterp = 0,    ///< the original switch-dispatch interpreter
  kCompiled = 1,  ///< lowered ops, computed-goto threaded dispatch
};

/// "interp" / "compiled".
const char* engine_kind_name(EngineKind kind) noexcept;

/// The execution-engine contract shared by Machine and CompiledMachine:
/// the profiled run, budgets, fault plans and post-run inspection.
class GuestEngine {
 public:
  virtual ~GuestEngine() = default;

  /// Execute from the program entry, emitting the profiling event stream
  /// into `sink`, until kHalt, a guest trap, a budget cut or an interrupt —
  /// all RunOutcome statuses, not exceptions. The events delivered before a
  /// non-halt outcome are an exact prefix of the full run's. Host errors
  /// throw. Single-shot, like the bare run() each engine also offers.
  virtual RunOutcome run(EventSink& sink) = 0;

  /// Stop the run gracefully (RunStatus::kTruncated) once this many
  /// instructions retire. Zero (default) means unlimited.
  virtual void set_instruction_budget(std::uint64_t budget) noexcept = 0;

  /// Arm deterministic fault injection (see FaultPlan).
  virtual void set_fault_plan(const FaultPlan& plan) noexcept = 0;

  /// Arm cooperative interruption: when `*flag` becomes nonzero (typically
  /// from a SIGINT/SIGTERM handler), the run stops with
  /// RunStatus::kInterrupted — the interpreter at the next instruction, the
  /// compiled engine at the next run head (within kRunCap instructions) —
  /// and the events delivered so far are a valid prefix, exactly like a
  /// budget cut at the same count. `flag` must outlive the run; null
  /// (default) disarms the check.
  virtual void set_interrupt_flag(
      const volatile std::sig_atomic_t* flag) noexcept = 0;

  /// Post-run inspection.
  virtual const Cpu& cpu() const noexcept = 0;
  virtual std::uint64_t retired() const noexcept = 0;
  virtual std::uint64_t heap_used() const noexcept = 0;
};

}  // namespace tq::vm
