// The interpreter core: executes a Program and, in a profiled run, streams
// its events into a vm::EventSink — the reference engine the compiled one is
// checked against, and the session's `-engine interp` event source.
//
// Design notes:
//   * One architectural memory access per instruction (RISC); calls write
//     and returns read the 8-byte return address on the guest stack, so the
//     event stream has stack traffic exactly where an x86 trace does.
//   * The instruction counter is the platform-independent time base the
//     paper advocates; it is exact and deterministic.
//   * Syscalls copy data between guest memory and the HostEnv without
//     emitting events (Pin never sees kernel-side copies).
#pragma once

#include <cstdint>
#include <string>

#include "support/paged_memory.hpp"
#include "vm/engine.hpp"
#include "vm/host_env.hpp"
#include "vm/program.hpp"
#include "vm/run_outcome.hpp"

namespace tq::vm {

/// Architectural register state.
struct Cpu {
  std::uint64_t regs[isa::kNumIntRegs] = {};
  double fregs[isa::kNumFpRegs] = {};
  std::uint32_t func = 0;  ///< current function id
  std::uint32_t pc = 0;    ///< instruction index within the function

  std::uint64_t& sp() noexcept { return regs[isa::kSp]; }
  std::uint64_t sp_value() const noexcept { return regs[isa::kSp]; }
};

/// Guest trap: unrecoverable runtime fault (bad descriptor, stack overflow,
/// division by zero, runaway execution). Carries the faulting location.
/// Machine::run converts it into a RunOutcome{kTrapped}; it only escapes when
/// thrown outside the run loop.
class TrapError : public Error {
 public:
  TrapError(std::string message, std::string reason, std::uint32_t func,
            std::uint32_t pc)
      : Error(std::move(message)),
        reason_(std::move(reason)),
        func_(func),
        pc_(pc) {}
  /// The bare fault kind (e.g. "guest stack overflow"), without location.
  const std::string& reason() const noexcept { return reason_; }
  std::uint32_t func() const noexcept { return func_; }
  std::uint32_t pc() const noexcept { return pc_; }

 private:
  std::string reason_;
  std::uint32_t func_;
  std::uint32_t pc_;
};

/// Deterministic fault injection: make the guest trap at a precise point so
/// tests can prove that partial profiles equal the prefix of a clean run.
/// Zero / kNoFunc fields disable the corresponding trigger. All triggers
/// fire *after* the events of every earlier instruction were delivered, so a
/// plan that traps with N instructions retired produces exactly the event
/// stream of a budget-N truncated run.
struct FaultPlan {
  static constexpr std::uint32_t kNoFunc = 0xffffffffu;

  /// Trap before retiring instruction N (so exactly N instructions retire).
  std::uint64_t trap_at_retired = 0;
  /// Trap inside the K-th executed syscall (1-based), as if the host call
  /// had failed mid-flight.
  std::uint64_t fail_syscall = 0;
  /// Trap once `fail_func` has been entered `fail_func_entries` times.
  std::uint32_t fail_func = kNoFunc;
  std::uint64_t fail_func_entries = 1;

  bool armed() const noexcept {
    return trap_at_retired != 0 || fail_syscall != 0 || fail_func != kNoFunc;
  }
};

/// The interpreter engine. Bind a validated Program and a HostEnv, then
/// run(). The compiled counterpart (vm::CompiledMachine) lives behind the
/// same GuestEngine seam.
class Machine : public GuestEngine {
 public:
  /// `program` and `host` must outlive the Machine.
  Machine(const Program& program, HostEnv& host);

  /// Uninstrumented run (the "native execution" baseline of the paper's
  /// overhead numbers). Same outcomes as run(EventSink&); single-shot.
  RunOutcome run();

  /// Profiled run. Per retired instruction — predicated-off ones included —
  /// one one-tick span; then, if it executed, its reads, its writes and its
  /// return; after an executed call, the callee's entry (see GuestEngine).
  RunOutcome run(EventSink& sink) override;

  /// Stop the run gracefully (RunStatus::kTruncated) once this many
  /// instructions retire. Zero (default) means unlimited.
  void set_instruction_budget(std::uint64_t budget) noexcept override {
    budget_ = budget;
  }

  /// Arm deterministic fault injection (see FaultPlan).
  void set_fault_plan(const FaultPlan& plan) noexcept override { fault_ = plan; }

  /// Arm cooperative interruption (see GuestEngine::set_interrupt_flag).
  void set_interrupt_flag(
      const volatile std::sig_atomic_t* flag) noexcept override {
    interrupt_ = flag;
  }

  /// Post-run inspection.
  const Cpu& cpu() const noexcept override { return cpu_; }
  const PagedMemory& memory() const noexcept { return memory_; }
  PagedMemory& memory() noexcept { return memory_; }
  std::uint64_t retired() const noexcept override { return retired_; }
  std::uint64_t heap_used() const noexcept override {
    return heap_ptr_ - kHeapBase;
  }

 private:
  RunOutcome start(EventSink* sink);
  template <bool kTraced>
  RunOutcome run_loop(EventSink* sink);
  void emit_instr(EventSink& sink, const isa::Instr& ins, bool executed);

  [[noreturn]] void trap(const std::string& why) const;
  void check_entry_fault();
  void do_sys(const isa::Instr& ins);

  const Program& program_;
  HostEnv& host_;
  Cpu cpu_;
  PagedMemory memory_;
  std::uint64_t retired_ = 0;
  std::uint64_t budget_ = 0;
  const volatile std::sig_atomic_t* interrupt_ = nullptr;
  std::uint64_t heap_ptr_ = kHeapBase;
  FaultPlan fault_;
  std::uint64_t syscalls_seen_ = 0;
  std::uint64_t fault_entries_seen_ = 0;
  bool ran_ = false;
};

}  // namespace tq::vm
