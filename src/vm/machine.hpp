// The interpreter core: executes a Program and streams retirement events to
// an ExecListener — the substrate on which the minipin DBI layer, and thus
// the session's reference (interpreter) event source, are built.
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

/// One memory operand of an instruction. `size == 0` means absent. Plain
/// loads/stores have one operand; kMovs (string move) has both; kCall has a
/// write (return-address push) and kRet a read (pop).
struct MemRef {
  std::uint64_t ea = 0;    ///< effective byte address
  std::uint32_t size = 0;  ///< access width in bytes (0 = no operand)
};

/// Everything a DBI layer needs to know about one retired instruction.
struct InstrEvent {
  std::uint32_t func = 0;            ///< function id (the IP's image half)
  std::uint32_t pc = 0;              ///< instruction index (the IP's offset)
  const isa::Instr* ins = nullptr;   ///< decoded instruction
  std::uint64_t sp = 0;              ///< SP *before* execution
  std::uint64_t retired = 0;         ///< instructions retired before this one
  bool executed = true;              ///< false when predicated off
  bool prefetch = false;             ///< `read` is a prefetch touch
  MemRef read;                       ///< read operand, if any
  MemRef write;                      ///< write operand, if any
  std::uint32_t callee = kNoCallee;  ///< target function for executed calls

  static constexpr std::uint32_t kNoCallee = 0xffffffffu;
};

/// Observer of guest execution. Implemented by the minipin engine; may also
/// be implemented directly for lightweight ad-hoc tools and tests.
class ExecListener {
 public:
  virtual ~ExecListener() = default;

  /// Before the first instruction. The program outlives the run.
  virtual void on_program_start(const Program& program) { (void)program; }

  /// A routine is entered (program entry, or an executed call). Fires after
  /// the call instruction's own on_instr event.
  virtual void on_rtn_enter(std::uint32_t func) { (void)func; }

  /// Every retired instruction, including predicated-off ones.
  virtual void on_instr(const InstrEvent& event) = 0;

  /// After kHalt; `retired` is the final instruction count.
  virtual void on_program_end(std::uint64_t retired) { (void)retired; }
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

  /// Execute from the program entry until kHalt, a guest trap, or budget
  /// exhaustion — all three are RunOutcome statuses, not exceptions, and on
  /// every path `listener->on_program_end()` fires so tools can flush what
  /// they observed. Host/tool errors still throw. If `listener` is null the
  /// uninstrumented fast path runs (the "native execution" baseline of the
  /// paper's overhead numbers). Can be called once per Machine.
  RunOutcome run(ExecListener* listener = nullptr);

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
  template <bool kTraced>
  RunOutcome run_loop(ExecListener* listener);

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
