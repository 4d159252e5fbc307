// The compiled execution engine: guest routines are lowered into flat arrays
// of ops, one per guest instruction, run by a tight computed-goto threaded
// dispatch loop.
//
// What lowering buys over the interpreter (see lower.cpp for the pass):
//   * pre-resolved control flow: op i is the instruction at pc i, so branch
//     targets and return sites index the op array directly, and a synthetic
//     trailing op materialises the "pc past end of function" trap so the
//     loop needs no per-instruction bounds check;
//   * straight-line runs: ops are grouped into runs (no entry point inside,
//     at most kRunCap instructions, closed by any op that transfers control,
//     halts, makes a syscall, is predicated or can trap). A run's first op
//     is dispatched through its head variant, which checks once that the
//     whole run retires before the stop point (budget / trap_at) with the
//     interrupt flag clear, then advances the retired count and the pending
//     tick span for the whole run; the body ops pay no per-op bookkeeping
//     and stamp their events from the run base plus their offset;
//   * the checked fallback: a run that contains the stop point, or whose
//     head sees the interrupt flag, runs through the per-op checked handlers
//     (the same handler bodies, instantiated with per-op stop checks) to the
//     exact stop. An interrupt is therefore seen at the next run head, at
//     most kRunCap instructions after it was raised;
//   * batched event emission (run(EventSink&)): per-instruction ticks
//     accumulate into spans flushed at attribution boundaries, with the
//     SP/stack-range classification inlined at the access site.
//
// Observable behaviour is byte-identical to vm::Machine: event order,
// instruction budgets, FaultPlan triggers, trap messages and RunOutcome all
// follow the interpreter exactly (enforced by test_engine_differential).
#pragma once

#include <cstdint>
#include <vector>

#include "support/paged_memory.hpp"
#include "vm/engine.hpp"
#include "vm/host_env.hpp"
#include "vm/machine.hpp"
#include "vm/program.hpp"
#include "vm/run_outcome.hpp"

namespace tq::vm {

// Every dispatch opcode. The X-macro keeps the enum and the dispatch label
// table in lockstep — order matters.
// clang-format off
#define TQ_COP_LIST(X)                                                        \
  X(kNop) X(kHalt)                                                            \
  X(kAdd) X(kSub) X(kMul) X(kDivS) X(kRemS) X(kAnd) X(kOr) X(kXor)            \
  X(kShl) X(kShrL) X(kShrA) X(kSltS) X(kSltU) X(kSeq)                         \
  X(kAddI) X(kMulI) X(kAndI) X(kOrI) X(kXorI) X(kShlI) X(kShrLI) X(kShrAI)    \
  X(kSltSI)                                                                   \
  X(kMovI) X(kMov)                                                            \
  X(kFAdd) X(kFSub) X(kFMul) X(kFDiv) X(kFNeg) X(kFAbs) X(kFSqrt) X(kFSin)    \
  X(kFCos) X(kFMov) X(kFMovI) X(kFMin) X(kFMax)                               \
  X(kFCmpLt) X(kFCmpLe) X(kFCmpEq) X(kI2F) X(kF2I)                            \
  X(kLoad) X(kLoadS) X(kStore) X(kFLoad) X(kFStore) X(kFLoad4) X(kFStore4)    \
  X(kPrefetch) X(kMovs)                                                       \
  X(kJmp) X(kBrZ) X(kBrNZ) X(kCall) X(kRet) X(kSys)                           \
  X(kPastEnd)            /* synthetic: fall-through past the last pc */
// clang-format on

enum class COpId : std::uint8_t {
#define TQ_COP_ENUM(name) name,
  TQ_COP_LIST(TQ_COP_ENUM)
#undef TQ_COP_ENUM
      kCount_,
};

/// Dispatch ids from here up are run heads: a run's first op is dispatched
/// as `id + kRunHead`, whose label runs the run-head check before the body.
inline constexpr std::uint8_t kRunHead = static_cast<std::uint8_t>(COpId::kCount_);

/// Longest run, in guest instructions. It bounds how many instructions can
/// retire between an interrupt being raised and the run head that sees it.
inline constexpr unsigned kRunCap = 64;

/// One lowered op: one guest instruction, in four words.
struct COp {
  COpId id = COpId::kNop;  ///< plus kRunHead on a run's first op
  std::uint8_t rd = 0;
  std::uint8_t ra = 0;
  std::uint8_t rb = 0;
  std::uint8_t size = 0;   ///< memory access width
  std::uint8_t pr = 0;     ///< predicate register (flags != 0)
  std::uint8_t flags = 0;  ///< isa::kFlagPredicated, if set
  std::uint8_t run_len = 0;  ///< run's first op: instructions in the run
  std::uint8_t run_mem = 0;  ///< run's first op: memory-operand instructions
  std::uint8_t run_off = 0;  ///< instructions before this op in its run
  std::uint32_t pc = 0;      ///< the instruction's pc, and this op's index
  std::uint32_t target = 0;  ///< branch target pc (= op index)
  std::int64_t imm = 0;
};
static_assert(sizeof(COp) == 32, "keep the lowered op at four words");
static_assert(kRunCap <= 0xff, "run_len and run_off are one byte");
static_assert(2 * kRunHead <= 0x100, "head ids must fit the id byte");

/// One routine lowered to threaded-dispatch form: `ops[pc]` is the op of
/// the instruction at `pc`, and the final op, `ops[code size]`, is always
/// the synthetic kPastEnd trap, which belongs to no run.
struct CompiledRoutine {
  bool lowered = false;
  std::uint32_t runs = 0;  ///< straight-line runs
  std::vector<COp> ops;
};

/// The compiled engine. Same contract as vm::Machine: bind a validated
/// Program and a HostEnv, run() once; budgets, fault plans and outcomes are
/// identical. Routines are lowered lazily on first dynamic entry.
class CompiledMachine final : public GuestEngine {
 public:
  CompiledMachine(const Program& program, HostEnv& host);

  /// Uninstrumented run (the "native execution" baseline).
  RunOutcome run();

  /// Profiled run: the interpreter's event stream, with the ticks between
  /// two attribution boundaries batched into one span.
  RunOutcome run(EventSink& sink) override;

  // GuestEngine.
  void set_instruction_budget(std::uint64_t budget) noexcept override {
    budget_ = budget;
  }
  void set_fault_plan(const FaultPlan& plan) noexcept override { fault_ = plan; }
  void set_interrupt_flag(
      const volatile std::sig_atomic_t* flag) noexcept override {
    interrupt_ = flag;
  }
  const Cpu& cpu() const noexcept override { return cpu_; }
  std::uint64_t retired() const noexcept override { return retired_; }
  std::uint64_t heap_used() const noexcept override {
    return heap_ptr_ - kHeapBase;
  }

  const PagedMemory& memory() const noexcept { return memory_; }
  PagedMemory& memory() noexcept { return memory_; }

  /// Lowering totals over the routines lowered so far (valid during/after
  /// a run).
  struct LoweringStats {
    std::uint64_t routines = 0;
    std::uint64_t ops = 0;  ///< including each routine's kPastEnd
    std::uint64_t runs = 0;
  };
  const LoweringStats& lowering_stats() const noexcept { return lowering_; }

 private:
  enum class Mode { kNative, kSinked };
  struct Resume;

  /// The dispatch loop. kChecked = false is the fast path (per-run checks);
  /// a run that fails its head check resumes in the kChecked instantiation
  /// (per-op checks) from `from`, which finishes the execution: that run
  /// holds the stop point, or its first op sees the interrupt flag.
  template <Mode M, bool kChecked>
  RunOutcome exec(EventSink* sink, const Resume* from);
  RunOutcome start(EventSink* sink);

  /// Lower a routine on first entry.
  const CompiledRoutine& routine_for_entry(std::uint32_t func);

  [[noreturn]] void trap(const std::string& why) const;
  void check_entry_fault();
  void do_sys(std::int64_t imm);

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

  std::vector<CompiledRoutine> routines_;
  LoweringStats lowering_;
};

}  // namespace tq::vm
