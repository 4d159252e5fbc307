// The compiled execution engine: guest routines are lowered into flat arrays
// of fused ops, run by a tight computed-goto/threaded dispatch loop.
//
// What lowering buys over the interpreter (see lower.cpp for the pass):
//   * superinstructions: common unpredicated pairs (compare+branch,
//     addi+addi, ...) retire two guest instructions per dispatch;
//   * pre-resolved control flow: branch targets are op-array indices, and a
//     synthetic trailing op materialises the "pc past end of function" trap
//     so the loop needs no per-instruction bounds check;
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

// Every fused-dispatch opcode. The X-macro keeps the enum, the dispatch
// label table and the switch fallback in lockstep — order matters.
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
  X(kPastEnd)            /* synthetic: fall-through past the last pc */       \
  X(kFuseAddIAddI)       /* addi ; addi                    */                 \
  X(kFuseAddISltSI)      /* addi ; sltsi                   */                 \
  X(kFuseAddIBrNZ)       /* addi rd ; brnz rd  (countdown) */                 \
  X(kFuseSltSIBrNZ)      /* sltsi rd ; brnz rd             */                 \
  X(kFuseSltSBrNZ)       /* slts rd ; brnz rd              */                 \
  X(kFuseSltUBrNZ)       /* sltu rd ; brnz rd              */                 \
  X(kFuseSeqBrZ)         /* seq rd ; brz rd                */                 \
  X(kFuseSeqBrNZ)        /* seq rd ; brnz rd               */
// clang-format on

enum class COpId : std::uint8_t {
#define TQ_COP_ENUM(name) name,
  TQ_COP_LIST(TQ_COP_ENUM)
#undef TQ_COP_ENUM
      kCount_,
};

/// One lowered op. 40 bytes; a fused op carries its second instruction's
/// fields in rd2/ra2/imm2 (the chosen pairs never need rb2 or a size2).
struct COp {
  COpId id = COpId::kNop;
  std::uint8_t rd = 0;
  std::uint8_t ra = 0;
  std::uint8_t rb = 0;
  std::uint8_t size = 0;   ///< memory access width
  std::uint8_t pr = 0;     ///< predicate register (flags != 0)
  std::uint8_t flags = 0;  ///< isa::kFlagPredicated, if set
  std::uint8_t rd2 = 0;    ///< fused second destination
  std::uint8_t ra2 = 0;    ///< fused second source
  std::uint32_t pc = 0;      ///< original pc of the (first) instruction
  std::uint32_t target = 0;  ///< branch target as an op-array index
  std::int64_t imm = 0;
  std::int64_t imm2 = 0;     ///< fused second immediate
};
static_assert(sizeof(COp) == 40, "keep the lowered op at five words");

/// One routine lowered to threaded-dispatch form. `pc_to_op[pc]` maps every
/// original instruction index (plus the one-past-the-end slot) to its op;
/// the final op is always the synthetic kPastEnd trap.
struct CompiledRoutine {
  bool lowered = false;
  std::uint32_t fused = 0;  ///< pairs fused away in this routine
  std::vector<COp> ops;
  std::vector<std::uint32_t> pc_to_op;
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

  /// Lowering diagnostics (valid during/after a run).
  std::size_t lowered_routines() const noexcept { return lowered_count_; }
  std::uint64_t fused_pairs() const noexcept { return fused_pairs_; }

 private:
  enum class Mode { kNative, kSinked };

  template <Mode M>
  RunOutcome exec(EventSink* sink);
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
  std::size_t lowered_count_ = 0;
  std::uint64_t fused_pairs_ = 0;
};

}  // namespace tq::vm
