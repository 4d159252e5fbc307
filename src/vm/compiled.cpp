// The threaded-dispatch executor. One templated loop, two modes:
//   kNative — no instrumentation (the paper's "native execution" baseline);
//   kSinked — batched profiling events into a vm::EventSink;
// each instantiated twice: the fast path, which checks the stop point and
// advances the retired count once per straight-line run, and the checked
// path, which does both per op for the one run that holds the stop point.
//
// Exactness is the whole game: each checked handler replicates the
// interpreter's per-instruction sequence — stop checks (budget / trap_at)
// first, then the predicate, then the retire, then event delivery computed
// from *pre-execution* register state, then execution (whose traps count
// the faulting instruction as retired) — so the two engines are
// byte-identical to every observer. See machine.cpp run_loop for the
// reference ordering. A fast run is the same sequence with the stop checks
// proven false up front: every op in it retires, so the run's retired count
// and tick span can be paid at its head.
#include "vm/compiled.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <span>

#include "support/check.hpp"
#include "vm/lower.hpp"
#include "vm/stack_addr.hpp"

#if !defined(__GNUC__) && !defined(__clang__)
#error "the compiled engine dispatches through labels-as-values (gcc or clang)"
#endif

namespace tq::vm {

using isa::Op;

const char* engine_kind_name(EngineKind kind) noexcept {
  return kind == EngineKind::kCompiled ? "compiled" : "interp";
}

CompiledMachine::CompiledMachine(const Program& program, HostEnv& host)
    : program_(program), host_(host) {
  program_.validate();
  routines_.resize(program_.functions().size());
}

void CompiledMachine::trap(const std::string& why) const {
  const std::string where = cpu_.func < program_.functions().size()
                                ? program_.functions()[cpu_.func].name
                                : "<bad function>";
  throw TrapError("guest trap: " + why + " (in '" + where + "' at pc " +
                      std::to_string(cpu_.pc) + ", retired " +
                      std::to_string(retired_) + ")",
                  why, cpu_.func, cpu_.pc);
}

void CompiledMachine::check_entry_fault() {
  if (fault_.fail_func == FaultPlan::kNoFunc || cpu_.func != fault_.fail_func)
    return;
  if (++fault_entries_seen_ >= fault_.fail_func_entries) {
    trap("fault injection: function entered " +
         std::to_string(fault_entries_seen_) + " time(s)");
  }
}

void CompiledMachine::do_sys(std::int64_t imm) {
  ++syscalls_seen_;
  if (fault_.fail_syscall != 0 && syscalls_seen_ == fault_.fail_syscall)
      [[unlikely]] {
    trap("fault injection: syscall " + std::to_string(syscalls_seen_) +
         " failed");
  }
  try {
    run_syscall(imm, cpu_, memory_, host_, heap_ptr_);
  } catch (const Error& err) {
    trap(err.what());
  }
}

const CompiledRoutine& CompiledMachine::routine_for_entry(std::uint32_t func) {
  CompiledRoutine& rtn = routines_[func];
  if (!rtn.lowered) [[unlikely]] {
    rtn = lower_routine(program_, func);
    ++lowering_.routines;
    lowering_.ops += rtn.ops.size();
    lowering_.runs += rtn.runs;
  }
  return rtn;
}

RunOutcome CompiledMachine::run() { return start(nullptr); }
RunOutcome CompiledMachine::run(EventSink& sink) { return start(&sink); }

RunOutcome CompiledMachine::start(EventSink* sink) {
  TQUAD_CHECK(!ran_,
              "CompiledMachine::run is single-shot; construct a fresh "
              "CompiledMachine");
  ran_ = true;
  for (const DataInit& init : program_.data()) {
    memory_.write(init.addr, init.bytes);
  }
  if (sink != nullptr) return exec<Mode::kSinked, false>(sink, nullptr);
  return exec<Mode::kNative, false>(nullptr, nullptr);
}

// Where the checked path picks up a run the fast path could not take.
struct CompiledMachine::Resume {
  std::size_t op;  ///< index of the op to resume at, in the current routine
  std::uint32_t func;
  std::uint64_t retired;
  std::uint64_t span_start;
  std::uint64_t span_mem;
};

namespace {
// The flag an unarmed run reads, so the interrupt test needs no null check.
const volatile std::sig_atomic_t kNeverInterrupted = 0;
}  // namespace

// ---------------------------------------------------------------------------
// The dispatch loop.

// Sync architectural state and raise a guest trap at the current op. An op
// that can trap ends its run, so `retired` counts it on both paths.
#define TQ_TRAP(why)                                                     \
  do {                                                                   \
    TQUAD_DCHECK(kChecked || retired == run_base + op->run_off + 1,      \
                 "trapping op inside a run");                            \
    cpu_.func = cur_func;                                                \
    cpu_.pc = op->pc;                                                    \
    retired_ = retired;                                                  \
    trap(why);                                                           \
  } while (0)

// The run-head check (fast path only): the whole run retires before the
// stop point (budget / trap_at folded into one compare) and the interrupt
// flag is clear. Then the run's instructions retire and join the pending
// tick span in one step; a failing run restarts on the checked path. A
// predicated op is a run of its own, so its predicate is evaluated here,
// after it retired (predicated-off instructions count), and the body ops
// test none.
#define TQ_RUN_HEAD()                                                  \
  if (!kChecked) {                                                     \
    if (retired + op->run_len > stop_at || *irq != 0) [[unlikely]] {   \
      goto to_checked;                                                 \
    }                                                                  \
    run_base = retired;                                                \
    retired += op->run_len;                                            \
    if constexpr (M == Mode::kSinked) span_mem += op->run_mem;         \
    if (op->flags != 0 && r[op->pr] == 0) [[unlikely]] {               \
      ++op;                                                            \
      TQ_NEXT();                                                       \
    }                                                                  \
  }

// Stop check (checked path only; the cooperative interrupt flag included)
// and the op's has-memory-operand bit for the pending tick span.
#define TQ_HEAD()                                                      \
  if (kChecked) {                                                      \
    if (retired >= stop_at || *irq != 0) [[unlikely]] {                \
      cpu_.pc = op->pc;                                                \
      goto handle_stop;                                                \
    }                                                                  \
    if constexpr (M == Mode::kSinked) span_mem += op_mem_bit(*op);     \
  }

// The retired stamp of the op's instruction, once it has retired.
#define TQ_STAMP() (kChecked ? retired - 1 : run_base + op->run_off)

// Retire, then the predicated-off skip to the fall-through op (on the fast
// path the run head already retired the whole run and evaluated the
// predicate).
#define TQ_PRE()                                                     \
  if constexpr (kChecked) {                                          \
    ++retired;                                                       \
    if (op->flags != 0 && r[op->pr] == 0) [[unlikely]] {             \
      ++op;                                                          \
      TQ_NEXT();                                                     \
    }                                                                \
  }

// Flush the pending tick span (kSinked) at an attribution boundary. Spans
// only ever break here, so the span is exactly the instructions retired
// since the last flush: every flush site sits after the current op retired
// (call/ret, which end their runs) or is terminal (halt/stop/trap), so
// `retired` IS the next tick's retire index.
#define TQ_FLUSH_SPAN()                                                  \
  if constexpr (M == Mode::kSinked) {                                    \
    if (retired != span_start) {                                         \
      sink->on_tick_span(cur_func, span_start, retired - span_start,     \
                         span_mem);                                      \
      span_mem = 0;                                                      \
    }                                                                    \
    span_start = retired;                                                \
  }

// Switch the current routine (lowering it on first entry).
#define TQ_SET_ROUTINE(func_id)                         \
  do {                                                  \
    rtn = &routine_for_entry(func_id);                  \
    ops = rtn->ops.data();                              \
  } while (0)

#define TQ_ALU(name, stmt) \
  TQ_CASE(name) {          \
    TQ_HEAD()         \
    TQ_PRE()               \
    stmt;                  \
    ++op;                  \
    TQ_NEXT();             \
  }

template <CompiledMachine::Mode M, bool kChecked>
RunOutcome CompiledMachine::exec(EventSink* sink, const Resume* from) {
  if (from == nullptr) {
    cpu_.func = program_.entry();
    cpu_.pc = 0;
    cpu_.sp() = kStackBase;
  }

  auto& r = cpu_.regs;
  auto& f = cpu_.fregs;

  std::uint64_t stop_at = ~0ull;
  if (budget_ != 0) stop_at = budget_;
  if (fault_.trap_at_retired != 0 && fault_.trap_at_retired < stop_at) {
    stop_at = fault_.trap_at_retired;
  }
  // Cached locally so the dispatch loop's stop check needs no member load;
  // the pointed-to flag itself stays volatile (set from a signal handler).
  const volatile std::sig_atomic_t* const irq =
      interrupt_ != nullptr ? interrupt_ : &kNeverInterrupted;

  std::uint64_t retired = 0;
  std::uint32_t cur_func = cpu_.func;
  std::uint64_t span_start = 0;
  std::uint64_t span_mem = 0;
  std::uint64_t run_base = 0;  // fast path: retired count at the run head
  const CompiledRoutine* rtn = nullptr;
  const COp* ops = nullptr;
  const COp* op = nullptr;
  if (from != nullptr) {
    cur_func = from->func;
    retired = from->retired;
    span_start = from->span_start;
    span_mem = from->span_mem;
  }
  (void)sink;

  try {
    TQ_SET_ROUTINE(cur_func);
    op = ops + (from != nullptr ? from->op : 0);
    if (from == nullptr) {
      if constexpr (M == Mode::kSinked) sink->on_enter(cur_func, 0);
      check_entry_fault();
    }

    // Body labels, then run-head labels (ids offset by kRunHead).
    static const void* const kLabels[] = {
#define TQ_COP_LABEL(name) &&L_##name,
#define TQ_COP_HEAD_LABEL(name) &&LH_##name,
        TQ_COP_LIST(TQ_COP_LABEL) TQ_COP_LIST(TQ_COP_HEAD_LABEL)
#undef TQ_COP_LABEL
#undef TQ_COP_HEAD_LABEL
    };
#define TQ_CASE(name) \
  LH_##name:          \
  TQ_RUN_HEAD()       \
  L_##name:
#define TQ_NEXT() goto* kLabels[static_cast<std::size_t>(op->id)]
    TQ_NEXT();

    TQ_CASE(kNop) {
      TQ_HEAD()
      TQ_PRE()
      ++op;
      TQ_NEXT();
    }

    TQ_CASE(kHalt) {
      TQ_HEAD()
      TQ_PRE()
      cpu_.func = cur_func;
      cpu_.pc = op->pc;
      retired_ = retired;
      TQ_FLUSH_SPAN()
      {
        RunOutcome out;
        out.retired = retired;
        return out;
      }
    }

    TQ_ALU(kAdd, r[op->rd] = r[op->ra] + r[op->rb])
    TQ_ALU(kSub, r[op->rd] = r[op->ra] - r[op->rb])
    TQ_ALU(kMul, r[op->rd] = r[op->ra] * r[op->rb])

    TQ_CASE(kDivS) {
      TQ_HEAD()
      TQ_PRE()
      const auto num = static_cast<std::int64_t>(r[op->ra]);
      const auto den = static_cast<std::int64_t>(r[op->rb]);
      if (den == 0) [[unlikely]] TQ_TRAP("integer division by zero");
      r[op->rd] = static_cast<std::uint64_t>(num / den);
      ++op;
      TQ_NEXT();
    }
    TQ_CASE(kRemS) {
      TQ_HEAD()
      TQ_PRE()
      const auto num = static_cast<std::int64_t>(r[op->ra]);
      const auto den = static_cast<std::int64_t>(r[op->rb]);
      if (den == 0) [[unlikely]] TQ_TRAP("integer remainder by zero");
      r[op->rd] = static_cast<std::uint64_t>(num % den);
      ++op;
      TQ_NEXT();
    }

    TQ_ALU(kAnd, r[op->rd] = r[op->ra] & r[op->rb])
    TQ_ALU(kOr, r[op->rd] = r[op->ra] | r[op->rb])
    TQ_ALU(kXor, r[op->rd] = r[op->ra] ^ r[op->rb])
    TQ_ALU(kShl, r[op->rd] = r[op->ra] << (r[op->rb] & 63))
    TQ_ALU(kShrL, r[op->rd] = r[op->ra] >> (r[op->rb] & 63))
    TQ_ALU(kShrA,
           r[op->rd] = static_cast<std::uint64_t>(
               static_cast<std::int64_t>(r[op->ra]) >> (r[op->rb] & 63)))
    TQ_ALU(kSltS, r[op->rd] = static_cast<std::int64_t>(r[op->ra]) <
                              static_cast<std::int64_t>(r[op->rb]))
    TQ_ALU(kSltU, r[op->rd] = r[op->ra] < r[op->rb])
    TQ_ALU(kSeq, r[op->rd] = r[op->ra] == r[op->rb])

    TQ_ALU(kAddI, r[op->rd] = r[op->ra] + static_cast<std::uint64_t>(op->imm))
    TQ_ALU(kMulI, r[op->rd] = r[op->ra] * static_cast<std::uint64_t>(op->imm))
    TQ_ALU(kAndI, r[op->rd] = r[op->ra] & static_cast<std::uint64_t>(op->imm))
    TQ_ALU(kOrI, r[op->rd] = r[op->ra] | static_cast<std::uint64_t>(op->imm))
    TQ_ALU(kXorI, r[op->rd] = r[op->ra] ^ static_cast<std::uint64_t>(op->imm))
    TQ_ALU(kShlI, r[op->rd] = r[op->ra] << (op->imm & 63))
    TQ_ALU(kShrLI, r[op->rd] = r[op->ra] >> (op->imm & 63))
    TQ_ALU(kShrAI,
           r[op->rd] = static_cast<std::uint64_t>(
               static_cast<std::int64_t>(r[op->ra]) >> (op->imm & 63)))
    TQ_ALU(kSltSI,
           r[op->rd] = static_cast<std::int64_t>(r[op->ra]) < op->imm)

    TQ_ALU(kMovI, r[op->rd] = static_cast<std::uint64_t>(op->imm))
    TQ_ALU(kMov, r[op->rd] = r[op->ra])

    TQ_ALU(kFAdd, f[op->rd] = f[op->ra] + f[op->rb])
    TQ_ALU(kFSub, f[op->rd] = f[op->ra] - f[op->rb])
    TQ_ALU(kFMul, f[op->rd] = f[op->ra] * f[op->rb])
    TQ_ALU(kFDiv, f[op->rd] = f[op->ra] / f[op->rb])
    TQ_ALU(kFNeg, f[op->rd] = -f[op->ra])
    TQ_ALU(kFAbs, f[op->rd] = std::fabs(f[op->ra]))
    TQ_ALU(kFSqrt, f[op->rd] = std::sqrt(f[op->ra]))
    TQ_ALU(kFSin, f[op->rd] = std::sin(f[op->ra]))
    TQ_ALU(kFCos, f[op->rd] = std::cos(f[op->ra]))
    TQ_ALU(kFMov, f[op->rd] = f[op->ra])
    TQ_ALU(kFMovI, f[op->rd] = std::bit_cast<double>(op->imm))
    TQ_ALU(kFMin, f[op->rd] = std::fmin(f[op->ra], f[op->rb]))
    TQ_ALU(kFMax, f[op->rd] = std::fmax(f[op->ra], f[op->rb]))

    TQ_ALU(kFCmpLt, r[op->rd] = f[op->ra] < f[op->rb])
    TQ_ALU(kFCmpLe, r[op->rd] = f[op->ra] <= f[op->rb])
    TQ_ALU(kFCmpEq, r[op->rd] = f[op->ra] == f[op->rb])

    TQ_ALU(kI2F, f[op->rd] = static_cast<double>(
                     static_cast<std::int64_t>(r[op->ra])))
    TQ_ALU(kF2I, r[op->rd] = static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(f[op->ra])))

    TQ_CASE(kLoad) {
      TQ_HEAD()
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, TQ_STAMP(), ea, op->size, true,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      r[op->rd] = memory_.load(ea, op->size);
      ++op;
      TQ_NEXT();
    }
    TQ_CASE(kLoadS) {
      TQ_HEAD()
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, TQ_STAMP(), ea, op->size, true,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      std::uint64_t value = memory_.load(ea, op->size);
      const unsigned bits = op->size * 8u;
      if (bits < 64 && (value >> (bits - 1)) & 1) {
        value |= ~((1ull << bits) - 1);
      }
      r[op->rd] = value;
      ++op;
      TQ_NEXT();
    }
    TQ_CASE(kStore) {
      TQ_HEAD()
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, TQ_STAMP(), ea, op->size, false,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      memory_.store(ea, r[op->rb], op->size);
      ++op;
      TQ_NEXT();
    }
    TQ_CASE(kFLoad) {
      TQ_HEAD()
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, TQ_STAMP(), ea, op->size, true,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      f[op->rd] = memory_.load_f64(ea);
      ++op;
      TQ_NEXT();
    }
    TQ_CASE(kFStore) {
      TQ_HEAD()
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, TQ_STAMP(), ea, op->size, false,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      memory_.store_f64(ea, f[op->rb]);
      ++op;
      TQ_NEXT();
    }
    TQ_CASE(kFLoad4) {
      TQ_HEAD()
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, TQ_STAMP(), ea, op->size, true,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      float value;
      const auto raw = static_cast<std::uint32_t>(memory_.load(ea, 4));
      std::memcpy(&value, &raw, 4);
      f[op->rd] = static_cast<double>(value);
      ++op;
      TQ_NEXT();
    }
    TQ_CASE(kFStore4) {
      TQ_HEAD()
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, TQ_STAMP(), ea, op->size, false,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      const auto value = static_cast<float>(f[op->rb]);
      std::uint32_t raw;
      std::memcpy(&raw, &value, 4);
      memory_.store(ea, raw, 4);
      ++op;
      TQ_NEXT();
    }
    TQ_CASE(kPrefetch) {
      TQ_HEAD()
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, TQ_STAMP(), ea, op->size, true,
                        is_stack_addr(ea, r[isa::kSp]), true);
      }
      // Architecturally a no-op; only the event matters.
      ++op;
      TQ_NEXT();
    }
    TQ_CASE(kMovs) {
      TQ_HEAD()
      const std::uint64_t rea = r[op->ra];
      const std::uint64_t wea = r[op->rd];
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, TQ_STAMP(), rea, op->size, true,
                        is_stack_addr(rea, r[isa::kSp]), false);
        sink->on_access(cur_func, op->pc, TQ_STAMP(), wea, op->size, false,
                        is_stack_addr(wea, r[isa::kSp]), false);
      }
      std::uint8_t buf[64];
      TQUAD_DCHECK(op->size <= sizeof buf, "movs size out of range");
      memory_.read(rea, std::span<std::uint8_t>(buf, op->size));
      memory_.write(wea, std::span<const std::uint8_t>(buf, op->size));
      r[op->ra] += op->size;
      r[op->rd] += op->size;
      ++op;
      TQ_NEXT();
    }

    TQ_CASE(kJmp) {
      TQ_HEAD()
      TQ_PRE()
      op = ops + op->target;
      TQ_NEXT();
    }
    TQ_CASE(kBrZ) {
      TQ_HEAD()
      TQ_PRE()
      op = (r[op->ra] == 0) ? ops + op->target : op + 1;
      TQ_NEXT();
    }
    TQ_CASE(kBrNZ) {
      TQ_HEAD()
      TQ_PRE()
      op = (r[op->ra] != 0) ? ops + op->target : op + 1;
      TQ_NEXT();
    }

    TQ_CASE(kCall) {
      TQ_HEAD()
      const std::uint64_t sp_before = r[isa::kSp];
      const std::uint64_t wea = sp_before - 8;
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, TQ_STAMP(), wea, 8, false,
                        is_stack_addr(wea, sp_before), false);
      }
      const std::uint64_t ret_addr =
          (static_cast<std::uint64_t>(cur_func) << 32) | (op->pc + 1);
      r[isa::kSp] = wea;
      if (wea < kStackLimit) [[unlikely]] TQ_TRAP("guest stack overflow");
      memory_.store(wea, ret_addr, 8);
      TQ_FLUSH_SPAN()
      const auto callee = static_cast<std::uint32_t>(op->imm);
      cur_func = callee;
      cpu_.func = callee;
      cpu_.pc = 0;
      retired_ = retired;
      TQ_SET_ROUTINE(callee);
      if constexpr (M == Mode::kSinked) sink->on_enter(callee, TQ_STAMP());
      check_entry_fault();
      op = ops;
      TQ_NEXT();
    }
    TQ_CASE(kRet) {
      TQ_HEAD()
      const std::uint64_t sp_before = r[isa::kSp];
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, TQ_STAMP(), sp_before, 8, true,
                        is_stack_addr(sp_before, sp_before), false);
        TQ_FLUSH_SPAN()
        sink->on_ret(cur_func, op->pc, TQ_STAMP());
      }
      if (sp_before >= kStackBase) [[unlikely]] {
        TQ_TRAP("return with empty call stack");
      }
      const std::uint64_t ret_addr = memory_.load(sp_before, 8);
      r[isa::kSp] = sp_before + 8;
      const auto ret_func = static_cast<std::uint32_t>(ret_addr >> 32);
      const auto ret_pc = static_cast<std::uint32_t>(ret_addr & 0xffffffffu);
      if (ret_func >= program_.functions().size()) [[unlikely]] {
        TQ_TRAP("corrupted return address");
      }
      cur_func = ret_func;
      cpu_.func = ret_func;
      TQ_SET_ROUTINE(ret_func);
      if (ret_pc >= rtn->ops.size()) [[unlikely]] {
        // A forged return address landing beyond the code: the interpreter
        // traps on its per-iteration bounds check with the landing pc.
        cpu_.pc = ret_pc;
        retired_ = retired;
        trap("pc past end of function");
      }
      op = ops + ret_pc;
      if constexpr (!kChecked) {
        // A forged return address can land inside a run, past its head
        // check; finish on the checked path from there.
        if (op->run_off != 0) [[unlikely]] goto to_checked;
      }
      TQ_NEXT();
    }

    TQ_CASE(kSys) {
      TQ_HEAD()
      TQ_PRE()
      cpu_.func = cur_func;
      cpu_.pc = op->pc;
      retired_ = retired;
      do_sys(op->imm);
      ++op;
      TQ_NEXT();
    }

    TQ_CASE(kPastEnd) {
      // Reached by falling through the last instruction; checked before the
      // budget, exactly like the interpreter's loop-top bounds check.
      cpu_.func = cur_func;
      cpu_.pc = op->pc;
      retired_ = retired;
      trap("pc past end of function");
    }

#undef TQ_CASE
#undef TQ_NEXT

  to_checked : {
    // A run head failed its check (or a return landed inside a run): go on
    // op by op from `op`, whose run state the fast path has not touched.
    if constexpr (!kChecked) {
      const Resume at{static_cast<std::size_t>(op - ops), cur_func, retired,
                      span_start, span_mem};
      return exec<M, true>(sink, &at);
    }
  }

  handle_stop : {
    // `retired >= stop_at` or the interrupt flag fired (cpu_.pc set at the
    // jump site). The interrupt wins over the budget, and the budget over
    // trap_at, matching the interpreter's check order.
    cpu_.func = cur_func;
    retired_ = retired;
    if (*irq != 0) {
      TQ_FLUSH_SPAN()
      RunOutcome out;
      out.status = RunStatus::kInterrupted;
      out.retired = retired;
      return out;
    }
    if (budget_ != 0 && retired >= budget_) {
      TQ_FLUSH_SPAN()
      RunOutcome out;
      out.status = RunStatus::kTruncated;
      out.retired = retired;
      return out;
    }
    trap("fault injection: trap at retired " +
         std::to_string(fault_.trap_at_retired));
  }
  } catch (const TrapError& err) {
    // Guest-attributable fault: flush what the consumers are owed, then
    // return the structured outcome — the same contract as Machine::run.
    TQ_FLUSH_SPAN()
    RunOutcome out;
    out.status = RunStatus::kTrapped;
    out.retired = retired_;
    out.trap_kind = err.reason();
    out.trap_function = err.func() < program_.functions().size()
                            ? program_.functions()[err.func()].name
                            : "<bad function>";
    out.trap_func = err.func();
    out.trap_pc = err.pc();
    return out;
  }
}

#undef TQ_TRAP
#undef TQ_RUN_HEAD
#undef TQ_HEAD
#undef TQ_STAMP
#undef TQ_PRE
#undef TQ_FLUSH_SPAN
#undef TQ_SET_ROUTINE
#undef TQ_ALU

}  // namespace tq::vm
