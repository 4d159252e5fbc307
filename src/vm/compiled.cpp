// The threaded-dispatch executor. One templated loop, two modes:
//   kNative — no instrumentation (the paper's "native execution" baseline);
//   kSinked — batched profiling events into a vm::EventSink.
//
// Exactness is the whole game: each handler replicates the interpreter's
// per-instruction sequence — stop checks (budget / trap_at) first, then the
// predicate, then the retire, then event delivery computed from
// *pre-execution* register state, then execution (whose traps count the
// faulting instruction as retired) — so the two engines are byte-identical
// to every observer. See machine.cpp run_loop for the reference ordering.
#include "vm/compiled.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <span>

#include "support/check.hpp"
#include "vm/lower.hpp"
#include "vm/stack_addr.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define TQ_CGOTO 1
#else
#define TQ_CGOTO 0
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
  auto& r = cpu_.regs;
  ++syscalls_seen_;
  if (fault_.fail_syscall != 0 && syscalls_seen_ == fault_.fail_syscall)
      [[unlikely]] {
    trap("fault injection: syscall " + std::to_string(syscalls_seen_) +
         " failed");
  }
  try {
    switch (static_cast<isa::Sys>(imm)) {
      case isa::Sys::kAlloc: {
        const std::uint64_t size = r[1];
        heap_ptr_ = (heap_ptr_ + 15) & ~15ull;
        const std::uint64_t addr = heap_ptr_;
        heap_ptr_ += size;
        if (heap_ptr_ >= kStackLimit) trap("guest heap exhausted");
        r[1] = addr;
        break;
      }
      case isa::Sys::kRead: {
        const int fd = static_cast<int>(r[1]);
        const std::uint64_t buf = r[2];
        const std::uint64_t len = r[3];
        std::vector<std::uint8_t> tmp(static_cast<std::size_t>(len));
        const std::size_t n = host_.read(fd, tmp);
        memory_.write(buf, std::span<const std::uint8_t>(tmp.data(), n));
        r[1] = n;
        break;
      }
      case isa::Sys::kWrite: {
        const int fd = static_cast<int>(r[1]);
        const std::uint64_t buf = r[2];
        const std::uint64_t len = r[3];
        std::vector<std::uint8_t> tmp(static_cast<std::size_t>(len));
        memory_.read(buf, tmp);
        host_.write(fd, tmp);
        r[1] = len;
        break;
      }
      case isa::Sys::kSeek:
        host_.seek(static_cast<int>(r[1]), r[2]);
        break;
      case isa::Sys::kFileSize:
        r[1] = host_.file_size(static_cast<int>(r[1]));
        break;
      case isa::Sys::kPrintI64:
        host_.append_log(std::to_string(static_cast<std::int64_t>(r[1])));
        break;
      case isa::Sys::kPrintF64:
        host_.append_log(std::to_string(cpu_.fregs[1]));
        break;
      default:
        trap("unknown syscall " + std::to_string(imm));
    }
  } catch (const TrapError&) {
    throw;
  } catch (const Error& err) {
    trap(err.what());
  }
}

const CompiledRoutine& CompiledMachine::routine_for_entry(std::uint32_t func) {
  CompiledRoutine& rtn = routines_[func];
  if (!rtn.lowered) [[unlikely]] {
    rtn = lower_routine(program_, func);
    ++lowered_count_;
    fused_pairs_ += rtn.fused;
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
  if (sink != nullptr) return exec<Mode::kSinked>(sink);
  return exec<Mode::kNative>(nullptr);
}

// ---------------------------------------------------------------------------
// The dispatch loop.

// Sync architectural state and raise a guest trap at the current op.
#define TQ_TRAP(why)      \
  do {                    \
    cpu_.func = cur_func; \
    cpu_.pc = op->pc;     \
    retired_ = retired;   \
    trap(why);            \
  } while (0)

// Stop check (budget / trap_at folded into one compare, plus the cooperative
// interrupt flag when armed — `irq` is null for uninterruptible runs, so the
// extra test stays branch-predicted free) and tick accounting for the
// (first) instruction of an op. `membit` is the static has-memory-operand
// flag the batched tick records — predicated-off instructions count, exactly
// as in the interpreter's one-tick spans.
#define TQ_HEAD(membit)                                                \
  if (retired >= stop_at || (irq != nullptr && *irq != 0)) [[unlikely]] { \
    cpu_.pc = op->pc;                                                  \
    goto handle_stop;                                                  \
  }                                                                    \
  if constexpr (M == Mode::kSinked) {                                  \
    ++span_count;                                                      \
    span_mem += (membit) ? 1 : 0;                                      \
  }

// Stop check + tick for the second instruction of a fused pair.
#define TQ_MID()                                                       \
  if (retired >= stop_at || (irq != nullptr && *irq != 0)) [[unlikely]] { \
    cpu_.pc = op->pc + 1;                                              \
    goto handle_stop;                                                  \
  }                                                                    \
  if constexpr (M == Mode::kSinked) {                                  \
    ++span_count;                                                      \
  }

// Predicate evaluation, retire, and the predicated-off skip to the
// fall-through op.
#define TQ_PRE()                                              \
  bool executed = true;                                       \
  if (op->flags != 0) [[unlikely]] executed = r[op->pr] != 0; \
  ++retired;                                                  \
  if (!executed) [[unlikely]] {                               \
    ++i;                                                      \
    TQ_NEXT();                                                \
  }

// Flush the pending tick span (kSinked) at an attribution boundary. Spans
// only ever break here, so the next span's first-retired stamp is assigned
// once per flush instead of branching on span_count every tick: every flush
// site sits after the current op retired (call/ret) or is terminal
// (halt/stop/trap), so `retired` IS the next tick's retire index.
#define TQ_FLUSH_SPAN()                                               \
  if constexpr (M == Mode::kSinked) {                                 \
    if (span_count != 0) {                                            \
      sink->on_tick_span(cur_func, span_start, span_count, span_mem); \
      span_count = 0;                                                 \
      span_mem = 0;                                                   \
    }                                                                 \
    span_start = retired;                                             \
  }

// Switch the current routine (lowering it on first entry).
#define TQ_SET_ROUTINE(func_id)                         \
  do {                                                  \
    rtn = &routine_for_entry(func_id);                  \
    ops = rtn->ops.data();                              \
    pc2op = rtn->pc_to_op.data();                       \
  } while (0)

#define TQ_ALU(name, stmt) \
  TQ_CASE(name) {          \
    TQ_HEAD(false)         \
    TQ_PRE()               \
    stmt;                  \
    ++i;                   \
    TQ_NEXT();             \
  }

template <CompiledMachine::Mode M>
RunOutcome CompiledMachine::exec(EventSink* sink) {
  cpu_.func = program_.entry();
  cpu_.pc = 0;
  cpu_.sp() = kStackBase;

  auto& r = cpu_.regs;
  auto& f = cpu_.fregs;

  std::uint64_t stop_at = ~0ull;
  if (budget_ != 0) stop_at = budget_;
  if (fault_.trap_at_retired != 0 && fault_.trap_at_retired < stop_at) {
    stop_at = fault_.trap_at_retired;
  }
  // Cached locally so the dispatch loop's stop check needs no member load;
  // the pointed-to flag itself stays volatile (set from a signal handler).
  const volatile std::sig_atomic_t* const irq = interrupt_;

  std::uint64_t retired = 0;
  std::uint32_t cur_func = cpu_.func;
  std::uint64_t span_start = 0;
  std::uint64_t span_count = 0;
  std::uint64_t span_mem = 0;
  const CompiledRoutine* rtn = nullptr;
  const COp* ops = nullptr;
  const std::uint32_t* pc2op = nullptr;
  std::size_t i = 0;
  const COp* op = nullptr;
  (void)sink;
  (void)pc2op;

  try {
    TQ_SET_ROUTINE(cur_func);
    if constexpr (M == Mode::kSinked) sink->on_enter(cur_func, 0);
    check_entry_fault();

#if TQ_CGOTO
    static const void* const kLabels[] = {
#define TQ_COP_LABEL(name) &&L_##name,
        TQ_COP_LIST(TQ_COP_LABEL)
#undef TQ_COP_LABEL
    };
#define TQ_CASE(name) L_##name:
#define TQ_NEXT()                                        \
  do {                                                   \
    op = &ops[i];                                        \
    goto* kLabels[static_cast<std::size_t>(op->id)];     \
  } while (0)
    TQ_NEXT();
#else
    for (;;) {
      op = &ops[i];
      switch (op->id) {
#define TQ_CASE(name) case COpId::name:
#define TQ_NEXT() continue
#endif

    TQ_CASE(kNop) {
      TQ_HEAD(false)
      TQ_PRE()
      ++i;
      TQ_NEXT();
    }

    TQ_CASE(kHalt) {
      TQ_HEAD(false)
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
      TQ_HEAD(false)
      TQ_PRE()
      const auto num = static_cast<std::int64_t>(r[op->ra]);
      const auto den = static_cast<std::int64_t>(r[op->rb]);
      if (den == 0) [[unlikely]] TQ_TRAP("integer division by zero");
      r[op->rd] = static_cast<std::uint64_t>(num / den);
      ++i;
      TQ_NEXT();
    }
    TQ_CASE(kRemS) {
      TQ_HEAD(false)
      TQ_PRE()
      const auto num = static_cast<std::int64_t>(r[op->ra]);
      const auto den = static_cast<std::int64_t>(r[op->rb]);
      if (den == 0) [[unlikely]] TQ_TRAP("integer remainder by zero");
      r[op->rd] = static_cast<std::uint64_t>(num % den);
      ++i;
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
      TQ_HEAD(op->size != 0)
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, retired - 1, ea, op->size, true,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      r[op->rd] = memory_.load(ea, op->size);
      ++i;
      TQ_NEXT();
    }
    TQ_CASE(kLoadS) {
      TQ_HEAD(op->size != 0)
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, retired - 1, ea, op->size, true,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      std::uint64_t value = memory_.load(ea, op->size);
      const unsigned bits = op->size * 8u;
      if (bits < 64 && (value >> (bits - 1)) & 1) {
        value |= ~((1ull << bits) - 1);
      }
      r[op->rd] = value;
      ++i;
      TQ_NEXT();
    }
    TQ_CASE(kStore) {
      TQ_HEAD(op->size != 0)
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, retired - 1, ea, op->size, false,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      memory_.store(ea, r[op->rb], op->size);
      ++i;
      TQ_NEXT();
    }
    TQ_CASE(kFLoad) {
      TQ_HEAD(op->size != 0)
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, retired - 1, ea, op->size, true,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      f[op->rd] = memory_.load_f64(ea);
      ++i;
      TQ_NEXT();
    }
    TQ_CASE(kFStore) {
      TQ_HEAD(op->size != 0)
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, retired - 1, ea, op->size, false,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      memory_.store_f64(ea, f[op->rb]);
      ++i;
      TQ_NEXT();
    }
    TQ_CASE(kFLoad4) {
      TQ_HEAD(op->size != 0)
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, retired - 1, ea, op->size, true,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      float value;
      const auto raw = static_cast<std::uint32_t>(memory_.load(ea, 4));
      std::memcpy(&value, &raw, 4);
      f[op->rd] = static_cast<double>(value);
      ++i;
      TQ_NEXT();
    }
    TQ_CASE(kFStore4) {
      TQ_HEAD(op->size != 0)
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, retired - 1, ea, op->size, false,
                        is_stack_addr(ea, r[isa::kSp]), false);
      }
      const auto value = static_cast<float>(f[op->rb]);
      std::uint32_t raw;
      std::memcpy(&raw, &value, 4);
      memory_.store(ea, raw, 4);
      ++i;
      TQ_NEXT();
    }
    TQ_CASE(kPrefetch) {
      TQ_HEAD(op->size != 0)
      const std::uint64_t ea = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, retired - 1, ea, op->size, true,
                        is_stack_addr(ea, r[isa::kSp]), true);
      }
      // Architecturally a no-op; only the event matters.
      ++i;
      TQ_NEXT();
    }
    TQ_CASE(kMovs) {
      TQ_HEAD(op->size != 0)
      const std::uint64_t rea = r[op->ra];
      const std::uint64_t wea = r[op->rd];
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, retired - 1, rea, op->size, true,
                        is_stack_addr(rea, r[isa::kSp]), false);
        sink->on_access(cur_func, op->pc, retired - 1, wea, op->size, false,
                        is_stack_addr(wea, r[isa::kSp]), false);
      }
      std::uint8_t buf[64];
      TQUAD_DCHECK(op->size <= sizeof buf, "movs size out of range");
      memory_.read(rea, std::span<std::uint8_t>(buf, op->size));
      memory_.write(wea, std::span<const std::uint8_t>(buf, op->size));
      r[op->ra] += op->size;
      r[op->rd] += op->size;
      ++i;
      TQ_NEXT();
    }

    TQ_CASE(kJmp) {
      TQ_HEAD(false)
      TQ_PRE()
      i = op->target;
      TQ_NEXT();
    }
    TQ_CASE(kBrZ) {
      TQ_HEAD(false)
      TQ_PRE()
      i = (r[op->ra] == 0) ? op->target : i + 1;
      TQ_NEXT();
    }
    TQ_CASE(kBrNZ) {
      TQ_HEAD(false)
      TQ_PRE()
      i = (r[op->ra] != 0) ? op->target : i + 1;
      TQ_NEXT();
    }

    TQ_CASE(kCall) {
      TQ_HEAD(true)
      const std::uint64_t sp_before = r[isa::kSp];
      const std::uint64_t wea = sp_before - 8;
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, retired - 1, wea, 8, false,
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
      if constexpr (M == Mode::kSinked) sink->on_enter(callee, retired - 1);
      check_entry_fault();
      i = 0;
      TQ_NEXT();
    }
    TQ_CASE(kRet) {
      TQ_HEAD(true)
      const std::uint64_t sp_before = r[isa::kSp];
      TQ_PRE()
      if constexpr (M == Mode::kSinked) {
        sink->on_access(cur_func, op->pc, retired - 1, sp_before, 8, true,
                        is_stack_addr(sp_before, sp_before), false);
        TQ_FLUSH_SPAN()
        sink->on_ret(cur_func, op->pc, retired - 1);
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
      if (ret_pc >= rtn->pc_to_op.size()) [[unlikely]] {
        // A forged return address landing beyond the code: the interpreter
        // traps on its per-iteration bounds check with the landing pc.
        cpu_.pc = ret_pc;
        retired_ = retired;
        trap("pc past end of function");
      }
      i = pc2op[ret_pc];
      TQ_NEXT();
    }

    TQ_CASE(kSys) {
      TQ_HEAD(false)
      TQ_PRE()
      cpu_.func = cur_func;
      cpu_.pc = op->pc;
      retired_ = retired;
      do_sys(op->imm);
      ++i;
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

    // ---- superinstructions (unpredicated by construction) ----

    TQ_CASE(kFuseAddIAddI) {
      TQ_HEAD(false)
      r[op->rd] = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      ++retired;
      TQ_MID()
      r[op->rd2] = r[op->ra2] + static_cast<std::uint64_t>(op->imm2);
      ++retired;
      ++i;
      TQ_NEXT();
    }
    TQ_CASE(kFuseAddISltSI) {
      TQ_HEAD(false)
      r[op->rd] = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      ++retired;
      TQ_MID()
      r[op->rd2] = static_cast<std::int64_t>(r[op->ra2]) < op->imm2;
      ++retired;
      ++i;
      TQ_NEXT();
    }
    TQ_CASE(kFuseAddIBrNZ) {
      TQ_HEAD(false)
      const std::uint64_t v = r[op->ra] + static_cast<std::uint64_t>(op->imm);
      r[op->rd] = v;
      ++retired;
      TQ_MID()
      ++retired;
      i = (v != 0) ? op->target : i + 1;
      TQ_NEXT();
    }
    TQ_CASE(kFuseSltSIBrNZ) {
      TQ_HEAD(false)
      const bool t = static_cast<std::int64_t>(r[op->ra]) < op->imm;
      r[op->rd] = t;
      ++retired;
      TQ_MID()
      ++retired;
      i = t ? op->target : i + 1;
      TQ_NEXT();
    }
    TQ_CASE(kFuseSltSBrNZ) {
      TQ_HEAD(false)
      const bool t = static_cast<std::int64_t>(r[op->ra]) <
                     static_cast<std::int64_t>(r[op->rb]);
      r[op->rd] = t;
      ++retired;
      TQ_MID()
      ++retired;
      i = t ? op->target : i + 1;
      TQ_NEXT();
    }
    TQ_CASE(kFuseSltUBrNZ) {
      TQ_HEAD(false)
      const bool t = r[op->ra] < r[op->rb];
      r[op->rd] = t;
      ++retired;
      TQ_MID()
      ++retired;
      i = t ? op->target : i + 1;
      TQ_NEXT();
    }
    TQ_CASE(kFuseSeqBrZ) {
      TQ_HEAD(false)
      const bool t = r[op->ra] == r[op->rb];
      r[op->rd] = t;
      ++retired;
      TQ_MID()
      ++retired;
      i = t ? i + 1 : op->target;
      TQ_NEXT();
    }
    TQ_CASE(kFuseSeqBrNZ) {
      TQ_HEAD(false)
      const bool t = r[op->ra] == r[op->rb];
      r[op->rd] = t;
      ++retired;
      TQ_MID()
      ++retired;
      i = t ? op->target : i + 1;
      TQ_NEXT();
    }

#if TQ_CGOTO
#else
        default:
          TQUAD_CHECK(false, "invalid compiled opcode");
      }
    }
#endif
#undef TQ_CASE
#undef TQ_NEXT

  handle_stop : {
    // `retired >= stop_at` or the interrupt flag fired (cpu_.pc set at the
    // jump site). The interrupt wins over the budget, and the budget over
    // trap_at, matching the interpreter's check order.
    cpu_.func = cur_func;
    retired_ = retired;
    if (irq != nullptr && *irq != 0) {
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
#undef TQ_HEAD
#undef TQ_MID
#undef TQ_PRE
#undef TQ_FLUSH_SPAN
#undef TQ_SET_ROUTINE
#undef TQ_ALU

}  // namespace tq::vm
