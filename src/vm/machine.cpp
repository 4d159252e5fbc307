#include "vm/machine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "support/check.hpp"
#include "vm/stack_addr.hpp"

namespace tq::vm {

using isa::Instr;
using isa::Op;

Machine::Machine(const Program& program, HostEnv& host)
    : program_(program), host_(host) {
  program_.validate();
}

void Machine::trap(const std::string& why) const {
  const std::string where = cpu_.func < program_.functions().size()
                                ? program_.functions()[cpu_.func].name
                                : "<bad function>";
  throw TrapError("guest trap: " + why + " (in '" + where + "' at pc " +
                      std::to_string(cpu_.pc) + ", retired " +
                      std::to_string(retired_) + ")",
                  why, cpu_.func, cpu_.pc);
}

// FaultPlan function-entry trigger. Runs right after the entered routine's
// on_enter event, so the event stream up to the trap matches a clean
// run cut at the same retired count.
void Machine::check_entry_fault() {
  if (fault_.fail_func == FaultPlan::kNoFunc || cpu_.func != fault_.fail_func)
    return;
  if (++fault_entries_seen_ >= fault_.fail_func_entries) {
    trap("fault injection: function entered " +
         std::to_string(fault_entries_seen_) + " time(s)");
  }
}

void run_syscall(std::int64_t sys, Cpu& cpu, PagedMemory& memory, HostEnv& host,
                 std::uint64_t& heap_ptr) {
  auto& r = cpu.regs;
  switch (static_cast<isa::Sys>(sys)) {
    case isa::Sys::kAlloc: {
      const std::uint64_t size = r[1];
      heap_ptr = (heap_ptr + 15) & ~15ull;
      // Compared before the bump, so no size can wrap the cursor.
      if (size > kStackLimit - heap_ptr) TQUAD_THROW("guest heap exhausted");
      r[1] = heap_ptr;
      heap_ptr += size;
      break;
    }
    case isa::Sys::kRead: {
      const std::span<const std::uint8_t> bytes =
          host.read(static_cast<int>(r[1]), r[3]);
      memory.write(r[2], bytes);
      r[1] = bytes.size();
      break;
    }
    case isa::Sys::kWrite: {
      const int fd = static_cast<int>(r[1]);
      const std::uint64_t buf = r[2];
      const std::uint64_t len = r[3];
      if (len > kStackBase - std::min(buf, kStackBase)) {
        TQUAD_THROW("guest write range leaves the guest address space");
      }
      // Copied a chunk at a time; a zero-length write still checks `fd`.
      std::uint8_t chunk[4096];
      std::uint64_t done = 0;
      do {
        const std::size_t n = std::min<std::uint64_t>(len - done, sizeof chunk);
        memory.read(buf + done, std::span<std::uint8_t>(chunk, n));
        host.write(fd, std::span<const std::uint8_t>(chunk, n));
        done += n;
      } while (done < len);
      r[1] = len;
      break;
    }
    case isa::Sys::kSeek:
      host.seek(static_cast<int>(r[1]), r[2]);
      break;
    case isa::Sys::kFileSize:
      r[1] = host.file_size(static_cast<int>(r[1]));
      break;
    case isa::Sys::kPrintI64:
      host.append_log(std::to_string(static_cast<std::int64_t>(r[1])));
      break;
    case isa::Sys::kPrintF64:
      host.append_log(std::to_string(cpu.fregs[1]));
      break;
    default:
      TQUAD_THROW("unknown syscall " + std::to_string(sys));
  }
}

void Machine::do_sys(const Instr& ins) {
  ++syscalls_seen_;
  if (fault_.fail_syscall != 0 && syscalls_seen_ == fault_.fail_syscall)
      [[unlikely]] {
    trap("fault injection: syscall " + std::to_string(syscalls_seen_) +
         " failed");
  }
  try {
    run_syscall(ins.imm, cpu_, memory_, host_, heap_ptr_);
  } catch (const Error& err) {
    trap(err.what());
  }
}

RunOutcome Machine::run() { return start(nullptr); }
RunOutcome Machine::run(EventSink& sink) { return start(&sink); }

RunOutcome Machine::start(EventSink* sink) {
  TQUAD_CHECK(!ran_, "Machine::run is single-shot; construct a fresh Machine");
  ran_ = true;
  for (const DataInit& init : program_.data()) {
    memory_.write(init.addr, init.bytes);
  }
  try {
    return sink ? run_loop<true>(sink) : run_loop<false>(nullptr);
  } catch (const TrapError& err) {
    // Guest-attributable fault: a structured outcome, not a host error. The
    // events delivered so far are the exact prefix up to the trap.
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

// One instruction's events, from pre-execution state (the retired stamp and
// SP before it retires): its one-tick span, whose memory bit comes from the
// static operand widths so a predicated-off instruction counts too; then,
// only if it executed, its reads, its writes and its return.
void Machine::emit_instr(EventSink& sink, const Instr& ins, bool executed) {
  const std::uint32_t func = cpu_.func;
  const std::uint32_t pc = cpu_.pc;
  const std::uint64_t sp = cpu_.sp_value();
  const auto access = [&](std::uint64_t ea, std::uint32_t size, bool is_read,
                          bool is_prefetch) {
    sink.on_access(func, pc, retired_, ea, size, is_read,
                   is_stack_addr(ea, sp), is_prefetch);
  };
  const auto& r = cpu_.regs;
  switch (ins.op) {
    case Op::kCall:  // pushes the 8-byte return address
      sink.on_tick_span(func, retired_, 1, 1);
      if (executed) access(sp - 8, 8, false, false);
      return;
    case Op::kRet:  // pops it
      sink.on_tick_span(func, retired_, 1, 1);
      if (executed) {
        access(sp, 8, true, false);
        sink.on_ret(func, pc, retired_);
      }
      return;
    case Op::kMovs:
      sink.on_tick_span(func, retired_, 1, ins.size != 0 ? 1 : 0);
      if (executed) {
        access(r[ins.ra], ins.size, true, false);
        access(r[ins.rd], ins.size, false, false);
      }
      return;
    default:
      break;
  }
  const bool mem = isa::references_memory(ins.op);
  sink.on_tick_span(func, retired_, 1, mem && ins.size != 0 ? 1 : 0);
  if (mem && executed) {
    access(r[ins.ra] + static_cast<std::uint64_t>(ins.imm), ins.size,
           !isa::is_memory_write(ins.op), isa::is_prefetch(ins.op));
  }
}

template <bool kTraced>
RunOutcome Machine::run_loop(EventSink* sink) {
  cpu_.func = program_.entry();
  cpu_.pc = 0;
  cpu_.sp() = kStackBase;
  if constexpr (kTraced) sink->on_enter(cpu_.func, 0);
  check_entry_fault();
  const Function* fn = &program_.functions()[cpu_.func];
  auto& r = cpu_.regs;
  auto& f = cpu_.fregs;

  for (;;) {
    if (cpu_.pc >= fn->code.size()) [[unlikely]] {
      trap("pc past end of function");
    }
    const Instr& ins = fn->code[cpu_.pc];
    if (interrupt_ != nullptr && *interrupt_ != 0) [[unlikely]] {
      // Cooperative interruption (SIGINT/SIGTERM flag): stop at a retirement
      // boundary so the events delivered so far are a valid prefix.
      RunOutcome out;
      out.status = RunStatus::kInterrupted;
      out.retired = retired_;
      return out;
    }
    if (budget_ != 0 && retired_ >= budget_) [[unlikely]] {
      // Graceful truncation: the events so far are a valid prefix.
      RunOutcome out;
      out.status = RunStatus::kTruncated;
      out.retired = retired_;
      return out;
    }
    if (fault_.trap_at_retired != 0 && retired_ >= fault_.trap_at_retired)
        [[unlikely]] {
      trap("fault injection: trap at retired " +
           std::to_string(fault_.trap_at_retired));
    }
    const bool executed = !ins.predicated() || r[ins.pr] != 0;

    if constexpr (kTraced) emit_instr(*sink, ins, executed);

    ++retired_;
    if (!executed) {
      ++cpu_.pc;
      continue;
    }

    switch (ins.op) {
      case Op::kNop:
        break;
      case Op::kHalt: {
        RunOutcome out;
        out.retired = retired_;
        return out;
      }

      case Op::kAdd: r[ins.rd] = r[ins.ra] + r[ins.rb]; break;
      case Op::kSub: r[ins.rd] = r[ins.ra] - r[ins.rb]; break;
      case Op::kMul: r[ins.rd] = r[ins.ra] * r[ins.rb]; break;
      case Op::kDivS: {
        const auto num = static_cast<std::int64_t>(r[ins.ra]);
        const auto den = static_cast<std::int64_t>(r[ins.rb]);
        if (den == 0) trap("integer division by zero");
        r[ins.rd] = static_cast<std::uint64_t>(num / den);
        break;
      }
      case Op::kRemS: {
        const auto num = static_cast<std::int64_t>(r[ins.ra]);
        const auto den = static_cast<std::int64_t>(r[ins.rb]);
        if (den == 0) trap("integer remainder by zero");
        r[ins.rd] = static_cast<std::uint64_t>(num % den);
        break;
      }
      case Op::kAnd: r[ins.rd] = r[ins.ra] & r[ins.rb]; break;
      case Op::kOr: r[ins.rd] = r[ins.ra] | r[ins.rb]; break;
      case Op::kXor: r[ins.rd] = r[ins.ra] ^ r[ins.rb]; break;
      case Op::kShl: r[ins.rd] = r[ins.ra] << (r[ins.rb] & 63); break;
      case Op::kShrL: r[ins.rd] = r[ins.ra] >> (r[ins.rb] & 63); break;
      case Op::kShrA:
        r[ins.rd] = static_cast<std::uint64_t>(static_cast<std::int64_t>(r[ins.ra]) >>
                                               (r[ins.rb] & 63));
        break;
      case Op::kSltS:
        r[ins.rd] = static_cast<std::int64_t>(r[ins.ra]) <
                    static_cast<std::int64_t>(r[ins.rb]);
        break;
      case Op::kSltU: r[ins.rd] = r[ins.ra] < r[ins.rb]; break;
      case Op::kSeq: r[ins.rd] = r[ins.ra] == r[ins.rb]; break;

      case Op::kAddI:
        r[ins.rd] = r[ins.ra] + static_cast<std::uint64_t>(ins.imm);
        break;
      case Op::kMulI:
        r[ins.rd] = r[ins.ra] * static_cast<std::uint64_t>(ins.imm);
        break;
      case Op::kAndI:
        r[ins.rd] = r[ins.ra] & static_cast<std::uint64_t>(ins.imm);
        break;
      case Op::kOrI:
        r[ins.rd] = r[ins.ra] | static_cast<std::uint64_t>(ins.imm);
        break;
      case Op::kXorI:
        r[ins.rd] = r[ins.ra] ^ static_cast<std::uint64_t>(ins.imm);
        break;
      case Op::kShlI: r[ins.rd] = r[ins.ra] << (ins.imm & 63); break;
      case Op::kShrLI: r[ins.rd] = r[ins.ra] >> (ins.imm & 63); break;
      case Op::kShrAI:
        r[ins.rd] = static_cast<std::uint64_t>(static_cast<std::int64_t>(r[ins.ra]) >>
                                               (ins.imm & 63));
        break;
      case Op::kSltSI:
        r[ins.rd] = static_cast<std::int64_t>(r[ins.ra]) < ins.imm;
        break;

      case Op::kMovI: r[ins.rd] = static_cast<std::uint64_t>(ins.imm); break;
      case Op::kMov: r[ins.rd] = r[ins.ra]; break;

      case Op::kFAdd: f[ins.rd] = f[ins.ra] + f[ins.rb]; break;
      case Op::kFSub: f[ins.rd] = f[ins.ra] - f[ins.rb]; break;
      case Op::kFMul: f[ins.rd] = f[ins.ra] * f[ins.rb]; break;
      case Op::kFDiv: f[ins.rd] = f[ins.ra] / f[ins.rb]; break;
      case Op::kFNeg: f[ins.rd] = -f[ins.ra]; break;
      case Op::kFAbs: f[ins.rd] = std::fabs(f[ins.ra]); break;
      case Op::kFSqrt: f[ins.rd] = std::sqrt(f[ins.ra]); break;
      case Op::kFSin: f[ins.rd] = std::sin(f[ins.ra]); break;
      case Op::kFCos: f[ins.rd] = std::cos(f[ins.ra]); break;
      case Op::kFMov: f[ins.rd] = f[ins.ra]; break;
      case Op::kFMovI: f[ins.rd] = std::bit_cast<double>(ins.imm); break;
      case Op::kFMin: f[ins.rd] = std::fmin(f[ins.ra], f[ins.rb]); break;
      case Op::kFMax: f[ins.rd] = std::fmax(f[ins.ra], f[ins.rb]); break;

      case Op::kFCmpLt: r[ins.rd] = f[ins.ra] < f[ins.rb]; break;
      case Op::kFCmpLe: r[ins.rd] = f[ins.ra] <= f[ins.rb]; break;
      case Op::kFCmpEq: r[ins.rd] = f[ins.ra] == f[ins.rb]; break;

      case Op::kI2F:
        f[ins.rd] = static_cast<double>(static_cast<std::int64_t>(r[ins.ra]));
        break;
      case Op::kF2I:
        r[ins.rd] = static_cast<std::uint64_t>(static_cast<std::int64_t>(f[ins.ra]));
        break;

      case Op::kLoad: {
        const std::uint64_t ea = r[ins.ra] + static_cast<std::uint64_t>(ins.imm);
        r[ins.rd] = memory_.load(ea, ins.size);
        break;
      }
      case Op::kLoadS: {
        const std::uint64_t ea = r[ins.ra] + static_cast<std::uint64_t>(ins.imm);
        std::uint64_t value = memory_.load(ea, ins.size);
        const unsigned bits = ins.size * 8;
        if (bits < 64 && (value >> (bits - 1)) & 1) {
          value |= ~((1ull << bits) - 1);
        }
        r[ins.rd] = value;
        break;
      }
      case Op::kStore: {
        const std::uint64_t ea = r[ins.ra] + static_cast<std::uint64_t>(ins.imm);
        memory_.store(ea, r[ins.rb], ins.size);
        break;
      }
      case Op::kFLoad: {
        const std::uint64_t ea = r[ins.ra] + static_cast<std::uint64_t>(ins.imm);
        f[ins.rd] = memory_.load_f64(ea);
        break;
      }
      case Op::kFStore: {
        const std::uint64_t ea = r[ins.ra] + static_cast<std::uint64_t>(ins.imm);
        memory_.store_f64(ea, f[ins.rb]);
        break;
      }
      case Op::kFLoad4: {
        const std::uint64_t ea = r[ins.ra] + static_cast<std::uint64_t>(ins.imm);
        float value;
        const std::uint32_t raw = static_cast<std::uint32_t>(memory_.load(ea, 4));
        std::memcpy(&value, &raw, 4);
        f[ins.rd] = static_cast<double>(value);
        break;
      }
      case Op::kFStore4: {
        const std::uint64_t ea = r[ins.ra] + static_cast<std::uint64_t>(ins.imm);
        const float value = static_cast<float>(f[ins.rb]);
        std::uint32_t raw;
        std::memcpy(&raw, &value, 4);
        memory_.store(ea, raw, 4);
        break;
      }
      case Op::kPrefetch:
        // Architecturally a no-op; only the event matters.
        break;
      case Op::kMovs: {
        std::uint8_t buf[64];
        TQUAD_DCHECK(ins.size <= sizeof buf, "movs size out of range");
        memory_.read(r[ins.ra], std::span<std::uint8_t>(buf, ins.size));
        memory_.write(r[ins.rd], std::span<const std::uint8_t>(buf, ins.size));
        r[ins.ra] += ins.size;
        r[ins.rd] += ins.size;
        break;
      }

      case Op::kJmp:
        cpu_.pc = static_cast<std::uint32_t>(ins.imm);
        continue;
      case Op::kBrZ:
        if (r[ins.ra] == 0) {
          cpu_.pc = static_cast<std::uint32_t>(ins.imm);
          continue;
        }
        break;
      case Op::kBrNZ:
        if (r[ins.ra] != 0) {
          cpu_.pc = static_cast<std::uint32_t>(ins.imm);
          continue;
        }
        break;

      case Op::kCall: {
        const std::uint64_t ret_addr =
            (static_cast<std::uint64_t>(cpu_.func) << 32) | (cpu_.pc + 1);
        cpu_.sp() -= 8;
        if (cpu_.sp_value() < kStackLimit) trap("guest stack overflow");
        memory_.store(cpu_.sp_value(), ret_addr, 8);
        cpu_.func = static_cast<std::uint32_t>(ins.imm);
        cpu_.pc = 0;
        fn = &program_.functions()[cpu_.func];
        if constexpr (kTraced) sink->on_enter(cpu_.func, retired_ - 1);
        check_entry_fault();
        continue;
      }
      case Op::kRet: {
        if (cpu_.sp_value() >= kStackBase) trap("return with empty call stack");
        const std::uint64_t ret_addr = memory_.load(cpu_.sp_value(), 8);
        cpu_.sp() += 8;
        const auto ret_func = static_cast<std::uint32_t>(ret_addr >> 32);
        const auto ret_pc = static_cast<std::uint32_t>(ret_addr & 0xffffffffu);
        if (ret_func >= program_.functions().size()) {
          trap("corrupted return address");
        }
        cpu_.func = ret_func;
        cpu_.pc = ret_pc;
        fn = &program_.functions()[cpu_.func];
        continue;
      }

      case Op::kSys:
        do_sys(ins);
        break;

      case Op::kOpCount_:
        trap("invalid opcode");
    }
    ++cpu_.pc;
  }
}

template RunOutcome Machine::run_loop<false>(EventSink*);
template RunOutcome Machine::run_loop<true>(EventSink*);

}  // namespace tq::vm
