#include "vm/lower.hpp"

#include "support/check.hpp"

namespace tq::vm {

namespace {

using isa::Instr;
using isa::Op;

// The COpId enum lists the ops in isa::Op order so lowering an instruction
// is a cast; keep the two enums pinned together.
static_assert(static_cast<int>(COpId::kNop) == static_cast<int>(Op::kNop));
static_assert(static_cast<int>(COpId::kAdd) == static_cast<int>(Op::kAdd));
static_assert(static_cast<int>(COpId::kMovI) == static_cast<int>(Op::kMovI));
static_assert(static_cast<int>(COpId::kLoad) == static_cast<int>(Op::kLoad));
static_assert(static_cast<int>(COpId::kMovs) == static_cast<int>(Op::kMovs));
static_assert(static_cast<int>(COpId::kJmp) == static_cast<int>(Op::kJmp));
static_assert(static_cast<int>(COpId::kSys) == static_cast<int>(Op::kSys));
static_assert(static_cast<int>(COpId::kPastEnd) ==
              static_cast<int>(Op::kOpCount_));

/// Whether `op` must be the last of its run: it transfers control, halts,
/// makes a syscall, is predicated, or can trap. The handlers of these ops
/// read the live retired count (or unwind through a trap), which is exact
/// only at a run's end.
bool ends_run(const COp& op) noexcept {
  if (op.flags != 0) return true;
  switch (op.id) {
    case COpId::kHalt:
    case COpId::kDivS:
    case COpId::kRemS:
    case COpId::kJmp:
    case COpId::kBrZ:
    case COpId::kBrNZ:
    case COpId::kCall:
    case COpId::kRet:
    case COpId::kSys:
      return true;
    default:
      return false;
  }
}

}  // namespace

unsigned op_mem_bit(const COp& op) noexcept {
  auto id = static_cast<std::uint8_t>(op.id);
  if (id >= kRunHead) id -= kRunHead;
  switch (static_cast<COpId>(id)) {
    case COpId::kLoad:
    case COpId::kLoadS:
    case COpId::kStore:
    case COpId::kFLoad:
    case COpId::kFStore:
    case COpId::kFLoad4:
    case COpId::kFStore4:
    case COpId::kPrefetch:
    case COpId::kMovs:
      return op.size != 0 ? 1 : 0;
    case COpId::kCall:
    case COpId::kRet:
      return 1;
    default:
      return 0;
  }
}

CompiledRoutine lower_routine(const Program& program, std::uint32_t func) {
  const std::vector<Instr>& code = program.functions()[func].code;
  const auto size = static_cast<std::uint32_t>(code.size());
  CompiledRoutine rtn;
  rtn.ops.reserve(size + 1);

  // Entry points: pcs a transfer of control can land on, so each starts a
  // run. The set covers the routine entry (pc 0), every branch target, and
  // every return site (return addresses are call_pc + 1).
  std::vector<std::uint8_t> entry_point(size + 1, 0);
  if (size != 0) entry_point[0] = 1;
  for (std::uint32_t pc = 0; pc < size; ++pc) {
    const Instr& ins = code[pc];
    if (isa::is_branch(ins.op)) {
      entry_point[static_cast<std::uint32_t>(ins.imm)] = 1;
    } else if (isa::is_call(ins.op)) {
      entry_point[pc + 1] = 1;
    }
  }

  // Pass 1: one op per instruction, in pc order, so an op's index is its
  // pc and branch targets need no translation.
  for (std::uint32_t pc = 0; pc < size; ++pc) {
    const Instr& ins = code[pc];
    TQUAD_CHECK(ins.op < Op::kOpCount_, "invalid opcode reached lowering");
    COp op;
    op.id = static_cast<COpId>(static_cast<std::uint8_t>(ins.op));
    op.pc = pc;
    op.rd = ins.rd;
    op.ra = ins.ra;
    op.rb = ins.rb;
    op.size = ins.size;
    op.pr = ins.pr;
    op.flags = ins.flags;
    op.imm = ins.imm;
    if (isa::is_branch(ins.op)) op.target = static_cast<std::uint32_t>(ins.imm);
    rtn.ops.push_back(op);
  }

  // The synthetic past-the-end op: falling through the last instruction (or
  // a return landing one past the code) traps exactly like the
  // interpreter's per-iteration bounds check.
  COp past_end;
  past_end.id = COpId::kPastEnd;
  past_end.pc = size;
  rtn.ops.push_back(past_end);

  // Pass 2: cut the ops (all but kPastEnd) into straight-line runs. A run
  // starts at an entry point, at a predicated op (a run of its own, whose
  // head evaluates the predicate), after an op that ends a run, or where
  // the run already holds kRunCap instructions. Every branch and every
  // genuine return lands on an entry point, so on a run head.
  std::vector<std::uint32_t> heads;
  unsigned len = 0;
  unsigned mem = 0;
  const auto close_run = [&] {
    COp& head = rtn.ops[heads.back()];
    head.run_len = static_cast<std::uint8_t>(len);
    head.run_mem = static_cast<std::uint8_t>(mem);
    len = 0;
  };
  for (std::uint32_t pc = 0; pc < size; ++pc) {
    COp& op = rtn.ops[pc];
    if (len != 0 && (entry_point[pc] || op.flags != 0 || len == kRunCap)) {
      close_run();
    }
    if (len == 0) {
      heads.push_back(pc);
      mem = 0;
    }
    op.run_off = static_cast<std::uint8_t>(len);
    ++len;
    mem += op_mem_bit(op);
    if (ends_run(op)) close_run();
  }
  if (len != 0) close_run();
  for (const std::uint32_t pc : heads) {
    COp& head = rtn.ops[pc];
    head.id = static_cast<COpId>(static_cast<std::uint8_t>(head.id) + kRunHead);
  }
  rtn.runs = static_cast<std::uint32_t>(heads.size());

  rtn.lowered = true;
  return rtn;
}

}  // namespace tq::vm
