#include "vm/lower.hpp"

#include "support/check.hpp"

namespace tq::vm {

namespace {

using isa::Instr;
using isa::Op;

// The COpId enum lists the unfused ops in isa::Op order so lowering a plain
// instruction is a cast; keep the two enums pinned together.
static_assert(static_cast<int>(COpId::kNop) == static_cast<int>(Op::kNop));
static_assert(static_cast<int>(COpId::kAdd) == static_cast<int>(Op::kAdd));
static_assert(static_cast<int>(COpId::kMovI) == static_cast<int>(Op::kMovI));
static_assert(static_cast<int>(COpId::kLoad) == static_cast<int>(Op::kLoad));
static_assert(static_cast<int>(COpId::kMovs) == static_cast<int>(Op::kMovs));
static_assert(static_cast<int>(COpId::kJmp) == static_cast<int>(Op::kJmp));
static_assert(static_cast<int>(COpId::kSys) == static_cast<int>(Op::kSys));
static_assert(static_cast<int>(COpId::kPastEnd) ==
              static_cast<int>(Op::kOpCount_));

/// Superinstruction selection. Candidate firsts never trap, never transfer
/// control and always fall through; candidate seconds are plain ALU ops or
/// the branch consuming the value the first just produced. Returns kCount_
/// (the sentinel) when the pair does not fuse.
COpId fuse_pair(const Instr& a, const Instr& b) noexcept {
  switch (a.op) {
    case Op::kAddI:
      if (b.op == Op::kAddI) return COpId::kFuseAddIAddI;
      if (b.op == Op::kSltSI) return COpId::kFuseAddISltSI;
      if (b.op == Op::kBrNZ && b.ra == a.rd) return COpId::kFuseAddIBrNZ;
      break;
    case Op::kSltSI:
      if (b.op == Op::kBrNZ && b.ra == a.rd) return COpId::kFuseSltSIBrNZ;
      break;
    case Op::kSltS:
      if (b.op == Op::kBrNZ && b.ra == a.rd) return COpId::kFuseSltSBrNZ;
      break;
    case Op::kSltU:
      if (b.op == Op::kBrNZ && b.ra == a.rd) return COpId::kFuseSltUBrNZ;
      break;
    case Op::kSeq:
      if (b.op == Op::kBrZ && b.ra == a.rd) return COpId::kFuseSeqBrZ;
      if (b.op == Op::kBrNZ && b.ra == a.rd) return COpId::kFuseSeqBrNZ;
      break;
    default:
      break;
  }
  return COpId::kCount_;
}

bool fused_is_branch(COpId id) noexcept {
  switch (id) {
    case COpId::kFuseAddIBrNZ:
    case COpId::kFuseSltSIBrNZ:
    case COpId::kFuseSltSBrNZ:
    case COpId::kFuseSltUBrNZ:
    case COpId::kFuseSeqBrZ:
    case COpId::kFuseSeqBrNZ:
      return true;
    default:
      return false;
  }
}

/// Guest instructions an op retires.
unsigned op_instrs(COpId id) noexcept {
  return id >= COpId::kFuseAddIAddI ? 2 : 1;
}

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
      return fused_is_branch(op.id);
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
  rtn.pc_to_op.assign(size + 1, 0);

  // Entry points: pcs a transfer of control can land on. A fused pair must
  // be entered only at its first pc, so these never fuse as seconds. The
  // set covers the routine entry (pc 0), every branch target, and every
  // return site (return addresses are call_pc + 1).
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

  // Pass 1: emit ops in pc order, fusing eligible pairs; branch targets are
  // still pc values (patched in pass 2 once pc_to_op is complete).
  std::vector<std::uint32_t> needs_target_patch;  // op indices
  for (std::uint32_t pc = 0; pc < size; ++pc) {
    const Instr& ins = code[pc];
    TQUAD_CHECK(ins.op < Op::kOpCount_, "invalid opcode reached lowering");
    const auto op_index = static_cast<std::uint32_t>(rtn.ops.size());
    rtn.pc_to_op[pc] = op_index;

    COp op;
    op.pc = pc;
    op.rd = ins.rd;
    op.ra = ins.ra;
    op.rb = ins.rb;
    op.size = ins.size;
    op.pr = ins.pr;
    op.flags = ins.flags;
    op.imm = ins.imm;

    COpId fused = COpId::kCount_;
    if (pc + 1 < size && !ins.predicated() && !entry_point[pc + 1] &&
        !code[pc + 1].predicated()) {
      fused = fuse_pair(ins, code[pc + 1]);
    }
    if (fused != COpId::kCount_) {
      const Instr& second = code[pc + 1];
      op.id = fused;
      if (fused_is_branch(fused)) {
        op.target = static_cast<std::uint32_t>(second.imm);  // pc; patched
        needs_target_patch.push_back(op_index);
      } else {
        op.rd2 = second.rd;
        op.ra2 = second.ra;
        op.imm2 = second.imm;
      }
      rtn.pc_to_op[pc + 1] = op_index;  // unreachable; see entry_point
      ++rtn.fused;
      ++pc;  // the pair consumed two instructions
    } else {
      op.id = static_cast<COpId>(static_cast<std::uint8_t>(ins.op));
      if (isa::is_branch(ins.op)) {
        op.target = static_cast<std::uint32_t>(ins.imm);  // pc; patched
        needs_target_patch.push_back(op_index);
      }
    }
    rtn.ops.push_back(op);
  }

  // The synthetic past-the-end op: falling through the last instruction (or
  // a return landing beyond the code) traps exactly like the interpreter's
  // per-iteration bounds check.
  COp past_end;
  past_end.id = COpId::kPastEnd;
  past_end.pc = size;
  rtn.pc_to_op[size] = static_cast<std::uint32_t>(rtn.ops.size());
  rtn.ops.push_back(past_end);

  // Pass 2: branch targets from pc space to op indices.
  for (const std::uint32_t op_index : needs_target_patch) {
    COp& op = rtn.ops[op_index];
    op.target = rtn.pc_to_op[op.target];
  }

  // Pass 3: cut the ops (all but kPastEnd) into straight-line runs. A run
  // starts at an entry point, at a predicated op (a run of its own, whose
  // head evaluates the predicate), after an op that ends a run, or where
  // the next op would take it past kRunCap instructions. Every transfer of
  // control lands on an entry point, so it always lands on a run head.
  std::vector<std::uint32_t> heads;
  unsigned len = 0;
  unsigned mem = 0;
  const auto close_run = [&] {
    COp& head = rtn.ops[heads.back()];
    head.run_len = static_cast<std::uint8_t>(len);
    head.run_mem = static_cast<std::uint8_t>(mem);
    len = 0;
  };
  for (std::uint32_t k = 0; k + 1 < rtn.ops.size(); ++k) {
    COp& op = rtn.ops[k];
    const unsigned n = op_instrs(op.id);
    if (len != 0 && (entry_point[op.pc] || op.flags != 0 || len + n > kRunCap)) {
      close_run();
    }
    if (len == 0) {
      heads.push_back(k);
      mem = 0;
    }
    op.run_off = static_cast<std::uint8_t>(len);
    len += n;
    mem += op_mem_bit(op);
    if (ends_run(op)) close_run();
  }
  if (len != 0) close_run();
  for (const std::uint32_t k : heads) {
    COp& head = rtn.ops[k];
    head.id = static_cast<COpId>(static_cast<std::uint8_t>(head.id) + kRunHead);
  }
  rtn.runs = static_cast<std::uint32_t>(heads.size());

  rtn.lowered = true;
  return rtn;
}

}  // namespace tq::vm
