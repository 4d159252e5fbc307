// The lowering pass: one routine's decoded isa::Instr stream down to the
// compiled engine's op array, one op per instruction, cut into runs.
#pragma once

#include <cstdint>

#include "vm/compiled.hpp"
#include "vm/program.hpp"

namespace tq::vm {

/// Lower `func` of `program`.
CompiledRoutine lower_routine(const Program& program, std::uint32_t func);

/// The has-memory-operand bit `op`'s tick span records (run head or not):
/// 1 for a call, a ret, or a load/store/prefetch/movs of nonzero width. A
/// predicated-off op counts too, as in the interpreter's one-tick spans.
/// Lowering sums it into run_mem; the checked dispatch path adds it per op.
unsigned op_mem_bit(const COp& op) noexcept;

}  // namespace tq::vm
