// The lowering pass: one routine's decoded isa::Instr stream down to the
// compiled engine's fused-op form.
#pragma once

#include <cstdint>

#include "vm/compiled.hpp"
#include "vm/program.hpp"

namespace tq::vm {

/// Lower `func` of `program`.
CompiledRoutine lower_routine(const Program& program, std::uint32_t func);

}  // namespace tq::vm
