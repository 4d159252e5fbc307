// The compiled engine's out-of-line parts — construction, lowering on first
// entry, traps, syscalls and fault injection — and the two instantiations
// of its dispatch loop that src/vm owns: the bare run and the virtual
// vm::EventSink run. The loop itself is in compiled_loop.hpp.
#include "vm/compiled.hpp"

#include <string>

#include "support/check.hpp"
#include "vm/compiled_loop.hpp"
#include "vm/lower.hpp"

namespace tq::vm {

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

void CompiledMachine::begin() {
  TQUAD_CHECK(!ran_,
              "CompiledMachine::run is single-shot; construct a fresh "
              "CompiledMachine");
  ran_ = true;
  for (const DataInit& init : program_.data()) {
    memory_.write(init.addr, init.bytes);
  }
}

RunOutcome CompiledMachine::run() {
  begin();
  return exec<void, false>(nullptr, nullptr);
}

RunOutcome CompiledMachine::run(EventSink& sink) { return run_with(sink); }

}  // namespace tq::vm
