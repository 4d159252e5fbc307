// The instrumentation seam between the VM's execution engines and the
// session's attribution service.
//
// Both engines (vm::Machine and vm::CompiledMachine) take one EventSink and
// emit the same stream into it: routine entries, tick spans, executed
// accesses and returns, in the interpreter's reference order. The
// interpreter emits one-tick spans; the compiled engine batches the ticks
// between two attribution boundaries into one span. Tools never see this
// layer directly — they are session::AnalysisConsumers downstream of it.
#pragma once

#include <cstdint>

namespace tq::vm {

/// Raw profiling events at attribution granularity.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// A routine was entered; `retired` counts instructions before the call.
  virtual void on_enter(std::uint32_t func, std::uint64_t retired) = 0;

  /// `count` contiguous ticks in `func` starting at `first_retired`, of
  /// which `mem_count` carried a memory operand (by static operand widths,
  /// so predicated-off instructions count too).
  virtual void on_tick_span(std::uint32_t func, std::uint64_t first_retired,
                            std::uint64_t count, std::uint64_t mem_count) = 0;

  /// One executed architectural access (reads delivered before writes).
  virtual void on_access(std::uint32_t func, std::uint32_t pc,
                         std::uint64_t retired, std::uint64_t ea,
                         std::uint32_t size, bool is_read, bool is_stack,
                         bool is_prefetch) = 0;

  /// An executed return (fires after its return-address-pop access).
  virtual void on_ret(std::uint32_t func, std::uint32_t pc,
                      std::uint64_t retired) = 0;
};

}  // namespace tq::vm
