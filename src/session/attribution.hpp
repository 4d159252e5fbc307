// The shared kernel-attribution service.
//
// Exactly one CallStack per run, owned here — no tool keeps its own:
// event sources (a live engine or a trace replay) push the raw
// enter/tick/access/ret stream through input_*(), KernelAttribution stamps
// each event with the current attribution state, and every registered
// AnalysisConsumer sees the same attributed stream. The input methods are
// inline — they sit on the per-instruction hot path.
#pragma once

#include <cstdint>
#include <vector>

#include "session/events.hpp"
#include "tquad/callstack.hpp"
#include "vm/program.hpp"

namespace tq::session {

/// Attributed-event tallies by kind, maintained by KernelAttribution for
/// every run. Ticks are counted at run-flush granularity (one add per run,
/// not per instruction), so the bookkeeping stays off the per-tick path.
struct EventCounts {
  std::uint64_t enters = 0;
  std::uint64_t ticks = 0;      ///< total instruction ticks
  std::uint64_t tick_runs = 0;  ///< TickRunEvents delivered
  std::uint64_t accesses = 0;
  std::uint64_t rets = 0;
};

class KernelAttribution {
 public:
  KernelAttribution(const vm::Program& program, tquad::LibraryPolicy policy)
      : program_(program), policy_(policy), stack_(program, policy) {
    // Byte-per-function copy of the tracked table: the per-tick lookup is
    // hot, and vector<bool> bit extraction costs more than a byte load.
    tracked_.resize(program.functions().size());
    for (std::size_t f = 0; f < tracked_.size(); ++f) {
      tracked_[f] = stack_.tracked(static_cast<std::uint32_t>(f)) ? 1 : 0;
    }
  }

  KernelAttribution(const KernelAttribution&) = delete;
  KernelAttribution& operator=(const KernelAttribution&) = delete;

  /// Register a consumer (before the run). Dispatch follows add order
  /// within each event kind, filtered by the consumer's event_interests().
  void add_consumer(AnalysisConsumer& consumer) {
    consumers_.push_back(&consumer);
    const unsigned interests = consumer.event_interests();
    if (interests & AnalysisConsumer::kEnterInterest) {
      enter_consumers_.push_back(&consumer);
    }
    if (interests & AnalysisConsumer::kTickInterest) {
      tick_consumers_.push_back(&consumer);
    }
    if (interests & AnalysisConsumer::kAccessInterest) {
      access_consumers_.push_back(&consumer);
    }
    if (interests & AnalysisConsumer::kRetInterest) {
      ret_consumers_.push_back(&consumer);
    }
  }

  const vm::Program& program() const noexcept { return program_; }
  tquad::LibraryPolicy policy() const noexcept { return policy_; }
  const tquad::CallStack& callstack() const noexcept { return stack_; }
  std::size_t consumer_count() const noexcept { return consumers_.size(); }
  /// Valid once the run finished (pending tick runs flush at input_end).
  const EventCounts& event_counts() const noexcept { return counts_; }

  // ---- event input (called by EventSources) -------------------------------

  void input_enter(std::uint32_t func, std::uint64_t retired) {
    flush_run();
    EnterEvent event;
    event.func = func;
    event.caller = top_;
    event.retired = retired;
    event.tracked = tracked_[func] != 0;
    stack_.on_enter(func);
    top_ = stack_.top();
    event.kernel = top_;
    ++counts_.enters;
    for (AnalysisConsumer* consumer : enter_consumers_) {
      consumer->on_kernel_enter(event);
    }
  }

  /// The batched tick path: ticks never change attribution state, so they
  /// are accumulated into contiguous runs here and delivered through
  /// AnalysisConsumer::on_tick_run at the next attribution boundary. The
  /// run's kernel/tracked stamps stay valid for its whole span because
  /// routine entries and returns always flush first. This adds a span of
  /// `count` contiguous ticks in `func` starting at `first_retired`, of
  /// which `mem_count` carried a read or write operand (the accesses
  /// themselves still go through input_access exactly). The interpreter
  /// and trace replay pass one-tick spans (replay also passes its silent
  /// gaps whole); the compiled engine batches the ticks between two
  /// attribution boundaries itself.
  void input_batch_tick_span(std::uint32_t func, std::uint64_t first_retired,
                             std::uint64_t count, std::uint64_t mem_count) {
    if (count == 0) return;
    if (run_count_ != 0 && func == run_func_) {
      run_count_ += count;
      run_mem_ += mem_count;
      return;
    }
    flush_run();
    run_func_ = func;
    run_start_ = first_retired;
    run_count_ = count;
    run_mem_ = mem_count;
  }

  void input_access(std::uint32_t func, std::uint32_t pc, std::uint64_t retired,
                    std::uint64_t ea, std::uint32_t size, bool is_read,
                    bool is_stack, bool is_prefetch) {
    AccessEvent event;
    event.func = func;
    event.pc = pc;
    event.kernel = top_;
    event.retired = retired;
    event.ea = ea;
    event.size = size;
    event.is_read = is_read;
    event.is_stack = is_stack;
    event.is_prefetch = is_prefetch;
    ++counts_.accesses;
    for (AnalysisConsumer* consumer : access_consumers_) {
      consumer->on_access(event);
    }
  }

  void input_ret(std::uint32_t func, std::uint32_t pc, std::uint64_t retired) {
    flush_run();
    RetEvent event;
    event.func = func;
    event.pc = pc;
    event.kernel = top_;
    event.retired = retired;
    event.tracked = tracked_[func] != 0;
    ++counts_.rets;
    for (AnalysisConsumer* consumer : ret_consumers_) {
      consumer->on_kernel_ret(event);
    }
    stack_.on_ret(func);
    top_ = stack_.top();
  }

  void input_end(std::uint64_t total_retired) {
    flush_run();
    for (AnalysisConsumer* consumer : consumers_) {
      consumer->on_session_end(total_retired);
    }
  }

  /// End of input with the structured outcome: flush, deliver
  /// on_session_end(outcome.retired), then on_finish(outcome) to every
  /// consumer. Event sources call this on every path (halt/trap/truncation)
  /// so partial profiles are flushed and stamped, never discarded.
  void input_finish(const vm::RunOutcome& outcome) {
    input_end(outcome.retired);
    for (AnalysisConsumer* consumer : consumers_) {
      consumer->on_finish(outcome);
    }
  }

 private:
  void flush_run() {
    if (run_count_ == 0) return;
    TickRunEvent run;
    run.func = run_func_;
    run.kernel = top_;
    run.first_retired = run_start_;
    run.count = run_count_;
    run.mem_count = run_mem_;
    run.tracked = tracked_[run_func_] != 0;
    counts_.ticks += run_count_;
    ++counts_.tick_runs;
    run_count_ = 0;
    for (AnalysisConsumer* consumer : tick_consumers_) {
      consumer->on_tick_run(run);
    }
  }

  const vm::Program& program_;
  tquad::LibraryPolicy policy_;
  tquad::CallStack stack_;
  std::vector<std::uint8_t> tracked_;     ///< byte-wide copy of the tracked table
  std::uint32_t top_ = tquad::kNoKernel;  ///< cached stack_.top()
  std::vector<AnalysisConsumer*> consumers_;  ///< all, in add order (end events)
  std::vector<AnalysisConsumer*> enter_consumers_;
  std::vector<AnalysisConsumer*> tick_consumers_;
  std::vector<AnalysisConsumer*> access_consumers_;
  std::vector<AnalysisConsumer*> ret_consumers_;
  EventCounts counts_;

  // Pending tick run (see input_batch_tick_span).
  std::uint32_t run_func_ = 0;
  std::uint64_t run_start_ = 0;
  std::uint64_t run_count_ = 0;
  std::uint64_t run_mem_ = 0;
};

}  // namespace tq::session
