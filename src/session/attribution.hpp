// The shared kernel-attribution service.
//
// Exactly one CallStack per run, owned here — no tool keeps its own. An
// event source (a live engine or a trace replay) pushes the raw
// enter/tick/access/ret stream in through the vm::EventSink overrides;
// KernelAttribution stamps each event with the current attribution state and
// encodes it once, as a 32-byte Record (events.hpp), into a batch — only the
// kinds some consumer subscribed to. A full batch, and the tail at
// input_finish, goes to every attached consumer in attach order on the VM
// thread, and in parallel mode is then shared with the ParallelPipeline's
// readers. The input methods are inline and the class is final: they sit on
// the per-instruction hot path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "session/events.hpp"
#include "session/pipeline.hpp"
#include "tquad/callstack.hpp"
#include "vm/event_sink.hpp"
#include "vm/program.hpp"

namespace tq::session {

/// Attributed-event tallies by kind, maintained by KernelAttribution for
/// every run. Ticks are counted at run-flush granularity (one add per run,
/// not per instruction), so the bookkeeping stays off the per-tick path.
struct EventCounts {
  std::uint64_t enters = 0;
  std::uint64_t ticks = 0;      ///< total instruction ticks
  std::uint64_t tick_runs = 0;  ///< tick runs flushed
  std::uint64_t accesses = 0;
  std::uint64_t rets = 0;
};

class KernelAttribution final : public vm::EventSink {
 public:
  KernelAttribution(const vm::Program& program, tquad::LibraryPolicy policy,
                    std::size_t batch_events = PipelineOptions{}.batch_events)
      : program_(program),
        policy_(policy),
        stack_(program, policy),
        cap_(std::max<std::size_t>(batch_events, 1)) {
    // Byte-per-function copy of the tracked table: the per-tick lookup is
    // hot, and vector<bool> bit extraction costs more than a byte load.
    tracked_.resize(program.functions().size());
    for (std::size_t f = 0; f < tracked_.size(); ++f) {
      tracked_[f] = stack_.tracked(static_cast<std::uint32_t>(f)) ? 1 : 0;
    }
  }

  KernelAttribution(const KernelAttribution&) = delete;
  KernelAttribution& operator=(const KernelAttribution&) = delete;

  /// Attach a consumer (before the run). Every batch goes to the attached
  /// consumers in attach order, each filtered by its event_interests().
  void add_consumer(AnalysisConsumer& consumer) {
    consumers_.push_back({&consumer, consumer.event_interests()});
    interests_ |= consumers_.back().interests;
  }

  /// Parallel mode (called by ParallelPipeline::attach): share every batch
  /// with `pipeline` once the attached consumers have read it, and run its
  /// drain barrier at input_finish.
  void publish_to(ParallelPipeline& pipeline) {
    pipeline_ = &pipeline;
    interests_ |= pipeline.interests();
  }

  const vm::Program& program() const noexcept { return program_; }
  tquad::LibraryPolicy policy() const noexcept { return policy_; }
  const tquad::CallStack& callstack() const noexcept { return stack_; }
  std::size_t consumer_count() const noexcept { return consumers_.size(); }
  /// Valid once the run finished (pending tick runs flush at input_finish).
  const EventCounts& event_counts() const noexcept { return counts_; }

  // ---- event input (vm::EventSink, called by EventSources) ----------------

  void on_enter(std::uint32_t func, std::uint64_t retired) override {
    flush_run();
    const std::uint32_t caller = top_;
    stack_.on_enter(func);
    top_ = stack_.top();
    ++counts_.enters;
    if (interests_ & AnalysisConsumer::kEnterInterest) {
      emit(kEnter | flag(tracked_[func] != 0, kTracked), retired, 0, func, caller, top_);
    }
  }

  /// The batched tick path: ticks never change attribution state, so they
  /// are accumulated into contiguous runs here and encoded as one tick-run
  /// record at the next attribution boundary. The run's kernel/tracked
  /// stamps stay valid for its whole span because routine entries and
  /// returns always flush first. This adds a span of `count` contiguous
  /// ticks in `func` starting at `first_retired`, of which `mem_count`
  /// carried a read or write operand (the accesses themselves still come
  /// through on_access exactly). The interpreter and trace replay pass
  /// one-tick spans (replay also passes its silent gaps whole); the compiled
  /// engine batches the ticks between two attribution boundaries itself.
  void on_tick_span(std::uint32_t func, std::uint64_t first_retired,
                    std::uint64_t count, std::uint64_t mem_count) override {
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

  void on_access(std::uint32_t func, std::uint32_t pc, std::uint64_t retired,
                 std::uint64_t ea, std::uint32_t size, bool is_read, bool is_stack,
                 bool is_prefetch) override {
    ++counts_.accesses;
    if (!(interests_ & AnalysisConsumer::kAccessInterest)) return;
    const bool wide = size > kMaxInlineSize;
    emit(kAccess | flag(is_read, kRead) | flag(is_stack, kStack) |
             flag(is_prefetch, kPrefetch) | (wide ? kWide : size << kSizeShift),
         retired, ea, func, pc, top_, size);
  }

  void on_ret(std::uint32_t func, std::uint32_t pc, std::uint64_t retired) override {
    flush_run();
    ++counts_.rets;
    if (interests_ & AnalysisConsumer::kRetInterest) {
      emit(kRet | flag(tracked_[func] != 0, kTracked), retired, 0, func, pc, top_);
    }
    stack_.on_ret(func);
    top_ = stack_.top();
  }

  /// End of input with the structured outcome: encode the pending tick run
  /// and the end marker (on_session_end(outcome.retired)), deliver the tail
  /// batch, then on_finish(outcome) to every attached consumer, and in
  /// parallel mode run the pipeline's drain barrier. Event sources call this
  /// on every path (halt/trap/truncation/interrupt) so partial profiles are
  /// flushed and stamped, never discarded.
  void input_finish(const vm::RunOutcome& outcome) {
    flush_run();
    emit(kEnd, outcome.retired, 0, 0, 0, 0);
    flush_batch();
    for (const Attached& attached : consumers_) attached.consumer->on_finish(outcome);
    if (pipeline_ != nullptr) pipeline_->drain(outcome);
  }

 private:
  struct Attached {
    AnalysisConsumer* consumer;
    unsigned interests;  ///< its event_interests(), read once
  };

  void flush_run() {
    if (run_count_ == 0) return;
    counts_.ticks += run_count_;
    ++counts_.tick_runs;
    if (interests_ & AnalysisConsumer::kTickInterest) {
      const bool wide = run_mem_ > UINT32_MAX;
      emit(kTickRun | flag(tracked_[run_func_] != 0, kTracked) | flag(wide, kWide),
           run_start_, run_count_, run_func_, static_cast<std::uint32_t>(run_mem_),
           top_, run_mem_);
    }
    run_count_ = 0;
  }

  /// The one encoder: append an event's record (and, when `tag` has kWide,
  /// the extension record carrying `wide`), delivering a full batch first.
  void emit(std::uint32_t tag, std::uint64_t a, std::uint64_t b, std::uint32_t func,
            std::uint32_t c, std::uint32_t kernel, std::uint64_t wide = 0) {
    if (next_ == limit_) [[unlikely]] flush_batch();
    *next_++ = {a, b, func, c, kernel, tag};
    if (tag & kWide) [[unlikely]] {
      *next_++ = {wide, 0, 0, 0, 0, kExtension};
      ++limit_;  // the extension record is part of the same event
    }
  }

  /// Deliver the batch to the attached consumers, then either share it with
  /// the pipeline (and start a fresh one) or reuse it.
  [[gnu::noinline]] void flush_batch() {
    Record* const records = batch_->records.get();
    if (next_ == records) return;
    batch_->size = static_cast<std::size_t>(next_ - records);
    for (const Attached& attached : consumers_) {
      attached.consumer->on_batch(attached.interests, *batch_);
    }
    if (pipeline_ != nullptr) {
      pipeline_->publish(std::move(batch_));
      batch_ = std::make_shared<Batch>(cap_);
    }
    next_ = batch_->records.get();
    limit_ = next_ + cap_;
  }

  const vm::Program& program_;
  tquad::LibraryPolicy policy_;
  tquad::CallStack stack_;
  std::vector<std::uint8_t> tracked_;     ///< byte-wide copy of the tracked table
  std::uint32_t top_ = tquad::kNoKernel;  ///< cached stack_.top()
  std::vector<Attached> consumers_;       ///< attach order
  ParallelPipeline* pipeline_ = nullptr;  ///< parallel mode only
  unsigned interests_ = 0;  ///< kinds to encode: every reader's union
  EventCounts counts_;

  // The batch being filled.
  const std::size_t cap_;  ///< events per batch
  std::shared_ptr<Batch> batch_ = std::make_shared<Batch>(cap_);
  Record* next_ = batch_->records.get();  ///< next free record of batch_
  /// next_ once batch_ holds cap_ events: one record per event, plus one
  /// per wide event's extension.
  Record* limit_ = next_ + cap_;

  // Pending tick run (see on_tick_span).
  std::uint32_t run_func_ = 0;
  std::uint64_t run_start_ = 0;
  std::uint64_t run_count_ = 0;
  std::uint64_t run_mem_ = 0;
};

}  // namespace tq::session
