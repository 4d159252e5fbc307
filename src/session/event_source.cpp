#include "session/event_source.hpp"

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "vm/compiled.hpp"

namespace tq::session {

// ---- LiveEngineSource -----------------------------------------------------------

namespace {

/// Forwards an engine's event stream straight into the attribution service.
/// Tick spans land on the attribution's pending-run accumulator
/// (input_batch_tick_span), so consumers see TickRunEvents flushed at the
/// attribution boundaries — routine entry, return, end of input — whether
/// the engine emitted one-tick spans (interp) or batched ones (compiled).
class AttributionSink final : public vm::EventSink {
 public:
  explicit AttributionSink(KernelAttribution& attribution)
      : attribution_(attribution) {}

  void on_enter(std::uint32_t func, std::uint64_t retired) override {
    attribution_.input_enter(func, retired);
  }
  void on_tick_span(std::uint32_t func, std::uint64_t first_retired,
                    std::uint64_t count, std::uint64_t mem_count) override {
    attribution_.input_batch_tick_span(func, first_retired, count, mem_count);
  }
  void on_access(std::uint32_t func, std::uint32_t pc, std::uint64_t retired,
                 std::uint64_t ea, std::uint32_t size, bool is_read,
                 bool is_stack, bool is_prefetch) override {
    attribution_.input_access(func, pc, retired, ea, size, is_read, is_stack,
                              is_prefetch);
  }
  void on_ret(std::uint32_t func, std::uint32_t pc,
              std::uint64_t retired) override {
    attribution_.input_ret(func, pc, retired);
  }

 private:
  KernelAttribution& attribution_;
};

}  // namespace

LiveEngineSource::LiveEngineSource(const vm::Program& program, vm::HostEnv& host,
                                   std::uint64_t instruction_budget,
                                   vm::EngineKind engine)
    : program_(program) {
  if (engine == vm::EngineKind::kCompiled) {
    auto compiled = std::make_unique<vm::CompiledMachine>(program, host);
    compiled_ = compiled.get();
    engine_ = std::move(compiled);
  } else {
    engine_ = std::make_unique<vm::Machine>(program, host);
  }
  engine_->set_instruction_budget(instruction_budget);
}

vm::RunOutcome LiveEngineSource::run(KernelAttribution& attribution) {
  TQUAD_CHECK(!ran_, "LiveEngineSource::run is single-shot; construct a fresh one");
  ran_ = true;
  AttributionSink sink(attribution);
  const vm::RunOutcome outcome = engine_->run(sink);
  // input_finish runs after the engine returns so the structured outcome —
  // including trap details — reaches every consumer on every path.
  attribution.input_finish(outcome);
  return outcome;
}

void LiveEngineSource::publish_metrics(metrics::Registry& registry) const {
  if (compiled_ == nullptr) return;
  const vm::CompiledMachine::LoweringStats& stats = compiled_->lowering_stats();
  registry.set_gauge("vm.lowered.routines", stats.routines);
  registry.set_gauge("vm.lowered.ops", stats.ops);
  registry.set_gauge("vm.lowered.runs", stats.runs);
}

// ---- TraceReplaySource ----------------------------------------------------------

namespace {

/// Rebuilds the live event stream from trace records.
///
/// A trace stores records only for event-producing instructions (entries,
/// accesses, returns); the per-instruction ticks in between are implicit in
/// the retired counters. The feeder buffers records sharing one retired
/// value (one instruction plus any routine entry it triggers — groups can
/// span block boundaries), emits the missing "silent" ticks for the gaps
/// using a plain function stack maintained from enter/ret records, and
/// dispatches each group in live order: the instruction's one-tick span
/// before its first record (the span the interpreter emits), accesses and
/// returns in record order, entries where the recorder placed them.
class ReplayFeeder {
 public:
  ReplayFeeder(KernelAttribution& attribution, std::uint32_t function_count)
      : attribution_(attribution), function_count_(function_count) {
    func_stack_.reserve(64);
  }

  void feed(std::span<const trace::Record> records) {
    for (const trace::Record& record : records) {
      if (!group_.empty() && record.retired != group_retired_) flush_group();
      if (group_.empty()) group_retired_ = record.retired;
      if (record.func >= function_count_ ||
          (record.kind == trace::EventKind::kEnter &&
           record.ea >= function_count_)) {
        TQUAD_THROW("TQTR record function id out of range for this image");
      }
      group_.push_back(record);
    }
  }

  void finish(const vm::RunOutcome& outcome) {
    flush_group();
    emit_silent_ticks_until(outcome.retired);
    attribution_.input_finish(outcome);
  }

 private:
  std::uint32_t current_func() const noexcept {
    return func_stack_.empty() ? 0 : func_stack_.back();
  }

  void emit_silent_ticks_until(std::uint64_t retired) {
    if (next_tick_ >= retired) return;
    attribution_.input_batch_tick_span(current_func(), next_tick_,
                                       retired - next_tick_, 0);
    next_tick_ = retired;
  }

  void flush_group() {
    if (group_.empty()) return;
    emit_silent_ticks_until(group_retired_);

    // The group's instruction (if any record belongs to one — a group can
    // also be a bare program-entry kEnter): its function, and whether it
    // carried a memory operand.
    std::uint32_t tick_func = 0;
    bool has_instr = false;
    bool has_read_or_write = false;
    for (const trace::Record& record : group_) {
      if (record.kind == trace::EventKind::kEnter) continue;
      if (!has_instr) {
        has_instr = true;
        tick_func = record.func;
      }
      if (record.kind == trace::EventKind::kRead ||
          record.kind == trace::EventKind::kWrite) {
        has_read_or_write = true;
      }
    }

    bool tick_emitted = false;
    for (const trace::Record& record : group_) {
      if (record.kind == trace::EventKind::kEnter) {
        const auto func = static_cast<std::uint32_t>(record.ea);
        attribution_.input_enter(func, record.retired);
        func_stack_.push_back(func);
        continue;
      }
      if (!tick_emitted) {
        tick_emitted = true;
        attribution_.input_batch_tick_span(tick_func, group_retired_, 1,
                                           has_read_or_write ? 1 : 0);
        next_tick_ = group_retired_ + 1;
      }
      switch (record.kind) {
        case trace::EventKind::kRead:
        case trace::EventKind::kWrite:
          attribution_.input_access(record.func, record.pc, record.retired,
                                    record.ea, record.size,
                                    record.kind == trace::EventKind::kRead,
                                    (record.flags & trace::kFlagStackArea) != 0,
                                    (record.flags & trace::kFlagPrefetch) != 0);
          break;
        case trace::EventKind::kRet:
          attribution_.input_ret(record.func, record.pc, record.retired);
          if (!func_stack_.empty() && func_stack_.back() == record.func) {
            func_stack_.pop_back();
          }
          break;
        case trace::EventKind::kEnter:
          break;  // handled above
      }
    }
    group_.clear();
  }

  KernelAttribution& attribution_;
  std::uint32_t function_count_;
  std::vector<trace::Record> group_;
  std::uint64_t group_retired_ = 0;
  std::vector<std::uint32_t> func_stack_;
  std::uint64_t next_tick_ = 0;
};

}  // namespace

TraceReplaySource::TraceReplaySource(std::span<const std::uint8_t> bytes,
                                     const vm::Program& program, bool salvage)
    : bytes_(bytes), program_(program), salvage_(salvage) {}

vm::RunOutcome TraceReplaySource::run(KernelAttribution& attribution) {
  TQUAD_CHECK(!ran_, "TraceReplaySource::run is single-shot; construct a fresh one");
  ran_ = true;
  const auto function_count =
      static_cast<std::uint32_t>(program_.functions().size());
  ReplayFeeder feeder(attribution, function_count);
  vm::RunOutcome outcome;
  const trace::TraceV2View view =
      salvage_ ? trace::TraceV2View::salvage(bytes_, &salvage_report_)
               : trace::TraceV2View::open(bytes_);
  if (view.kernel_count() != function_count) {
    TQUAD_THROW("trace was recorded from a different image (kernel count mismatch)");
  }
  std::size_t fed = 0;
  for (std::size_t b = 0; b < view.block_count(); ++b) {
    if (interrupt_ != nullptr && *interrupt_ != 0) break;
    const std::vector<trace::Record> records = view.decode_block(b);
    feeder.feed(records);
    fed = b + 1;
  }
  if (fed < view.block_count()) {
    // Interrupted between blocks: the blocks fed so far are a valid
    // prefix; the last fed record's instruction counts as retired.
    outcome.status = vm::RunStatus::kInterrupted;
    outcome.retired = fed == 0 ? 0 : view.block(fed - 1).last_retired + 1;
  } else {
    outcome.retired = view.total_retired();
    // A salvaged stream with losses is an incomplete profile; say so.
    if (salvage_ && !salvage_report_.clean()) {
      outcome.status = vm::RunStatus::kTruncated;
    }
  }
  feeder.finish(outcome);
  return outcome;
}

}  // namespace tq::session
