#include "session/event_source.hpp"

#include <type_traits>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "vm/compiled.hpp"
#include "vm/compiled_loop.hpp"

namespace tq::session {

// ---- LiveEngineSource -----------------------------------------------------------

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
  // The compiled engine's dispatch loop is instantiated here for the
  // attribution itself, so every handler calls its input methods directly,
  // and on_access and on_tick_span inline down to emit()'s record store.
  // That holds only while the class is final: otherwise the compiler must
  // keep each call virtual, and this instantiation would only duplicate
  // the EventSink one.
  static_assert(std::is_final_v<KernelAttribution>,
                "the compiled engine's loop relies on KernelAttribution being final");
  const vm::RunOutcome outcome = compiled_ != nullptr
                                     ? compiled_->run_with(attribution)
                                     : engine_->run(attribution);
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
/// the retired counters. The feeder dispatches each record as it arrives,
/// emitting the missing "silent" ticks for the gaps using a plain function
/// stack maintained from enter/ret records. A record with a new retired
/// value starts a new instruction (which may continue into the next block).
/// The instruction's one-tick span (the span the interpreter emits) goes out
/// just before its first non-enter record, flagged as a memory instruction
/// when that record is a read or a write: a live run records an
/// instruction's accesses before its return, and a routine entry after its
/// call's accesses (vm/event_sink.hpp, session/events.hpp). A retired value
/// with only an entry (the program-entry kEnter) has no tick of its own.
class ReplayFeeder {
 public:
  ReplayFeeder(KernelAttribution& attribution, std::uint32_t function_count)
      : attribution_(attribution), function_count_(function_count) {
    func_stack_.reserve(64);
  }

  void feed(std::span<const trace::Record> records) {
    for (const trace::Record& record : records) {
      const bool is_enter = record.kind == trace::EventKind::kEnter;
      if (record.func >= function_count_ ||
          (is_enter && record.ea >= function_count_)) {
        TQUAD_THROW("TQTR record function id out of range for this image");
      }
      if (record.retired != retired_) {
        retired_ = record.retired;
        ticked_ = false;
        emit_silent_ticks_until(retired_);
      }
      if (is_enter) {
        const auto func = static_cast<std::uint32_t>(record.ea);
        attribution_.on_enter(func, record.retired);
        func_stack_.push_back(func);
        continue;
      }
      const bool is_read = record.kind == trace::EventKind::kRead;
      const bool is_access = is_read || record.kind == trace::EventKind::kWrite;
      if (!ticked_) {
        ticked_ = true;
        attribution_.on_tick_span(record.func, retired_, 1, is_access ? 1 : 0);
        next_tick_ = retired_ + 1;
      }
      if (is_access) {
        attribution_.on_access(record.func, record.pc, record.retired, record.ea,
                               record.size, is_read,
                               (record.flags & trace::kFlagStackArea) != 0,
                               (record.flags & trace::kFlagPrefetch) != 0);
      } else {
        attribution_.on_ret(record.func, record.pc, record.retired);
        if (!func_stack_.empty() && func_stack_.back() == record.func) {
          func_stack_.pop_back();
        }
      }
    }
  }

  void finish(const vm::RunOutcome& outcome) {
    emit_silent_ticks_until(outcome.retired);
    attribution_.input_finish(outcome);
  }

 private:
  std::uint32_t current_func() const noexcept {
    return func_stack_.empty() ? 0 : func_stack_.back();
  }

  void emit_silent_ticks_until(std::uint64_t retired) {
    if (next_tick_ >= retired) return;
    attribution_.on_tick_span(current_func(), next_tick_, retired - next_tick_, 0);
    next_tick_ = retired;
  }

  KernelAttribution& attribution_;
  std::uint32_t function_count_;
  std::vector<std::uint32_t> func_stack_;
  std::uint64_t retired_ = 0;  ///< the current instruction's retired value
  bool ticked_ = false;        ///< its one-tick span went out
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
  std::vector<trace::Record> records;  // one buffer, reused for every block
  for (std::size_t b = 0; b < view.block_count(); ++b) {
    if (interrupt_ != nullptr && *interrupt_ != 0) break;
    view.decode_block(b, records);
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
