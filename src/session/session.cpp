#include "session/session.hpp"

#include <cinttypes>
#include <cstdio>

#include "support/check.hpp"
#include "support/metrics.hpp"

namespace tq::session {

// ---------------------------------------------------------------------------
// HeartbeatPrinter

void HeartbeatPrinter::arm(std::uint64_t every) {
  every_ = every;
  next_ = every;
  start_ = std::chrono::steady_clock::now();
  last_retired_ = 0;
  last_pulse_ = start_;
}

double HeartbeatPrinter::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void HeartbeatPrinter::pulse_to(std::uint64_t retired) {
  while (every_ != 0 && retired >= next_) {
    const auto now = std::chrono::steady_clock::now();
    const double since_last =
        std::chrono::duration<double>(now - last_pulse_).count();
    // Throughput over the window since the previous pulse (whole-run average
    // when this is the first). Guard the division: two pulses can land in
    // the same clock tick on a fast run.
    const double rate =
        since_last > 0.0
            ? static_cast<double>(next_ - last_retired_) / 1e6 / since_last
            : 0.0;
    std::fprintf(stderr,
                 "heartbeat: retired=%.1fM elapsed=%.2fs rate=%.1fMinstr/s\n",
                 static_cast<double>(next_) / 1e6,
                 std::chrono::duration<double>(now - start_).count(), rate);
    last_retired_ = next_;
    last_pulse_ = now;
    next_ += every_;
  }
}

void HeartbeatPrinter::on_finish(const vm::RunOutcome& outcome) {
  if (every_ == 0) return;
  const char* status = "ok";
  switch (outcome.status) {
    case vm::RunStatus::kHalted:
      break;
    case vm::RunStatus::kTrapped:
      status = "PARTIAL";
      break;
    case vm::RunStatus::kTruncated:
      status = "TRUNCATED";
      break;
    case vm::RunStatus::kInterrupted:
      status = "INTERRUPTED";
      break;
  }
  std::fprintf(stderr, "heartbeat: done retired=%.1fM elapsed=%.2fs status=%s",
               static_cast<double>(outcome.retired) / 1e6, elapsed_seconds(),
               status);
  if (outcome.status == vm::RunStatus::kTrapped) {
    std::fprintf(stderr, " (%s)", outcome.trap_kind.c_str());
  }
  std::fputc('\n', stderr);
}

// ---------------------------------------------------------------------------
// ProfileSession

ProfileSession::ProfileSession(const vm::Program& program, SessionConfig config)
    : config_(config),
      attribution_(program, config.library_policy, config.pipeline.batch_events) {}

void ProfileSession::add_consumer(AnalysisConsumer& consumer) {
  TQUAD_CHECK(!ran_, "add_consumer must precede ProfileSession::run");
  // Registration is deferred to run(): in parallel mode the consumers
  // attach to the pipeline's readers, not to the attribution.
  consumers_.push_back(&consumer);
}

vm::RunOutcome ProfileSession::run(EventSource& source) {
  TQUAD_CHECK(!ran_, "ProfileSession::run is single-shot; construct a fresh one");
  TQUAD_CHECK(&source.program() == &attribution_.program(),
              "event source built from a different program");
  ran_ = true;
  if (config_.heartbeat_interval > 0) {
    // Attached to the attribution in both modes, so it reads each batch on
    // the VM thread as it flushes: the pulse must reflect live progress, not
    // a reader's drain position.
    heartbeat_.arm(config_.heartbeat_interval);
    attribution_.add_consumer(heartbeat_);
  }
  if (config_.pipeline.mode == PipelineMode::kParallel && !consumers_.empty()) {
    ParallelPipeline pipeline(config_.pipeline);
    pipeline.attach(consumers_, attribution_);
    // input_finish (invoked by the source on every path, including traps)
    // runs the pipeline's drain barrier, so by the time run() returns every
    // tool holds its complete, serially-ordered accounting.
    outcome_ = source.run(attribution_);
    pipeline_stats_ = pipeline.stats();
    // The drain barrier already joined every reader thread. If the run
    // threw instead, the pipeline's destructor closes the rings and joins
    // the threads.
  } else {
    for (AnalysisConsumer* consumer : consumers_) {
      attribution_.add_consumer(*consumer);
    }
    outcome_ = source.run(attribution_);
  }
  if (config_.metrics != nullptr) publish_metrics(source);
  return outcome_;
}

void ProfileSession::publish_metrics(const EventSource& source) {
  metrics::Registry& registry = *config_.metrics;
  source.publish_metrics(registry);
  const EventCounts& counts = attribution_.event_counts();
  registry.add("session.events.enter", counts.enters);
  registry.add("session.events.tick", counts.ticks);
  registry.add("session.events.tick_run", counts.tick_runs);
  registry.add("session.events.access", counts.accesses);
  registry.add("session.events.ret", counts.rets);
  registry.set_gauge("session.retired", outcome_.retired);
  registry.set_gauge("session.consumers",
                     static_cast<std::uint64_t>(consumers_.size()));
  if (config_.pipeline.mode != PipelineMode::kParallel || consumers_.empty()) {
    return;
  }
  const PipelineStats& stats = pipeline_stats_;
  registry.add("pipeline.batches_published", stats.batches_published);
  registry.add("pipeline.backpressure_waits", stats.backpressure_waits);
  registry.add("pipeline.producer_stall_ns", stats.producer_stall_ns);
  registry.add("pipeline.shard_fold_ns", stats.shard_fold_ns);
  registry.max_gauge("pipeline.ring.occupancy_high_water",
                     stats.ring_occupancy_high_water);
  registry.set_gauge("pipeline.rings", stats.rings);
  registry.set_gauge("pipeline.access_shards", stats.access_shards);
}

vm::RunOutcome ProfileSession::run_live(vm::HostEnv& host) {
  LiveEngineSource source(attribution_.program(), host,
                          config_.instruction_budget, config_.engine);
  source.set_fault_plan(config_.fault_plan);
  source.set_interrupt_flag(config_.interrupt);
  return run(source);
}

vm::RunOutcome ProfileSession::replay(std::span<const std::uint8_t> trace_bytes,
                                      bool salvage) {
  TraceReplaySource source(trace_bytes, attribution_.program(), salvage);
  source.set_interrupt_flag(config_.interrupt);
  const vm::RunOutcome outcome = run(source);
  salvage_report_ = source.salvage_report();
  return outcome;
}

}  // namespace tq::session
