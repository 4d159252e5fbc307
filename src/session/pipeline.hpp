// Parallel live-analysis pipeline.
//
// In serial mode ProfileSession drives every AnalysisConsumer inline on the
// VM thread; here the VM thread only *publishes*: each consumer is wrapped
// in a lane that batches its attributed events and pushes the batches into a
// fixed-capacity SPSC ring, drained by a worker thread that replays them
// into the real tool. Per-consumer event order is exactly the serial order,
// and each tool's state is touched by exactly one thread, so reports come
// out byte-identical to the serial single pass.
//
// The heaviest consumer, QUAD, additionally shards its per-address state:
// access events are routed to N shard rings by 4 KiB page number (events
// that cross a page are split, with the per-access counter carried by the
// first piece only), each shard drains on its own worker, and the shard
// states merge exactly at the drain barrier. See ShardedAccessConsumer in
// events.hpp for the routing contract.
//
// on_finish is the barrier: every lane flushes its tail batch, closes its
// ring, waits until the worker has applied everything, and only then lets
// the wrapped tool see the RunOutcome. EventSources call input_finish on
// every path — clean halt, guest trap, budget truncation — so a trap
// mid-run still drains completely and yields the exact-prefix PARTIAL
// reports the fault-tolerance contract promises.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "session/events.hpp"
#include "support/spsc_ring.hpp"
#include "support/thread_pool.hpp"

namespace tq::metrics {
class Registry;
}  // namespace tq::metrics

namespace tq::session {

class KernelAttribution;

/// How a ProfileSession dispatches consumer accounting.
enum class PipelineMode : std::uint8_t {
  kSerial = 0,    ///< reference implementation: consumers run on the VM thread
  kParallel = 1,  ///< consumers drain SPSC event rings on worker threads
};

struct PipelineOptions {
  PipelineMode mode = PipelineMode::kSerial;
  unsigned workers = 0;           ///< drain threads; 0 = hardware_concurrency
  std::size_t batch_events = 4096;  ///< events per published batch
  std::size_t ring_batches = 8;     ///< ring capacity, in batches
  unsigned access_shards = 0;     ///< shards for sharded consumers; 0 = auto
};

/// Post-run introspection (bench, tests, and the metrics registry): how
/// much flowed through the rings, how often and how long the publisher hit
/// backpressure, and what the drain barrier's shard fold cost.
struct PipelineStats {
  std::uint64_t batches_published = 0;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t producer_stall_ns = 0;    ///< publisher wall time blocked on space
  std::uint64_t dropped_after_close = 0;  ///< pushes refused by abort close
  std::uint64_t ring_occupancy_high_water = 0;  ///< max batches queued, any ring
  std::uint64_t shard_fold_ns = 0;  ///< merge_shards() time at the drain barrier
  // Always 0: the transport has a fixed batch size, a fixed ring capacity
  // and no buffer reuse. Kept only because the benchmark harness still
  // reads these three fields.
  std::uint64_t batch_grows = 0;
  std::uint64_t ring_capacity_grows = 0;
  std::uint64_t freelist_hits = 0;
  unsigned rings = 0;
  unsigned workers = 0;
  unsigned access_shards = 0;
};

namespace detail {
class LaneBase;
class Drainable;
}  // namespace detail

/// Owns the lanes, the rings, and the drain workers for one profiled run.
/// Lifecycle: construct, attach() every consumer, start(), run the event
/// source (the attribution's input_finish doubles as the drain barrier),
/// then destroy (joins the workers). The pipeline must outlive the run.
class ParallelPipeline {
 public:
  /// `metrics` is optional: when set, each drain worker folds its batch
  /// counters/size histogram into the registry through a per-worker
  /// ThreadSink as it exits at the drain barrier.
  explicit ParallelPipeline(const PipelineOptions& options,
                            metrics::Registry* metrics = nullptr);
  ~ParallelPipeline();

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Wrap `target` in its lane(s) and register them with `attribution` in
  /// place of the target. Call once per consumer, before start().
  void attach(AnalysisConsumer& target, KernelAttribution& attribution);

  /// Launch the drain workers. Call after the last attach, before the run.
  void start();

  unsigned workers() const noexcept { return workers_; }
  unsigned access_shards() const noexcept { return access_shards_; }

  /// Valid once the run's input_finish returned (all rings drained).
  PipelineStats stats() const;

 private:
  PipelineOptions options_;
  metrics::Registry* metrics_ = nullptr;
  unsigned workers_ = 1;
  unsigned access_shards_ = 1;
  bool started_ = false;
  std::vector<std::unique_ptr<detail::LaneBase>> lanes_;
  std::vector<detail::Drainable*> drainables_;
  std::vector<std::unique_ptr<Doorbell>> bells_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace tq::session
