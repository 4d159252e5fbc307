// Parallel live-analysis pipeline.
//
// In serial mode ProfileSession drives every AnalysisConsumer inline on the
// VM thread; here the VM thread only *publishes*: each consumer is wrapped
// in a lane that batches its attributed events and pushes the batches into a
// fixed-capacity SPSC ring. Every ring has its own drain thread, which
// replays the batches into the real tool. Per-consumer event order is
// exactly the serial order, and each tool's state is touched by exactly one
// thread, so reports come out byte-identical to the serial single pass.
//
// The heaviest consumer, QUAD, additionally shards its per-address state:
// access events are routed to N shard rings by 4 KiB page number (events
// that cross a page are split, with the per-access counter carried by the
// first piece only), each shard ring drains on its own thread, and the shard
// states merge exactly at the drain barrier. See ShardedAccessConsumer in
// events.hpp for the routing contract.
//
// on_finish is the barrier: every lane flushes its tail batch, closes its
// ring, joins its drain thread, and only then lets the wrapped tool see the
// RunOutcome. EventSources call input_finish on every path — clean halt,
// guest trap, budget truncation — so a trap mid-run still drains completely
// and yields the exact-prefix PARTIAL reports the fault-tolerance contract
// promises.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "session/events.hpp"

namespace tq::metrics {
class Registry;
}  // namespace tq::metrics

namespace tq::session {

class KernelAttribution;

/// How a ProfileSession dispatches consumer accounting.
enum class PipelineMode : std::uint8_t {
  kSerial = 0,    ///< reference implementation: consumers run on the VM thread
  kParallel = 1,  ///< consumers drain SPSC event rings, one thread per ring
};

struct PipelineOptions {
  PipelineMode mode = PipelineMode::kSerial;
  /// Page shards for a sharded consumer (QUAD); 0 = hardware_concurrency,
  /// capped at 16. Named for the `-pipeline parallel:N` spelling.
  unsigned workers = 0;
  std::size_t batch_events = 4096;  ///< events per published batch
  std::size_t ring_batches = 8;     ///< ring capacity, in batches
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
  unsigned workers = 0;  ///< drain threads: one per ring
  unsigned access_shards = 0;
};

namespace detail {
class LaneBase;
}  // namespace detail

/// Owns the lanes, their rings, and one drain thread per ring for one
/// profiled run. Lifecycle: construct, attach() every consumer (which starts
/// its drain threads), run the event source (the attribution's input_finish
/// doubles as the drain barrier), then destroy. If the run threw before the
/// barrier, destruction closes every ring and joins its thread. The pipeline
/// must outlive the run.
class ParallelPipeline {
 public:
  /// `metrics` is optional: when set, each drain thread folds its batch
  /// counters/size histogram into the registry through its own ThreadSink
  /// as it exits at the drain barrier.
  explicit ParallelPipeline(const PipelineOptions& options,
                            metrics::Registry* metrics = nullptr);
  ~ParallelPipeline();

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Wrap `target` in its lane(s), start their drain threads, and register
  /// them with `attribution` in place of the target. Call once per
  /// consumer, before the run.
  void attach(AnalysisConsumer& target, KernelAttribution& attribution);

  /// Valid once the run's input_finish returned (all rings drained).
  PipelineStats stats() const;

 private:
  PipelineOptions options_;
  metrics::Registry* metrics_ = nullptr;
  unsigned access_shards_ = 1;
  std::vector<std::unique_ptr<detail::LaneBase>> lanes_;
};

}  // namespace tq::session
