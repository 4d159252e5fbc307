// Parallel live-analysis pipeline.
//
// In serial mode ProfileSession drives every AnalysisConsumer inline on the
// VM thread; here the VM thread only *publishes*. One publisher, registered
// with the attribution for the union of the consumers' interests, writes
// each attributed event exactly once, as a 32-byte record, into a staging
// batch. A full batch is shared read-only (reference-counted) and pushed into
// every reader's fixed-capacity SPSC ring. Each reader has its own thread and
// delivers the kinds its consumer subscribed to, in stream order, so every
// tool sees exactly the serial event sequence and its state is touched by one
// thread only: reports come out byte-identical to the serial single pass.
//
// The heaviest consumer, QUAD, additionally shards its per-address state:
// one reader carries its control events (enter, tick runs, ret, end), and
// one reader per shard applies only the accesses on that shard's 4 KiB pages
// (page % shards), splitting a page-crossing access itself, with the
// per-access counter carried by the first piece only. The shard states merge
// exactly at the drain barrier. See ShardedAccessConsumer in events.hpp for
// the routing contract.
//
// on_finish is the barrier: the publisher flushes its tail batch, closes
// every ring, joins every reader, rethrows the first reader error, merges
// QUAD's shards, and only then lets each consumer see the RunOutcome, in
// attach order. EventSources call input_finish on every path — clean halt,
// guest trap, budget truncation — so a trap mid-run still drains completely
// and yields the exact-prefix PARTIAL reports the fault-tolerance contract
// promises.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "session/events.hpp"

namespace tq::metrics {
class Registry;
}  // namespace tq::metrics

namespace tq::session {

class KernelAttribution;

/// How a ProfileSession dispatches consumer accounting.
enum class PipelineMode : std::uint8_t {
  kSerial = 0,    ///< reference implementation: consumers run on the VM thread
  kParallel = 1,  ///< consumers drain SPSC rings of shared batches, one thread per ring
};

struct PipelineOptions {
  PipelineMode mode = PipelineMode::kSerial;
  /// Page shards for a sharded consumer (QUAD); 0 = hardware_concurrency,
  /// capped at 16. Named for the `-pipeline parallel:N` spelling.
  unsigned workers = 0;
  std::size_t batch_events = 4096;  ///< events per published batch
  std::size_t ring_batches = 8;     ///< each reader ring's capacity, in batches
};

/// Post-run introspection (bench, tests, and the metrics registry): how
/// much flowed through the rings, how often and how long the publisher hit
/// backpressure, and what the drain barrier's shard fold cost. Ring counters
/// are summed over the reader rings, so one shared batch counts once per
/// reader it was pushed to.
struct PipelineStats {
  std::uint64_t batches_published = 0;  ///< batch pushes, summed over rings
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
  unsigned rings = 0;    ///< reader rings: one per reader thread
  unsigned workers = 0;  ///< reader threads
  unsigned access_shards = 0;
};

namespace detail {
class Publisher;
}  // namespace detail

/// Owns the publisher, its readers and their threads for one profiled run.
/// Lifecycle: construct, attach() the consumers (which starts the reader
/// threads), run the event source (the attribution's input_finish doubles
/// as the drain barrier), then destroy. If the run threw before the
/// barrier, destruction closes every ring and joins its thread. The pipeline
/// must outlive the run.
class ParallelPipeline {
 public:
  /// `metrics` is optional: when set, each reader thread folds its batch
  /// counters/size histogram into the registry through its own ThreadSink
  /// as it exits at the drain barrier.
  explicit ParallelPipeline(const PipelineOptions& options,
                            metrics::Registry* metrics = nullptr);
  ~ParallelPipeline();

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Start the readers of every consumer in `consumers` (attach order is
  /// the order their on_finish runs in), and register the one publisher
  /// with `attribution` in their place. Call once, before the run.
  void attach(std::span<AnalysisConsumer* const> consumers,
              KernelAttribution& attribution);

  /// Valid once the run's input_finish returned (all rings drained).
  PipelineStats stats() const;

 private:
  PipelineOptions options_;
  metrics::Registry* metrics_ = nullptr;
  unsigned access_shards_ = 1;
  std::unique_ptr<detail::Publisher> publisher_;
};

}  // namespace tq::session
