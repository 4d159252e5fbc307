// Parallel live-analysis pipeline.
//
// KernelAttribution encodes each attributed event once, as a 32-byte record,
// into a batch (events.hpp). In serial mode it delivers every full batch to
// the consumers itself, on the VM thread. In parallel mode it hands each
// full batch to this pipeline instead: the batch is shared read-only
// (reference-counted) and pushed into every reader's fixed-capacity SPSC
// ring. Each reader has its own thread and delivers the kinds its consumer
// subscribed to, in stream order, so every tool sees exactly the serial
// event sequence and its state is touched by one thread only: reports come
// out byte-identical to the serial single pass.
//
// The heaviest consumer, QUAD, additionally shards its per-address state:
// one reader carries its control events (enter, tick runs, ret, end), and
// one reader per shard applies only the accesses on that shard's 4 KiB pages
// (page % shards), splitting a page-crossing access itself, with the
// per-access counter carried by the first piece only. The shard states merge
// exactly at the drain barrier. See ShardedAccessConsumer in events.hpp for
// the routing contract.
//
// The attribution's input_finish runs the drain barrier: it publishes the
// tail batch, then drain() closes every ring, joins every reader, rethrows
// the first reader error, merges QUAD's shards, and only then lets each
// consumer see the RunOutcome, in attach order. EventSources call
// input_finish on every path — clean halt, guest trap, budget truncation,
// interrupt — so a trap mid-run still drains completely and yields the
// exact-prefix PARTIAL reports the fault-tolerance contract promises.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "session/events.hpp"

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
  std::size_t batch_events = 4096;  ///< events per batch, in either mode
  std::size_t ring_batches = 8;     ///< each reader ring's capacity, in batches
};

/// Post-run introspection (bench, tests, and the metrics registry): how
/// much flowed through the rings, how often and how long the VM thread hit
/// backpressure, and what the drain barrier's shard fold cost. Ring counters
/// are summed over the reader rings, so one shared batch counts once per
/// reader it was pushed to.
struct PipelineStats {
  std::uint64_t batches_published = 0;  ///< batch pushes, summed over rings
  std::uint64_t backpressure_waits = 0;
  std::uint64_t producer_stall_ns = 0;  ///< VM thread wall time blocked on space
  std::uint64_t ring_occupancy_high_water = 0;  ///< max batches queued, any ring
  std::uint64_t shard_fold_ns = 0;  ///< merge_shards() time at the drain barrier
  // Always 0: the transport has a fixed batch size, a fixed ring capacity
  // and no buffer reuse. Kept only because the benchmark harness still
  // reads these three fields.
  std::uint64_t batch_grows = 0;
  std::uint64_t ring_capacity_grows = 0;
  std::uint64_t freelist_hits = 0;
  unsigned rings = 0;  ///< reader rings: one per reader thread
  unsigned access_shards = 0;
};

namespace detail {
class Reader;
}  // namespace detail

/// Owns the readers and their threads for one profiled run. Lifecycle:
/// construct, attach() the consumers (which starts the reader threads), run
/// the event source (the attribution's input_finish runs drain()), then
/// destroy. If the run threw before the barrier, destruction closes every
/// ring and joins its thread. The pipeline must outlive the run.
class ParallelPipeline {
 public:
  explicit ParallelPipeline(const PipelineOptions& options);
  ~ParallelPipeline();

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Start the readers of every consumer in `consumers` (attach order is
  /// the order their on_finish runs in), and have `attribution` publish its
  /// batches here. Call once, before the run.
  void attach(std::span<AnalysisConsumer* const> consumers,
              KernelAttribution& attribution);

  /// The union of the attached consumers' event_interests().
  unsigned interests() const noexcept { return interests_; }

  /// Push a full batch into every reader's ring (VM thread).
  void publish(SharedBatch batch);

  /// The drain barrier, after the tail batch was published: let every
  /// reader finish, fold QUAD's shards, then finish the consumers in attach
  /// order.
  void drain(const vm::RunOutcome& outcome);

  /// Valid once the run's input_finish returned (all rings drained).
  PipelineStats stats() const;

 private:
  void add(AnalysisConsumer& target);
  template <typename Apply>
  void add_reader(Apply apply);

  const PipelineOptions options_;
  const unsigned access_shards_;
  unsigned interests_ = 0;
  std::vector<AnalysisConsumer*> targets_;        ///< attach order
  std::vector<ShardedAccessConsumer*> sharded_;
  std::vector<std::unique_ptr<detail::Reader>> readers_;  ///< ring order
  std::uint64_t fold_ns_ = 0;  ///< written at the drain barrier, read after
};

}  // namespace tq::session
