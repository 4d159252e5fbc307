#include "session/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "session/attribution.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/paged_memory.hpp"
#include "support/spsc_ring.hpp"

namespace tq::session {
namespace detail {

// ---------------------------------------------------------------------------
// Events on the wire: a tagged union of the attributed event structs (all
// trivially copyable PODs). kEnd carries the total retired count of
// on_session_end, so the marker rides the ring in stream position and the
// wrapped tool's end accounting runs on its drain thread like every other
// event.

struct PipelineEvent {
  enum class Kind : std::uint8_t { kEnter, kTickRun, kAccess, kRet, kEnd };

  Kind kind = Kind::kEnd;
  union Payload {
    EnterEvent enter;
    TickRunEvent run;
    AccessEvent access;
    RetEvent ret;
    std::uint64_t total_retired;
    Payload() : total_retired(0) {}
  } u;
};

using Batch = std::vector<PipelineEvent>;

// ---------------------------------------------------------------------------
// BatchChannel: the producer->drain-thread transport every lane is built on.
// It owns the staging batch, the data ring and the ring's drain thread. The
// VM thread cuts batches of exactly `batch_events` and pushes them into a
// ring of `ring_batches` slots, blocking while it is full; the drain thread
// pops each batch, applies it, and frees it. Only the VM thread touches the
// staging batch; cross-thread traffic goes through the ring, which locks
// internally.

template <typename Rec>
class BatchChannel {
 public:
  using Buffer = std::vector<Rec>;

  /// Start the drain thread: it hands every batch to `apply`, in push
  /// order, until the ring is closed and empty. With a registry it counts
  /// the batches in its own ThreadSink, which folds as the thread exits.
  /// If `apply` throws, the thread keeps popping (so the publisher never
  /// blocks on a dead consumer) but applies nothing more, and finish()
  /// rethrows the error on the publisher thread.
  template <typename Apply>
  BatchChannel(const PipelineOptions& options, metrics::Registry* registry,
               Apply apply)
      : cap_(options.batch_events > 0 ? options.batch_events : 1),
        ring_(options.ring_batches > 0 ? options.ring_batches : 1) {
    batch_.reserve(cap_);
    drain_ = std::jthread([this, registry, apply = std::move(apply)] {
      std::optional<metrics::ThreadSink> sink;
      metrics::ThreadSink::Counter* batches = nullptr;
      metrics::Histogram* batch_events = nullptr;
      if (registry != nullptr) {
        sink.emplace(*registry);
        batches = &sink->counter("pipeline.worker.batches");
        batch_events = &sink->histogram("pipeline.worker.batch_events");
      }
      Buffer batch;
      while (ring_.pop(batch)) {
        if (batches != nullptr) {
          batches->add(1);
          batch_events->observe(batch.size());
        }
        if (error_) continue;
        try {
          apply(batch);
        } catch (...) {
          error_ = std::current_exception();
        }
      }
    });
  }

  /// Abort path (the run threw before the drain barrier): closing the ring
  /// lets the drain thread exit, and the jthread member then joins it.
  ~BatchChannel() { ring_.close(); }

  BatchChannel(const BatchChannel&) = delete;
  BatchChannel& operator=(const BatchChannel&) = delete;

  // -- producer side (VM thread) --

  /// Reserve the next staging slot, publishing a full batch first.
  Rec& append() {
    if (batch_.size() >= cap_) flush();
    batch_.emplace_back();
    return batch_.back();
  }

  /// Publish the staging batch (no-op when empty).
  void flush() {
    if (batch_.empty()) return;
    Buffer staging;
    staging.swap(batch_);
    batch_.reserve(cap_);
    ring_.push(std::move(staging));
  }

  /// Drain barrier: publish the tail batch, close the ring, and join the
  /// drain thread. The join is the publisher's happens-before edge on
  /// everything the thread applied, and on error_.
  void finish() {
    flush();
    ring_.close();
    drain_.join();
    if (error_) std::rethrow_exception(error_);
  }

  // -- post-run introspection --

  void add_stats(PipelineStats& stats) const {
    const auto rs = ring_.stats();
    stats.batches_published += rs.pushes;
    stats.backpressure_waits += rs.push_waits;
    stats.producer_stall_ns += rs.stall_ns;
    stats.dropped_after_close += rs.dropped_after_close;
    if (rs.occupancy_high_water > stats.ring_occupancy_high_water) {
      stats.ring_occupancy_high_water = rs.occupancy_high_water;
    }
    ++stats.rings;
  }

 private:
  const std::size_t cap_;
  Buffer batch_;
  SpscRing<Buffer> ring_;
  std::exception_ptr error_;  ///< first apply() failure; drain thread only
  std::jthread drain_;        ///< last: starts once the ring exists
};

/// Publisher-facing wrapper registered with the attribution in place of the
/// real consumer. Also hands the pipeline its stats.
class LaneBase : public AnalysisConsumer {
 public:
  virtual void add_stats(PipelineStats& stats) const = 0;
};

// ---------------------------------------------------------------------------
// EventLane: the general consumer lane. Forwards every subscribed event kind
// through one channel; on_finish runs the channel's drain barrier, then lets
// the target see the outcome on the publisher thread.

class EventLane final : public LaneBase {
 public:
  EventLane(AnalysisConsumer& target, unsigned interests,
            const PipelineOptions& options, metrics::Registry* registry)
      : target_(target),
        interests_(interests),
        channel_(options, registry, [this](const Batch& batch) { apply(batch); }) {}

  // -- publisher side (VM thread) --
  unsigned event_interests() const override { return interests_; }

  void on_kernel_enter(const EnterEvent& event) override {
    PipelineEvent& slot = append(PipelineEvent::Kind::kEnter);
    slot.u.enter = event;
  }
  void on_tick_run(const TickRunEvent& run) override {
    PipelineEvent& slot = append(PipelineEvent::Kind::kTickRun);
    slot.u.run = run;
  }
  void on_access(const AccessEvent& event) override {
    PipelineEvent& slot = append(PipelineEvent::Kind::kAccess);
    slot.u.access = event;
  }
  void on_kernel_ret(const RetEvent& event) override {
    PipelineEvent& slot = append(PipelineEvent::Kind::kRet);
    slot.u.ret = event;
  }
  void on_session_end(std::uint64_t total_retired) override {
    PipelineEvent& slot = append(PipelineEvent::Kind::kEnd);
    slot.u.total_retired = total_retired;
  }

  void on_finish(const vm::RunOutcome& outcome) override {
    channel_.finish();
    // The drain barrier passed: the drain thread applied the whole stream,
    // so the target finalizes with complete (possibly prefix-exact partial)
    // state.
    target_.on_finish(outcome);
  }

  void add_stats(PipelineStats& stats) const override {
    channel_.add_stats(stats);
  }

 private:
  PipelineEvent& append(PipelineEvent::Kind kind) {
    PipelineEvent& slot = channel_.append();
    slot.kind = kind;
    return slot;
  }

  // Drain thread.
  void apply(const Batch& batch) {
    for (const PipelineEvent& event : batch) {
      switch (event.kind) {
        case PipelineEvent::Kind::kEnter:
          target_.on_kernel_enter(event.u.enter);
          break;
        case PipelineEvent::Kind::kTickRun:
          target_.on_tick_run(event.u.run);
          break;
        case PipelineEvent::Kind::kAccess:
          target_.on_access(event.u.access);
          break;
        case PipelineEvent::Kind::kRet:
          target_.on_kernel_ret(event.u.ret);
          break;
        case PipelineEvent::Kind::kEnd:
          target_.on_session_end(event.u.total_retired);
          break;
      }
    }
  }

  AnalysisConsumer& target_;
  const unsigned interests_;
  BatchChannel<PipelineEvent> channel_;
};

// ---------------------------------------------------------------------------
// Sharded access routing: one channel per address shard, each drained by its
// own thread. The router lane carries only kAccessInterest; the consumer's
// remaining interests ride a separate EventLane (the control lane), so
// QUAD's tick counters and its shadow updates progress concurrently.

struct ShardRecord {
  AccessEvent event;
  bool count_access = true;
};

class ShardedAccessLane final : public LaneBase {
 public:
  static constexpr std::uint64_t kPageBits = PagedMemory::kPageBits;

  ShardedAccessLane(ShardedAccessConsumer& sharded, unsigned shards,
                    const PipelineOptions& options, metrics::Registry* registry)
      : sharded_(sharded) {
    TQUAD_CHECK(shards >= 1, "sharded lane needs at least one shard");
    sharded_.prepare_shards(shards);
    channels_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
      channels_.push_back(std::make_unique<BatchChannel<ShardRecord>>(
          options, registry, [&sharded, s](const std::vector<ShardRecord>& batch) {
            for (const ShardRecord& record : batch) {
              sharded.apply_access_shard(s, record.event, record.count_access);
            }
          }));
    }
  }

  // -- publisher side --
  unsigned event_interests() const override { return kAccessInterest; }

  void on_access(const AccessEvent& event) override {
    const std::uint64_t last =
        event.ea + (event.size > 0 ? event.size - 1 : 0);
    if ((event.ea >> kPageBits) == (last >> kPageBits)) {
      append(shard_of(event.ea), event, true);
      return;
    }
    // Page-crossing access: split into per-page pieces so every shard only
    // ever touches its own pages. The per-access counter travels with the
    // first piece only.
    AccessEvent piece = event;
    std::uint64_t cursor = event.ea;
    std::uint64_t remaining = event.size;
    bool first = true;
    while (remaining > 0) {
      const std::uint64_t page_end = ((cursor >> kPageBits) + 1) << kPageBits;
      const std::uint64_t in_page = std::min(remaining, page_end - cursor);
      piece.ea = cursor;
      piece.size = static_cast<std::uint32_t>(in_page);
      append(shard_of(cursor), piece, first);
      first = false;
      cursor += in_page;
      remaining -= in_page;
    }
  }

  void on_finish(const vm::RunOutcome&) override {
    // The router is registered before the control lane, so this runs first:
    // drain every shard and fold the replicas back together before the
    // control lane forwards on_finish to the tool itself.
    for (auto& channel : channels_) channel->finish();
    const auto fold_start = std::chrono::steady_clock::now();
    sharded_.merge_shards();
    fold_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - fold_start)
            .count());
  }

  void add_stats(PipelineStats& stats) const override {
    for (const auto& channel : channels_) channel->add_stats(stats);
    stats.shard_fold_ns += fold_ns_;
  }

 private:
  unsigned shard_of(std::uint64_t ea) const noexcept {
    return static_cast<unsigned>((ea >> kPageBits) % channels_.size());
  }

  void append(unsigned shard, const AccessEvent& event, bool count_access) {
    ShardRecord& slot = channels_[shard]->append();
    slot.event = event;
    slot.count_access = count_access;
  }

  ShardedAccessConsumer& sharded_;
  std::vector<std::unique_ptr<BatchChannel<ShardRecord>>> channels_;
  std::uint64_t fold_ns_ = 0;  ///< written at the drain barrier, read after
};

}  // namespace detail

// ---------------------------------------------------------------------------
// ParallelPipeline

namespace {

unsigned shard_count(const PipelineOptions& options) {
  unsigned shards = options.workers;
  if (shards == 0) shards = std::max(1u, std::thread::hardware_concurrency());
  return std::min(shards, 16u);
}

}  // namespace

ParallelPipeline::ParallelPipeline(const PipelineOptions& options,
                                   metrics::Registry* metrics)
    : options_(options), metrics_(metrics), access_shards_(shard_count(options)) {
  TQUAD_CHECK(options.mode == PipelineMode::kParallel,
              "ParallelPipeline constructed in serial mode");
}

// Destroying the lanes closes every ring and joins its drain thread (each
// BatchChannel does its own), which is all the abort path needs.
ParallelPipeline::~ParallelPipeline() = default;

void ParallelPipeline::attach(AnalysisConsumer& target,
                              KernelAttribution& attribution) {
  const unsigned interests = target.event_interests();
  ShardedAccessConsumer* sharded = target.sharded_access();
  if (sharded != nullptr && access_shards_ > 1 &&
      (interests & AnalysisConsumer::kAccessInterest)) {
    // Router first, control lane second: at input_finish the router then
    // merges the shard replicas *before* the control lane delivers
    // on_finish to the tool (consumers finish in registration order).
    auto router = std::make_unique<detail::ShardedAccessLane>(
        *sharded, access_shards_, options_, metrics_);
    attribution.add_consumer(*router);
    lanes_.push_back(std::move(router));
    auto control = std::make_unique<detail::EventLane>(
        target, interests & ~AnalysisConsumer::kAccessInterest, options_,
        metrics_);
    attribution.add_consumer(*control);
    lanes_.push_back(std::move(control));
  } else {
    auto lane = std::make_unique<detail::EventLane>(target, interests, options_,
                                                    metrics_);
    attribution.add_consumer(*lane);
    lanes_.push_back(std::move(lane));
  }
}

PipelineStats ParallelPipeline::stats() const {
  PipelineStats stats;
  for (const auto& lane : lanes_) lane->add_stats(stats);
  stats.workers = stats.rings;
  stats.access_shards = access_shards_;
  return stats;
}

}  // namespace tq::session
