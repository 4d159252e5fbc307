#include "session/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "session/attribution.hpp"
#include "support/check.hpp"
#include "support/paged_memory.hpp"
#include "support/spsc_ring.hpp"

namespace tq::session {
namespace detail {

// ---------------------------------------------------------------------------
// Reader: one ring of shared batches and the thread that drains it.

class Reader {
 public:
  /// Start the thread: it hands every batch to `apply`, in push order,
  /// until the ring is closed and empty. If `apply` throws, the thread
  /// keeps popping (so the VM thread never blocks on a dead consumer) but
  /// applies nothing more, and join() returns the error to the VM thread.
  template <typename Apply>
  Reader(std::size_t ring_batches, Apply apply) : ring_(ring_batches) {
    thread_ = std::jthread([this, apply = std::move(apply)] {
      SharedBatch batch;
      while (ring_.pop(batch)) {
        if (!error_) {
          try {
            apply(*batch);
          } catch (...) {
            error_ = std::current_exception();
          }
        }
        batch.reset();  // the last reader of a batch frees it
      }
    });
  }

  /// Abort path (the run threw before the drain barrier): closing the ring
  /// lets the thread exit, and the jthread member then joins it.
  ~Reader() { ring_.close(); }

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void push(const SharedBatch& batch) { ring_.push(batch); }
  void close() { ring_.close(); }

  /// Join the thread (after close()); the join is the VM thread's
  /// happens-before edge on everything it applied, and on the error.
  std::exception_ptr join() {
    thread_.join();
    return error_;
  }

  void add_stats(PipelineStats& stats) const {
    const auto rs = ring_.stats();
    stats.batches_published += rs.pushes;
    stats.backpressure_waits += rs.push_waits;
    stats.producer_stall_ns += rs.stall_ns;
    stats.ring_occupancy_high_water =
        std::max(stats.ring_occupancy_high_water, rs.occupancy_high_water);
    ++stats.rings;
  }

 private:
  SpscRing<SharedBatch> ring_;
  std::exception_ptr error_;  ///< first apply() failure; reader thread only
  std::jthread thread_;       ///< last: starts once the ring exists
};

/// Apply the accesses on shard `shard`'s pages (page % shards == shard). A
/// page-crossing access is split into per-page pieces, and the per-access
/// counter travels with the first piece only, whichever shard owns it.
void apply_shard(ShardedAccessConsumer& sharded, unsigned shard, unsigned shards,
                 const Batch& batch) {
  constexpr unsigned kPageBits = PagedMemory::kPageBits;
  const auto mine = [&](std::uint64_t ea) { return (ea >> kPageBits) % shards == shard; };
  const Record* const end = batch.records.get() + batch.size;
  for (const Record* r = batch.records.get(); r != end; ++r) {
    if ((r->tag & kKindMask) != kAccess) continue;
    const AccessEvent event = access_of(r);
    const std::uint64_t last = event.ea + (event.size > 0 ? event.size - 1 : 0);
    if ((event.ea >> kPageBits) == (last >> kPageBits)) {
      if (mine(event.ea)) sharded.apply_access_shard(shard, event, true);
      continue;
    }
    AccessEvent piece = event;
    std::uint64_t cursor = event.ea;
    std::uint64_t remaining = event.size;
    bool first = true;
    while (remaining > 0) {
      const std::uint64_t page_end = ((cursor >> kPageBits) + 1) << kPageBits;
      const std::uint64_t in_page = std::min(remaining, page_end - cursor);
      if (mine(cursor)) {
        piece.ea = cursor;
        piece.size = static_cast<std::uint32_t>(in_page);
        sharded.apply_access_shard(shard, piece, first);
      }
      first = false;
      cursor += in_page;
      remaining -= in_page;
    }
  }
}

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

ParallelPipeline::ParallelPipeline(const PipelineOptions& options)
    : options_(options), access_shards_(shard_count(options)) {
  TQUAD_CHECK(options.mode == PipelineMode::kParallel,
              "ParallelPipeline constructed in serial mode");
}

// Destroying the readers closes each ring and joins its thread: all the
// abort path needs.
ParallelPipeline::~ParallelPipeline() = default;

void ParallelPipeline::attach(std::span<AnalysisConsumer* const> consumers,
                              KernelAttribution& attribution) {
  TQUAD_CHECK(targets_.empty(), "ParallelPipeline::attach runs once");
  for (AnalysisConsumer* consumer : consumers) add(*consumer);
  attribution.publish_to(*this);
}

template <typename Apply>
void ParallelPipeline::add_reader(Apply apply) {
  readers_.push_back(std::make_unique<detail::Reader>(
      std::max<std::size_t>(options_.ring_batches, 1), std::move(apply)));
}

/// Give `target` its reader(s). With more than one shard and a shardable
/// access consumer, its accesses go to one reader per shard and its other
/// kinds to a control reader.
void ParallelPipeline::add(AnalysisConsumer& target) {
  const unsigned interests = target.event_interests();
  interests_ |= interests;
  targets_.push_back(&target);
  ShardedAccessConsumer* sharded = target.sharded_access();
  const unsigned shards = access_shards_;
  if (sharded == nullptr || shards <= 1 ||
      !(interests & AnalysisConsumer::kAccessInterest)) {
    add_reader(
        [&target, interests](const Batch& batch) { target.on_batch(interests, batch); });
    return;
  }
  const unsigned control = interests & ~AnalysisConsumer::kAccessInterest;
  add_reader([&target, control](const Batch& batch) { target.on_batch(control, batch); });
  sharded->prepare_shards(shards);
  sharded_.push_back(sharded);
  for (unsigned s = 0; s < shards; ++s) {
    add_reader([sharded, s, shards](const Batch& batch) {
      detail::apply_shard(*sharded, s, shards, batch);
    });
  }
}

void ParallelPipeline::publish(SharedBatch batch) {
  for (auto& reader : readers_) reader->push(batch);
}

void ParallelPipeline::drain(const vm::RunOutcome& outcome) {
  for (auto& reader : readers_) reader->close();
  std::exception_ptr error;
  for (auto& reader : readers_) {
    std::exception_ptr reader_error = reader->join();
    if (!error) error = std::move(reader_error);
  }
  if (error) std::rethrow_exception(error);
  const auto fold_start = std::chrono::steady_clock::now();
  for (ShardedAccessConsumer* sharded : sharded_) sharded->merge_shards();
  fold_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - fold_start)
          .count());
  for (AnalysisConsumer* target : targets_) target->on_finish(outcome);
}

PipelineStats ParallelPipeline::stats() const {
  PipelineStats stats;
  for (const auto& reader : readers_) reader->add_stats(stats);
  stats.shard_fold_ns = fold_ns_;
  stats.access_shards = access_shards_;
  return stats;
}

}  // namespace tq::session
