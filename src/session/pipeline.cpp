#include "session/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "session/attribution.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/paged_memory.hpp"
#include "support/spsc_ring.hpp"

namespace tq::session {
namespace detail {

// ---------------------------------------------------------------------------
// Events on the wire. The publisher writes each attributed event once, as one
// 32-byte record; `tag` holds the kind, the event's flags, and an access's
// size. A field too wide for its slot (a tick run's mem_count above 32 bits,
// an access size above 24 bits) sets kWide and rides in the `a` of one extra
// record, which still counts as part of the one event.

struct Record {
  std::uint64_t a;       ///< retired; a tick run's first_retired; end's total
  std::uint64_t b;       ///< an access's ea; a tick run's count
  std::uint32_t func;
  std::uint32_t c;       ///< pc (access, ret); caller (enter); mem_count (tick run)
  std::uint32_t kernel;
  std::uint32_t tag;
};
static_assert(sizeof(Record) == 32);

enum Kind : std::uint32_t { kEnter, kTickRun, kAccess, kRet, kEnd };
constexpr std::uint32_t kKindMask = 0x7;
constexpr std::uint32_t kTracked = 1u << 3;
constexpr std::uint32_t kRead = 1u << 4;
constexpr std::uint32_t kStack = 1u << 5;
constexpr std::uint32_t kPrefetch = 1u << 6;
constexpr std::uint32_t kWide = 1u << 7;
constexpr unsigned kSizeShift = 8;
constexpr std::uint32_t kMaxInlineSize = (1u << (32 - kSizeShift)) - 1;

constexpr std::uint32_t flag(bool on, std::uint32_t bit) { return on ? bit : 0; }
constexpr bool has(const Record& r, std::uint32_t bit) { return (r.tag & bit) != 0; }

/// The event's value of a field that may have moved to the extension record.
inline std::uint64_t wide_or(const Record* r, std::uint64_t inline_value) {
  return has(*r, kWide) ? r[1].a : inline_value;
}

inline AccessEvent access_of(const Record* r) {
  return {.func = r->func,
          .pc = r->c,
          .kernel = r->kernel,
          .retired = r->a,
          .ea = r->b,
          .size = static_cast<std::uint32_t>(wide_or(r, r->tag >> kSizeShift)),
          .is_read = has(*r, kRead),
          .is_stack = has(*r, kStack),
          .is_prefetch = has(*r, kPrefetch)};
}

/// A published batch: read-only once shared, freed by whichever holder
/// drops the last reference. Room for two records per event, so a batch
/// of wide tick runs still fits.
struct Batch {
  explicit Batch(std::size_t events)
      : records(std::make_unique_for_overwrite<Record[]>(2 * events)) {}

  std::unique_ptr<Record[]> records;
  std::size_t size = 0;    ///< records written
  std::size_t events = 0;  ///< events those records hold
};

using SharedBatch = std::shared_ptr<const Batch>;

// ---------------------------------------------------------------------------
// Reader: one ring of shared batches and the thread that drains it.

class Reader {
 public:
  /// Start the thread: it hands every batch to `apply`, in push order,
  /// until the ring is closed and empty. With a registry it counts the
  /// batches in its own ThreadSink, which folds as the thread exits. If
  /// `apply` throws, the thread keeps popping (so the publisher never blocks
  /// on a dead consumer) but applies nothing more, and join() returns the
  /// error to the publisher thread.
  template <typename Apply>
  Reader(std::size_t ring_batches, metrics::Registry* registry, Apply apply)
      : ring_(ring_batches) {
    thread_ = std::jthread([this, registry, apply = std::move(apply)] {
      std::optional<metrics::ThreadSink> sink;
      metrics::ThreadSink::Counter* batches = nullptr;
      metrics::Histogram* batch_events = nullptr;
      if (registry != nullptr) {
        sink.emplace(*registry);
        batches = &sink->counter("pipeline.worker.batches");
        batch_events = &sink->histogram("pipeline.worker.batch_events");
      }
      SharedBatch batch;
      while (ring_.pop(batch)) {
        if (batches != nullptr) {
          batches->add(1);
          batch_events->observe(batch->events);
        }
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

  /// Join the thread (after close()); the join is the publisher's
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
    stats.dropped_after_close += rs.dropped_after_close;
    stats.ring_occupancy_high_water =
        std::max(stats.ring_occupancy_high_water, rs.occupancy_high_water);
    ++stats.rings;
  }

 private:
  SpscRing<SharedBatch> ring_;
  std::exception_ptr error_;  ///< first apply() failure; reader thread only
  std::jthread thread_;       ///< last: starts once the ring exists
};

/// Deliver the kinds in `interests` (and every end marker) to `target`.
void deliver(AnalysisConsumer& target, unsigned interests, const Batch& batch) {
  const Record* const end = batch.records.get() + batch.size;
  for (const Record* r = batch.records.get(); r != end; r += has(*r, kWide) ? 2 : 1) {
    switch (r->tag & kKindMask) {
      case kAccess:
        if (interests & AnalysisConsumer::kAccessInterest) target.on_access(access_of(r));
        break;
      case kTickRun:
        if (interests & AnalysisConsumer::kTickInterest) {
          target.on_tick_run({.func = r->func,
                              .kernel = r->kernel,
                              .first_retired = r->a,
                              .count = r->b,
                              .mem_count = wide_or(r, r->c),
                              .tracked = has(*r, kTracked)});
        }
        break;
      case kEnter:
        if (interests & AnalysisConsumer::kEnterInterest) {
          target.on_kernel_enter({.func = r->func,
                                  .caller = r->c,
                                  .kernel = r->kernel,
                                  .retired = r->a,
                                  .tracked = has(*r, kTracked)});
        }
        break;
      case kRet:
        if (interests & AnalysisConsumer::kRetInterest) {
          target.on_kernel_ret({.func = r->func,
                                .pc = r->c,
                                .kernel = r->kernel,
                                .retired = r->a,
                                .tracked = has(*r, kTracked)});
        }
        break;
      case kEnd:
        target.on_session_end(r->a);
        break;
    }
  }
}

/// Apply the accesses on shard `shard`'s pages (page % shards == shard). A
/// page-crossing access is split into per-page pieces, and the per-access
/// counter travels with the first piece only, whichever shard owns it.
void apply_shard(ShardedAccessConsumer& sharded, unsigned shard, unsigned shards,
                 const Batch& batch) {
  constexpr unsigned kPageBits = PagedMemory::kPageBits;
  const auto mine = [&](std::uint64_t ea) { return (ea >> kPageBits) % shards == shard; };
  const Record* const end = batch.records.get() + batch.size;
  for (const Record* r = batch.records.get(); r != end; r += has(*r, kWide) ? 2 : 1) {
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

// ---------------------------------------------------------------------------
// Publisher: the one consumer the attribution sees in parallel mode.

class Publisher final : public AnalysisConsumer {
 public:
  Publisher(const PipelineOptions& options, metrics::Registry* registry)
      : cap_(std::max<std::size_t>(options.batch_events, 1)),
        ring_batches_(std::max<std::size_t>(options.ring_batches, 1)),
        registry_(registry) {
    start_batch();
  }

  /// Give `target` its reader(s). With `shards` > 1 and a shardable access
  /// consumer, its accesses go to one reader per shard and its other kinds
  /// to a control reader.
  void add(AnalysisConsumer& target, unsigned shards) {
    const unsigned interests = target.event_interests();
    interests_ |= interests;
    targets_.push_back(&target);
    ShardedAccessConsumer* sharded = target.sharded_access();
    if (sharded == nullptr || shards <= 1 || !(interests & kAccessInterest)) {
      add_reader([&target, interests](const Batch& batch) {
        deliver(target, interests, batch);
      });
      return;
    }
    const unsigned control = interests & ~kAccessInterest;
    add_reader([&target, control](const Batch& batch) {
      deliver(target, control, batch);
    });
    sharded->prepare_shards(shards);
    sharded_.push_back(sharded);
    for (unsigned s = 0; s < shards; ++s) {
      add_reader([sharded, s, shards](const Batch& batch) {
        apply_shard(*sharded, s, shards, batch);
      });
    }
  }

  // -- publisher side (VM thread) --
  unsigned event_interests() const override { return interests_; }

  void on_kernel_enter(const EnterEvent& e) override {
    append() = {e.retired, 0, e.func, e.caller, e.kernel,
                kEnter | flag(e.tracked, kTracked)};
  }

  void on_tick_run(const TickRunEvent& run) override {
    const bool wide = run.mem_count > UINT32_MAX;
    append() = {run.first_retired, run.count, run.func,
                static_cast<std::uint32_t>(run.mem_count), run.kernel,
                kTickRun | flag(run.tracked, kTracked) | flag(wide, kWide)};
    if (wide) extend(run.mem_count);
  }

  void on_access(const AccessEvent& e) override {
    const bool wide = e.size > kMaxInlineSize;
    append() = {e.retired, e.ea, e.func, e.pc, e.kernel,
                kAccess | flag(e.is_read, kRead) | flag(e.is_stack, kStack) |
                    flag(e.is_prefetch, kPrefetch) |
                    (wide ? kWide : e.size << kSizeShift)};
    if (wide) extend(e.size);
  }

  void on_kernel_ret(const RetEvent& e) override {
    append() = {e.retired, 0, e.func, e.pc, e.kernel, kRet | flag(e.tracked, kTracked)};
  }

  void on_session_end(std::uint64_t total_retired) override {
    append() = {total_retired, 0, 0, 0, 0, kEnd};
  }

  /// The drain barrier: publish the tail, let every reader finish, fold
  /// QUAD's shards, then finish the consumers in attach order.
  void on_finish(const vm::RunOutcome& outcome) override {
    publish();
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

  void add_stats(PipelineStats& stats) const {
    for (const auto& reader : readers_) reader->add_stats(stats);
    stats.shard_fold_ns += fold_ns_;
  }

 private:
  template <typename Apply>
  void add_reader(Apply apply) {
    readers_.push_back(
        std::make_unique<Reader>(ring_batches_, registry_, std::move(apply)));
  }

  /// The next record of a new event, publishing a full batch first.
  Record& append() {
    if (events_ == cap_) publish();
    ++events_;
    return *next_++;
  }

  /// The extension record of the event just appended (see kWide).
  void extend(std::uint64_t value) { *next_++ = {value, 0, 0, 0, 0, 0}; }

  void start_batch() {
    staging_ = std::make_shared<Batch>(cap_);
    next_ = staging_->records.get();
    events_ = 0;
  }

  /// Share the staging batch with every reader (no-op when empty).
  void publish() {
    if (events_ == 0) return;
    staging_->size = static_cast<std::size_t>(next_ - staging_->records.get());
    staging_->events = events_;
    const SharedBatch batch = std::move(staging_);
    for (auto& reader : readers_) reader->push(batch);
    start_batch();
  }

  const std::size_t cap_;
  const std::size_t ring_batches_;
  metrics::Registry* const registry_;
  unsigned interests_ = 0;
  std::vector<AnalysisConsumer*> targets_;        ///< attach order
  std::vector<ShardedAccessConsumer*> sharded_;
  std::vector<std::unique_ptr<Reader>> readers_;  ///< ring order
  std::shared_ptr<Batch> staging_;
  Record* next_ = nullptr;  ///< next free record of staging_
  std::size_t events_ = 0;  ///< events in staging_
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

// Destroying the publisher destroys its readers, each of which closes its
// ring and joins its thread: all the abort path needs.
ParallelPipeline::~ParallelPipeline() = default;

void ParallelPipeline::attach(std::span<AnalysisConsumer* const> consumers,
                              KernelAttribution& attribution) {
  TQUAD_CHECK(publisher_ == nullptr, "ParallelPipeline::attach runs once");
  publisher_ = std::make_unique<detail::Publisher>(options_, metrics_);
  for (AnalysisConsumer* consumer : consumers) {
    publisher_->add(*consumer, access_shards_);
  }
  attribution.add_consumer(*publisher_);
}

PipelineStats ParallelPipeline::stats() const {
  PipelineStats stats;
  if (publisher_ != nullptr) publisher_->add_stats(stats);
  stats.workers = stats.rings;
  stats.access_shards = access_shards_;
  return stats;
}

}  // namespace tq::session
