// Attributed profiling events and the consumer interface.
//
// One KernelAttribution pass turns the raw execution stream (routine
// entries, retired instructions, memory accesses, returns) into events that
// already carry the call-stack attribution every tool needs: the kernel on
// top of the shared stack, the caller at entry, the tracked bit under the
// session's library policy, and the stack-area classification of each
// access. Tools implement AnalysisConsumer and do pure accounting — no tool
// maintains its own CallStack or re-derives stack classification.
//
// The events travel as batches of 32-byte Records, encoded once by the
// attribution and decoded by deliver() into these structs for each
// consumer, on the VM thread (serial) or a reader thread (parallel). `tag`
// holds the kind, the event's flags, and an access's size. A field too wide
// for its slot (a tick run's mem_count above 32 bits, an access size above
// 24 bits) sets kWide and rides in the `a` of one extra kExtension record,
// which still counts as part of the one event.
//
// Access records travel only inside stretches. A kStretch header record
// precedes each run of consecutive access records; it holds their kernel
// and the number of records that follow it (extension records included).
// The attribution closes a stretch at every routine
// entry and return, every other record it emits, and every batch flush, so
// a stretch never spans a change of the attribution top. Decoders jump
// over a whole stretch they do not want in O(1), and a consumer with an
// on_access_stretch hook does its per-kernel lookups once per stretch.
//
// This header is intentionally self-contained (no tq_session link
// dependency): the tool libraries implement the interface without linking
// the session layer, and the session layer links the tools.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "tquad/callstack.hpp"
#include "vm/run_outcome.hpp"

namespace tq::session {

/// Routine entry. Fires after the call instruction's own tick/access events
/// (mirroring vm::EventSink::on_enter), and once at program start for the
/// entry function.
struct EnterEvent {
  std::uint32_t func = 0;    ///< entered routine
  std::uint32_t caller = 0;  ///< attribution top *before* the push (kNoKernel if none)
  std::uint32_t kernel = 0;  ///< attribution top *after* the push
  std::uint64_t retired = 0; ///< retired count of the call instruction (0 at entry)
  bool tracked = false;      ///< `func` is reported under the library policy
};

/// One executed memory access (reads, writes, and prefetch touches).
struct AccessEvent {
  std::uint32_t func = 0;    ///< function executing the instruction
  std::uint32_t pc = 0;      ///< instruction index within `func`
  std::uint32_t kernel = 0;  ///< attribution top (kNoKernel while suspended)
  std::uint64_t retired = 0;
  std::uint64_t ea = 0;      ///< effective byte address
  std::uint32_t size = 0;    ///< access width in bytes
  bool is_read = false;
  bool is_stack = false;     ///< hits the local stack area (vm::is_stack_addr)
  bool is_prefetch = false;  ///< prefetch touch (reads only)
};

/// A run of `count` consecutive ticks sharing one attribution state: one
/// function, one kernel, retired counters `first_retired` .. `first_retired
/// + count - 1`. The attribution layer accumulates ticks into runs and
/// flushes at the next attribution boundary (routine entry, return, or
/// session end), so a run is delivered *after* any access events its
/// instructions produced. `mem_count` says how many of the ticks carried
/// memory operands (architecturally — predicated-off instructions included
/// on a live run; a replayed trace only knows the ones that left records),
/// without recording which ones.
struct TickRunEvent {
  std::uint32_t func = 0;
  std::uint32_t kernel = 0;         ///< attribution top for the whole run
  std::uint64_t first_retired = 0;
  std::uint64_t count = 0;
  std::uint64_t mem_count = 0;      ///< ticks with a read or write operand
  bool tracked = false;
};

/// An executed return inside `func`. Fires *before* the shared stack pops,
/// so `kernel` is the attribution top the returning instruction ran under.
struct RetEvent {
  std::uint32_t func = 0;
  std::uint32_t pc = 0;
  std::uint32_t kernel = 0;  ///< pre-pop attribution top
  std::uint64_t retired = 0;
  bool tracked = false;
};

// ---- the wire form ---------------------------------------------------------

struct Record {
  std::uint64_t a;       ///< retired; a tick run's first_retired; end's total
  std::uint64_t b;       ///< an access's ea; a tick run's count; a stretch's records
  std::uint32_t func;
  std::uint32_t c;       ///< pc (access, ret); caller (enter); mem_count (tick run)
  std::uint32_t kernel;
  std::uint32_t tag;
};
static_assert(sizeof(Record) == 32);

/// kExtension marks the extra record of a kWide event; it follows its event
/// directly. kStretch is the header of a run of access records (see the top
/// of this file): `kernel` is their kernel, `b` the count of records after
/// the header that belong to it. Outside a stretch, decoders step over
/// every kind they skip one record at a time.
enum RecordKind : std::uint32_t {
  kEnter, kTickRun, kAccess, kRet, kEnd, kExtension, kStretch
};
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

/// The records of the stretch whose header is `header`.
inline std::span<const Record> stretch_of(const Record* header) {
  return {header + 1, static_cast<std::size_t>(header->b)};
}

/// Call `fn(record, size)` for each access record of a stretch, in order,
/// stepping over a wide access's extension record.
template <typename Fn>
inline void for_each_access(std::span<const Record> stretch, Fn&& fn) {
  const Record* const end = stretch.data() + stretch.size();
  for (const Record* r = stretch.data(); r != end; ++r) {
    if (has(*r, kWide)) [[unlikely]] {
      fn(*r, static_cast<std::uint32_t>(r[1].a));
      ++r;
    } else {
      fn(*r, r->tag >> kSizeShift);
    }
  }
}

/// The event of an access record whose size for_each_access decoded.
inline AccessEvent access_of(const Record& r, std::uint32_t size) {
  return {.func = r.func,
          .pc = r.c,
          .kernel = r.kernel,
          .retired = r.a,
          .ea = r.b,
          .size = size,
          .is_read = has(r, kRead),
          .is_stack = has(r, kStack),
          .is_prefetch = has(r, kPrefetch)};
}

/// A batch of records. Room for three records per event: an access may
/// open a stretch and carry an extension record. Neither header nor
/// extension counts as an event, so the batch holds `events` events
/// whatever their kinds. In parallel mode a full batch is shared read-only
/// (SharedBatch) and freed by whichever reader drops the last reference.
struct Batch {
  explicit Batch(std::size_t events)
      : records(std::make_unique_for_overwrite<Record[]>(3 * events)) {}

  std::unique_ptr<Record[]> records;
  std::size_t size = 0;  ///< records written
};

using SharedBatch = std::shared_ptr<const Batch>;

/// A profiling tool: pure accounting over attributed events.
/// Within one instruction, accesses come read before write, then the
/// return; routine entries land after their call instruction's events.
/// Ticks arrive batched (on_tick_run, at the next attribution boundary —
/// possibly after the access events of the instructions it covers).
/// Accounting that needs a per-tick stream position must come from
/// on_access/on_kernel_* events. The hooks run when a batch is delivered,
/// up to one batch after the events happened, so a consumer cannot act on
/// the run while it executes (an interrupt is the engine's to check).
class AnalysisConsumer {
 public:
  /// Event kinds a consumer subscribes to (see event_interests()).
  enum EventInterest : unsigned {
    kEnterInterest = 1u << 0,
    kTickInterest = 1u << 1,   ///< on_tick_run
    kAccessInterest = 1u << 2,
    kRetInterest = 1u << 3,
    kAllEvents = (1u << 4) - 1,
  };

  virtual ~AnalysisConsumer() = default;

  /// Which event kinds to deliver, read once at attach time. A kind that no
  /// consumer names is never encoded, and this consumer is never called for
  /// a kind it does not name. The ticks and accesses of a 43M-instruction
  /// run make even an empty-body virtual call expensive, so tools should
  /// subscribe to exactly what they account. on_session_end is always
  /// delivered.
  virtual unsigned event_interests() const { return kAllEvents; }

  virtual void on_kernel_enter(const EnterEvent& event) { (void)event; }
  virtual void on_access(const AccessEvent& event) { (void)event; }
  virtual void on_kernel_ret(const RetEvent& event) { (void)event; }

  /// A batched tick run (see TickRunEvent): `run.count` ticks with
  /// consecutive retired counters, `run.mem_count` of them carrying memory
  /// operands. Tools account it in O(1).
  virtual void on_tick_run(const TickRunEvent& run) { (void)run; }

  /// End of the run; `total_retired` is the final instruction count.
  virtual void on_session_end(std::uint64_t total_retired) { (void)total_retired; }

  /// The structured outcome, delivered right after on_session_end on every
  /// path — clean halt, guest trap, or budget truncation. Tools that stamp
  /// reports (PARTIAL/TRUNCATED) or must finalize durable output (the trace
  /// recorder) hook this; pure accumulators can ignore it.
  virtual void on_finish(const vm::RunOutcome& outcome) { (void)outcome; }

  /// Optional capability hook: a consumer whose per-address accounting can
  /// be partitioned by address range (QUAD's shadow memory) returns its
  /// ShardedAccessConsumer facet so the parallel pipeline can fan access
  /// events out to several worker threads. Default: not shardable.
  virtual class ShardedAccessConsumer* sharded_access() { return nullptr; }

  /// One batch of the stream, filtered to `interests` (this consumer's
  /// event_interests()). The default decodes it through the hooks above
  /// with deliver(), one virtual call per record. A `final` consumer should
  /// override it with the same call on `*this`
  /// (`deliver(*this, interests, batch)`), so the decode loop calls its
  /// hooks directly. Such a consumer may also declare a non-virtual
  /// `on_access_stretch(std::uint32_t kernel, std::span<const Record>)`,
  /// which then receives each stretch of accesses whole (see deliver()) and
  /// walks it with for_each_access, instead of on_access per access.
  virtual void on_batch(unsigned interests, const Batch& batch);
};

/// Address-sharded access accounting. The parallel pipeline routes each
/// AccessEvent to a shard by address; one shard is drained by exactly one
/// worker thread, in stream order, so shard state needs no locking.
///
/// Routing contract kept by the pipeline:
///  - every delivered event lies within a single 4 KiB page, so a shard's
///    pages are disjoint from every other shard's (accesses crossing a page
///    boundary are split into per-page pieces);
///  - the pieces of one original access carry `count_access == true` exactly
///    once, so per-access (as opposed to per-byte) counters stay exact;
///  - `prepare_shards` happens before any apply, `merge_shards` after all
///    shard rings drained (the on_finish barrier) and before the consumer's
///    own on_finish.
class ShardedAccessConsumer {
 public:
  virtual ~ShardedAccessConsumer() = default;

  /// Allocate `shards` independent shard states (shard ids 0..shards-1).
  virtual void prepare_shards(unsigned shards) = 0;

  /// Apply one (possibly split) access to shard `shard`.
  virtual void apply_access_shard(unsigned shard, const AccessEvent& event,
                                  bool count_access) = 0;

  /// Fold all shard states back into the main accounting. Runs on the
  /// VM thread after every shard drained; results must be identical
  /// to having applied the whole access stream serially.
  virtual void merge_shards() = 0;
};

/// Deliver the kinds in `interests` (and every end marker) to `target`, in
/// stream order. A stretch goes to `target.on_access_stretch(kernel,
/// records)` when the consumer has that (non-virtual) hook, and otherwise
/// to on_access one access at a time; without kAccessInterest it is
/// skipped whole.
template <typename Consumer>
void deliver(Consumer& target, unsigned interests, const Batch& batch) {
  const Record* const end = batch.records.get() + batch.size;
  for (const Record* r = batch.records.get(); r != end; ++r) {
    switch (r->tag & kKindMask) {
      case kStretch: {
        const std::span<const Record> stretch = stretch_of(r);
        if (interests & AnalysisConsumer::kAccessInterest) {
          if constexpr (requires { target.on_access_stretch(r->kernel, stretch); }) {
            target.on_access_stretch(r->kernel, stretch);
          } else {
            for_each_access(stretch, [&](const Record& access, std::uint32_t size) {
              target.on_access(access_of(access, size));
            });
          }
        }
        r += stretch.size();
        break;
      }
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

inline void AnalysisConsumer::on_batch(unsigned interests, const Batch& batch) {
  deliver(*this, interests, batch);
}

}  // namespace tq::session
