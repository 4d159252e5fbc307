// Trace record / replay.
//
// Online profiling couples analysis cost to execution: every run of the
// (slow) instrumented guest pays for every analysis. This module decouples
// them, the way production DBI setups do (Pin's logger/replayer tools):
//
//   * TraceRecorder is a ProfileSession consumer that captures the
//     profiler-relevant event stream — routine entries/returns and memory
//     accesses, each pre-attributed to the kernel on top of the call stack
//     and pre-classified stack/global — serialisable to the "TQTR" file
//     family: v1 is a flat 28-bytes/event array, v2 (trace_v2.hpp) a
//     block-compressed layout ~4-6x smaller that also enables
//     block-parallel replay. Readers auto-detect the version.
//   * replay() feeds a recorded trace back into any TraceSink, so many
//     analyses run from one guest execution.
//   * OfflineBandwidth aggregates a trace into the same per-kernel
//     per-slice counters tquad::BandwidthRecorder produces online — either
//     sequentially or sharded across a ThreadPool (records are
//     pre-attributed, so aggregation is embarrassingly parallel; partial
//     slices at shard boundaries merge by addition). v2 traces shard by
//     whole blocks straight from the encoded bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "session/events.hpp"
#include "support/thread_pool.hpp"
#include "tquad/bandwidth.hpp"
#include "tquad/callstack.hpp"
#include "vm/program.hpp"

namespace tq::metrics {
class Registry;
}  // namespace tq::metrics

namespace tq::trace {

/// Event kinds stored in a trace.
enum class EventKind : std::uint8_t {
  kEnter = 0,  ///< routine entry; `ea` holds the entered function id
  kRet = 1,    ///< return executed inside `func`
  kRead = 2,   ///< memory read of `size` bytes at `ea`
  kWrite = 3,  ///< memory write of `size` bytes at `ea`
};

/// Flag bits.
enum : std::uint8_t {
  kFlagStackArea = 1u << 0,  ///< the access hits the local stack area
  kFlagPrefetch = 1u << 1,   ///< the access is a prefetch touch
};

/// One trace record. Serialised field-by-field (kRecordDiskBytes on disk in
/// v1, delta/varint-coded in v2), so the formats never depend on host struct
/// padding; little-endian hosts only, like the rest of the image formats.
struct Record {
  std::uint64_t retired;  ///< instruction count before the event
  std::uint64_t ea;       ///< effective address (or entered function id)
  std::uint32_t pc;       ///< instruction index within `func`
  std::uint16_t kernel;   ///< attributed kernel (0xffff = unattributed)
  std::uint16_t func;     ///< function executing the instruction
  EventKind kind;
  std::uint8_t size;      ///< access width in bytes
  std::uint8_t flags;     ///< kFlag* bits
  std::uint8_t reserved;
};

/// On-disk size of one v1 record: the packed field sizes, independent of
/// host padding.
inline constexpr std::size_t kRecordDiskBytes = 28;
static_assert(sizeof(Record::retired) + sizeof(Record::ea) + sizeof(Record::pc) +
                  sizeof(Record::kernel) + sizeof(Record::func) +
                  sizeof(Record::kind) + sizeof(Record::size) +
                  sizeof(Record::flags) + sizeof(Record::reserved) ==
              kRecordDiskBytes,
              "Record field layout drifted");
static_assert(std::is_trivially_copyable_v<Record>, "Record must stay POD");

inline constexpr std::uint16_t kNoKernel16 = 0xffff;

/// On-disk trace container formats (the version field of the shared "TQTR"
/// magic). Readers auto-detect; writers pick via this enum.
enum class TraceFormat : std::uint32_t {
  kV1 = 1,  ///< flat record array, kRecordDiskBytes/event
  kV2 = 2,  ///< block-compressed, delta/varint coded (trace_v2.hpp)
};

/// A recorded trace plus the metadata needed to interpret it.
struct Trace {
  std::vector<Record> records;
  std::uint64_t total_retired = 0;
  std::uint32_t kernel_count = 0;

  /// Serialise to the flat TQTR v1 byte format (field-by-field; see
  /// serialize_v2() in trace_v2.hpp for the compressed container).
  std::vector<std::uint8_t> serialize() const;

  /// Decode a TQTR image of either version, auto-detected from the header
  /// (throws tq::Error on malformed input).
  static Trace deserialize(std::span<const std::uint8_t> bytes);
};

class TraceV2Writer;  // trace_v2.hpp
class TraceV2View;    // trace_v2.hpp

/// Records the profiler-relevant event stream of one guest run.
///
/// Attribution comes from the session's shared call stack: the recorder
/// keeps no attribution state, and `policy` only names the policy the trace
/// is recorded under, so it must equal the session's. Accesses with no
/// attributable kernel are recorded with kernel = kNoKernel16 so offline
/// consumers can choose to keep or drop them.
///
/// In TraceFormat::kV1 mode records are buffered in memory (take() hands
/// them out). In kV2 mode they stream through a TraceV2Writer block encoder
/// as they happen — memory stays proportional to the *compressed* trace —
/// and take_encoded() returns the finished file image.
class TraceRecorder final : public session::AnalysisConsumer {
 public:
  TraceRecorder(const vm::Program& program,
                tquad::LibraryPolicy policy = tquad::LibraryPolicy::kExclude,
                TraceFormat format = TraceFormat::kV1);
  ~TraceRecorder() override;  // out-of-line: TraceV2Writer is incomplete here

  // session::AnalysisConsumer. Ticks carry nothing a trace stores — the
  // retired counters on the other records imply them.
  unsigned event_interests() const override {
    return kEnterInterest | kAccessInterest | kRetInterest;
  }
  void on_kernel_enter(const session::EnterEvent& event) override;
  void on_access(const session::AccessEvent& event) override;
  void on_kernel_ret(const session::RetEvent& event) override;
  void on_session_end(std::uint64_t total_retired) override;
  void on_finish(const vm::RunOutcome& outcome) override;

  /// Seal the trace: flush the open v2 block and append the file index.
  /// Idempotent; runs on every session outcome (on_finish) — including
  /// guest traps and truncation — and from take_encoded(), so a trace
  /// recorded up to a fault is a complete, replayable file.
  void finalize();

  /// Take the finished in-memory trace (v1 mode only; the recorder is
  /// spent). In v2 mode the records were streamed out — use take_encoded().
  Trace take();

  /// Serialise the finished trace in the recorder's format (call after the
  /// run; the recorder is spent).
  std::vector<std::uint8_t> take_encoded();

  /// Self-observability: records/bytes written, the raw-equivalent volume
  /// (records x 28 B), the resulting compression ratio, and the CRC'd block
  /// count, under trace.write.* names. Call after take_encoded().
  void publish_metrics(metrics::Registry& registry) const;

 private:
  void push(const Record& record);

  Trace trace_;
  std::unique_ptr<TraceV2Writer> writer_;   ///< non-null in kV2 mode
  std::vector<std::uint8_t> encoded_;       ///< sealed v2 image (finalize())
  std::uint64_t last_retired_ = 0;
  std::uint64_t records_written_ = 0;
  std::uint64_t encoded_bytes_ = 0;   ///< set by take_encoded()/finalize()
  std::uint64_t blocks_written_ = 0;  ///< v2 only
  bool finalized_ = false;
};

/// Consumer interface for replay().
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_record(const Record& record) = 0;
  virtual void on_end(const Trace& trace) { (void)trace; }
};

/// Feed every record of `trace` to `sink` in order.
void replay(const Trace& trace, TraceSink& sink);

/// Offline per-kernel per-slice aggregation, equivalent to the online
/// tquad::BandwidthRecorder for the same run and slice interval.
class OfflineBandwidth {
 public:
  OfflineBandwidth(std::uint32_t kernel_count, std::uint64_t slice_interval);

  /// Sequential aggregation.
  void aggregate(const Trace& trace);

  /// Sharded aggregation on `pool`: each worker accumulates a disjoint
  /// record range, partial slices merge by addition. Results are identical
  /// to the sequential path.
  void aggregate_parallel(const Trace& trace, ThreadPool& pool);

  /// Block-parallel aggregation straight from an encoded v2 image: workers
  /// decode and accumulate whole blocks (bounded memory, no flat Record
  /// array), using the block index for work division. Results are identical
  /// to the sequential path. Decode errors rethrow as tq::Error.
  void aggregate_parallel(const TraceV2View& view, ThreadPool& pool);

  std::uint64_t slice_interval() const noexcept { return slice_interval_; }
  const tquad::KernelBandwidth& kernel(std::uint32_t id) const;
  std::size_t kernel_count() const noexcept { return kernels_.size(); }
  std::uint64_t max_slice() const noexcept { return max_slice_; }

 private:
  void merge_partial(std::uint32_t kernel,
                     std::vector<tquad::SliceSample>&& samples);

  std::vector<tquad::KernelBandwidth> kernels_;
  std::uint64_t slice_interval_;
  std::uint64_t max_slice_ = 0;
};

}  // namespace tq::trace
