// Trace record / replay.
//
// Online profiling couples analysis cost to execution: every run of the
// (slow) instrumented guest pays for every analysis. This module decouples
// them, the way production DBI setups do (Pin's logger/replayer tools):
// TraceRecorder is a ProfileSession consumer that captures the
// profiler-relevant event stream — routine entries/returns and memory
// accesses, each pre-attributed to the kernel on top of the call stack and
// pre-classified stack/global — and streams it into the block-compressed
// "TQTR" v2 file (trace_v2.hpp). Recorded traces come back through
// session::TraceReplaySource (full profiles) or trace::aggregate_blocks
// (the per-kernel bandwidth series, block-parallel).
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "session/events.hpp"
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

/// One trace record, delta/varint-coded field by field on disk (trace_v2.hpp),
/// so the format never depends on host struct padding; little-endian hosts
/// only, like the rest of the image formats.
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

/// Packed size of one record's fields, independent of host padding: the
/// raw-equivalent volume the v2 compression ratio is measured against.
inline constexpr std::size_t kRecordDiskBytes = 28;
static_assert(sizeof(Record::retired) + sizeof(Record::ea) + sizeof(Record::pc) +
                  sizeof(Record::kernel) + sizeof(Record::func) +
                  sizeof(Record::kind) + sizeof(Record::size) +
                  sizeof(Record::flags) + sizeof(Record::reserved) ==
              kRecordDiskBytes,
              "Record field layout drifted");
static_assert(std::is_trivially_copyable_v<Record>, "Record must stay POD");

inline constexpr std::uint16_t kNoKernel16 = 0xffff;

/// The TQTR container format a recorder writes. Version 2 (trace_v2.hpp) is
/// the only one; readers reject every other version with tq::Error.
enum class TraceFormat : std::uint32_t {
  kV2 = 2,  ///< block-compressed, delta/varint coded
};

/// A decoded trace: the records plus the metadata needed to interpret them
/// (TraceV2View::decode_all(); serialize_v2() encodes one).
struct Trace {
  std::vector<Record> records;
  std::uint64_t total_retired = 0;
  std::uint32_t kernel_count = 0;
};

class TraceV2Writer;  // trace_v2.hpp

/// Records the profiler-relevant event stream of one guest run.
///
/// Attribution comes from the session's shared call stack: the recorder
/// keeps no attribution state, and `policy` only names the policy the trace
/// is recorded under, so it must equal the session's. Accesses with no
/// attributable kernel are recorded with kernel = kNoKernel16 so offline
/// consumers can choose to keep or drop them.
///
/// Records stream through a TraceV2Writer block encoder as they happen —
/// memory stays proportional to the *compressed* trace — and take_encoded()
/// returns the finished file image.
class TraceRecorder final : public session::AnalysisConsumer {
 public:
  TraceRecorder(const vm::Program& program,
                tquad::LibraryPolicy policy = tquad::LibraryPolicy::kExclude,
                TraceFormat format = TraceFormat::kV2);
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
  void on_batch(unsigned interests, const session::Batch& batch) override {
    session::deliver(*this, interests, batch);
  }

  /// Seal the trace: flush the open v2 block and append the file index.
  /// Idempotent; runs on every session outcome (on_finish) — including
  /// guest traps and truncation — and from take_encoded(), so a trace
  /// recorded up to a fault is a complete, replayable file.
  void finalize();

  /// The finished file image (call after the run; the recorder is spent).
  std::vector<std::uint8_t> take_encoded();

  /// Self-observability: records/bytes written, the raw-equivalent volume
  /// (records x 28 B), the resulting compression ratio, and the CRC'd block
  /// count, under trace.write.* names. Call after take_encoded().
  void publish_metrics(metrics::Registry& registry) const;

 private:
  void push(const Record& record);

  std::unique_ptr<TraceV2Writer> writer_;
  std::vector<std::uint8_t> encoded_;  ///< sealed image (finalize())
  std::uint64_t total_retired_ = 0;
  std::uint64_t last_retired_ = 0;
  std::uint64_t records_written_ = 0;
  std::uint64_t encoded_bytes_ = 0;   ///< set by finalize()
  std::uint64_t blocks_written_ = 0;
  bool finalized_ = false;
};

}  // namespace tq::trace
