// TQTR v2: block-compressed trace container, the only TQTR version.
//
// A flat 28-byte record per event would dominate both disk and replay time
// at production trace sizes (1e9+ events). v2 groups records into
// fixed-capacity blocks, each independently decodable:
//
//   * per-block delta/varint coding — `retired`, `ea`, and `pc` as zigzag
//     deltas (ea keeps one previous-address register per event kind, so read
//     and write streams delta independently), kernel/func as varints with a
//     "same context as previous record" shortcut bit, kind/flags/size packed
//     into one tag byte — typically 4–7 bytes/event;
//   * a 32-byte block header carrying first/last retired count, record and
//     payload byte counts, and an approximate kernel-membership bloom;
//   * a file-level index of block offsets, so consumers can shard whole
//     blocks across threads or processes (aggregate_blocks below).
//
// Layout details in docs/FORMATS.md. Writers stream: TraceV2Writer holds one
// open block plus the already-encoded bytes, never the full Record array.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tquad/bandwidth.hpp"
#include "trace/trace.hpp"

namespace tq::trace {

inline constexpr std::uint32_t kDefaultBlockCapacity = 4096;
inline constexpr std::uint32_t kMaxBlockCapacity = 1u << 20;
inline constexpr std::size_t kV2FileHeaderBytes = 40;
/// v2.1 block header (v2.0 lacked the trailing crc32c + reserved words).
inline constexpr std::size_t kV2BlockHeaderBytes = 40;
inline constexpr std::size_t kV2LegacyBlockHeaderBytes = 32;
inline constexpr std::size_t kV2IndexEntryBytes = 16;

/// The file header's version word packs major|minor: low 16 bits = 2, high
/// 16 bits = minor. Minor 0 (the original v2 layout, still decoded) has
/// 32-byte block headers; minor 1 appends a CRC-32C per block.
inline constexpr std::uint32_t kV2VersionMajor = 2;
inline constexpr std::uint32_t kV2MinorCrc = 1;
inline constexpr std::uint32_t v2_version_word(std::uint32_t minor) {
  return kV2VersionMajor | (minor << 16);
}

/// Quick sniff: the image starts like a TQTR file with major version 2 (any
/// minor — open() rejects minors it cannot decode with a clear error).
bool is_v2_image(std::span<const std::uint8_t> bytes) noexcept;

/// Per-block metadata: the on-disk block header plus its file offset.
struct BlockInfo {
  std::uint64_t file_offset = 0;   ///< of the block header
  std::uint32_t record_count = 0;  ///< 1..block_capacity
  std::uint32_t payload_bytes = 0;
  std::uint64_t first_retired = 0;  ///< retired count of the first record
  std::uint64_t last_retired = 0;   ///< retired count of the last record
  std::uint64_t kernel_bloom = 0;   ///< bit (kernel & 63) set per record
  std::uint32_t crc = 0;            ///< CRC-32C (v2.1; 0 in v2.0 files)
};

/// What salvage-mode decoding recovered from a damaged v2 image.
struct SalvageReport {
  /// One block the salvage scan could not recover.
  struct DroppedBlock {
    std::size_t index = 0;          ///< ordinal position in the scan
    std::uint64_t file_offset = 0;  ///< of the (claimed) block header
    std::uint32_t record_count = 0; ///< records lost (claimed; 0 if unknown)
    std::string reason;
  };

  bool index_rebuilt = false;  ///< trailer index missing/corrupt; blocks rescanned
  std::size_t blocks_found = 0;      ///< block candidates examined
  std::size_t blocks_recovered = 0;
  std::uint64_t records_recovered = 0;
  std::uint64_t records_dropped = 0;  ///< from blocks with a readable count
  std::vector<DroppedBlock> dropped;

  bool clean() const noexcept { return !index_rebuilt && dropped.empty(); }
};

/// Streaming v2 encoder: feed records one at a time, then finish(). Memory
/// stays proportional to the *encoded* output plus one open block, so a
/// recorder can write arbitrarily long runs without buffering Record arrays.
class TraceV2Writer {
 public:
  /// `minor` selects the wire layout: kV2MinorCrc (default) writes v2.1
  /// with per-block CRC-32C; 0 writes the legacy v2.0 layout (for
  /// compatibility tests and the CRC-overhead bench).
  explicit TraceV2Writer(std::uint32_t kernel_count,
                         std::uint32_t block_capacity = kDefaultBlockCapacity,
                         std::uint32_t minor = kV2MinorCrc);

  /// Append one record. Throws tq::Error if the record is not representable
  /// (flag bits outside the defined set, out-of-range kind).
  void add(const Record& record);

  /// Seal the file: flush the open block, append the index, patch the
  /// header. The writer is spent afterwards.
  std::vector<std::uint8_t> finish(std::uint64_t total_retired);

  std::uint64_t record_count() const noexcept { return record_count_; }
  /// Blocks flushed so far (all of them once finish() ran); each carries
  /// its own CRC-32C in the v2.1 layout.
  std::size_t block_count() const noexcept { return blocks_.size(); }

 private:
  void flush_block();

  std::uint32_t block_capacity_;
  std::uint32_t minor_;
  std::vector<std::uint8_t> out_;      ///< finished header + flushed blocks
  std::vector<std::uint8_t> payload_;  ///< open block payload
  std::vector<BlockInfo> blocks_;
  std::uint64_t record_count_ = 0;
  bool finished_ = false;

  // Open-block coder state (reset at block boundaries so blocks decode
  // independently).
  std::uint32_t block_records_ = 0;
  std::uint64_t block_first_retired_ = 0;
  std::uint64_t block_last_retired_ = 0;
  std::uint64_t block_bloom_ = 0;
  std::uint64_t prev_retired_ = 0;
  std::uint64_t prev_ea_[4] = {0, 0, 0, 0};
  std::uint32_t prev_pc_ = 0;
  std::uint16_t prev_kernel_ = 0;
  std::uint16_t prev_func_ = 0;
};

/// One-shot convenience: encode a whole in-memory trace as TQTR v2.
std::vector<std::uint8_t> serialize_v2(
    const Trace& trace, std::uint32_t block_capacity = kDefaultBlockCapacity);

/// Validated random-access view over a v2 byte image. open() checks the
/// whole structure (magic, index/block offset chain, per-block headers,
/// record-count totals) up front; per-block payloads are validated on
/// decode. The view borrows `bytes` — keep them alive while using it.
class TraceV2View {
 public:
  static TraceV2View open(std::span<const std::uint8_t> bytes);

  /// Best-effort open of a damaged image: skips blocks whose CRC (v2.1) or
  /// trial decode fails, drops truncated tails, and rebuilds the block list
  /// by scanning forward from the file header when the trailer index is
  /// missing or unusable (e.g. the write was cut off mid-run). The returned
  /// view exposes only the recovered blocks, so every downstream consumer
  /// (decode_all, replay, parallel aggregation) works unchanged on the
  /// recovered subset. Throws tq::Error only when nothing is recoverable
  /// (bad magic/major version/file header). Details land in `*report` when
  /// non-null.
  static TraceV2View salvage(std::span<const std::uint8_t> bytes,
                             SalvageReport* report = nullptr);

  std::uint32_t kernel_count() const noexcept { return kernel_count_; }
  std::uint32_t block_capacity() const noexcept { return block_capacity_; }
  std::uint32_t minor_version() const noexcept { return minor_; }
  std::uint64_t total_retired() const noexcept { return total_retired_; }
  std::uint64_t record_count() const noexcept { return record_count_; }

  std::size_t block_count() const noexcept { return blocks_.size(); }
  const BlockInfo& block(std::size_t i) const;

  /// Decode one block. Throws tq::Error on corrupt payloads or block
  /// headers that disagree with the decoded records (first/last retired,
  /// kernel bloom, payload byte count).
  std::vector<Record> decode_block(std::size_t i) const;

  /// The same, into `out` (cleared first), so a caller that walks many
  /// blocks reuses one buffer. After a throw `out` holds a partial block.
  void decode_block(std::size_t i, std::vector<Record>& out) const;

  /// Decode every block into a flat Trace.
  Trace decode_all() const;

  /// Parsed file-header fields (an implementation detail shared between the
  /// strict and salvage open paths).
  struct HeaderFields {
    std::uint32_t minor = 0;
    std::uint32_t kernel_count = 0;
    std::uint32_t block_capacity = 0;
    std::uint64_t total_retired = 0;
    std::uint64_t record_count = 0;
    std::uint64_t index_offset = 0;
  };

 private:
  TraceV2View() = default;

  /// Decode a block payload described by `info` into `records` (cleared
  /// first; no CRC check — that is decode_block's / salvage's job).
  void decode_payload(const BlockInfo& info, std::vector<Record>& records) const;

  std::span<const std::uint8_t> bytes_;
  std::vector<BlockInfo> blocks_;
  std::uint32_t kernel_count_ = 0;
  std::uint32_t block_capacity_ = 0;
  std::uint32_t minor_ = 0;
  std::uint64_t total_retired_ = 0;
  std::uint64_t record_count_ = 0;
};

/// Account the memory records of blocks [lo, hi) of `view` into `recorder`
/// under each record's recorded kernel field: the per-kernel, per-slice
/// series tquad::TQuadTool builds online, without rebuilding the call stack,
/// so any block range aggregates on its own and ranges fold back together
/// with tquad::KernelBandwidth::merge. Unattributed records and prefetch
/// touches are skipped, as online. `recorder` must span view.kernel_count()
/// kernels; the caller finish()es it. Returns the number of records decoded.
/// Decode errors throw tq::Error.
std::uint64_t aggregate_blocks(const TraceV2View& view, std::size_t lo,
                               std::size_t hi, tquad::BandwidthRecorder& recorder);

}  // namespace tq::trace
