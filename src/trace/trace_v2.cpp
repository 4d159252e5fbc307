#include "trace/trace_v2.hpp"

#include <algorithm>
#include <cstring>

#include "support/check.hpp"
#include "support/crc32c.hpp"
#include "trace/wire.hpp"

namespace tq::trace {

namespace {

constexpr std::uint32_t kMagic = 0x52545154;  // "TQTR"
constexpr std::uint8_t kDefinedFlags = kFlagStackArea | kFlagPrefetch;

// Tag byte: bits 0-1 kind, 2-3 flags, 4-6 size code, 7 context-repeat
// (kernel/func equal the previous record in the block; their varints are
// omitted). pc is not part of the repeat set: a loop body walks several
// distinct pcs per iteration, so pc gets its own zigzag delta instead.
constexpr std::uint8_t kTagCtxRepeat = 0x80;

// Size codes 0..6 for the common access widths of kRead/kWrite; 7 means a
// literal size byte follows the tag. kEnter/kRet use code 0 for their
// (constant) size 0.
constexpr std::uint8_t kAccessSizes[7] = {1, 2, 4, 8, 16, 32, 64};
constexpr std::uint8_t kSizeLiteral = 7;

std::uint8_t size_code(EventKind kind, std::uint8_t size) {
  if (kind == EventKind::kRead || kind == EventKind::kWrite) {
    for (std::uint8_t code = 0; code < 7; ++code) {
      if (kAccessSizes[code] == size) return code;
    }
    return kSizeLiteral;
  }
  return size == 0 ? 0 : kSizeLiteral;
}

std::uint64_t delta_u64(std::uint64_t value, std::uint64_t previous) {
  // Wraparound difference, zigzagged: the shortest signed distance wins, so
  // a max-u64 jump backwards still costs one byte.
  return wire::zigzag_encode(static_cast<std::int64_t>(value - previous));
}

std::uint64_t apply_delta(std::uint64_t previous, std::uint64_t zigzag) {
  return previous + static_cast<std::uint64_t>(wire::zigzag_decode(zigzag));
}

std::size_t block_header_bytes(std::uint32_t minor) {
  return minor >= kV2MinorCrc ? kV2BlockHeaderBytes : kV2LegacyBlockHeaderBytes;
}

/// The CRC covers the 32 header bytes shared with v2.0 plus the payload —
/// everything except the CRC word itself and the reserved word after it.
std::uint32_t block_crc(std::span<const std::uint8_t> bytes, const BlockInfo& info) {
  const std::uint32_t head =
      crc32c(bytes.data() + info.file_offset, kV2LegacyBlockHeaderBytes);
  return crc32c(bytes.data() + info.file_offset + kV2BlockHeaderBytes,
                info.payload_bytes, head);
}

}  // namespace

bool is_v2_image(std::span<const std::uint8_t> bytes) noexcept {
  // Magic "TQTR" then a version word whose low half is major 2 (any minor).
  return bytes.size() >= 8 && bytes[0] == 'T' && bytes[1] == 'Q' &&
         bytes[2] == 'T' && bytes[3] == 'R' && bytes[4] == kV2VersionMajor &&
         bytes[5] == 0;
}

// ---- TraceV2Writer ---------------------------------------------------------------

TraceV2Writer::TraceV2Writer(std::uint32_t kernel_count, std::uint32_t block_capacity,
                             std::uint32_t minor)
    : block_capacity_(block_capacity), minor_(minor) {
  TQUAD_CHECK(block_capacity_ >= 1 && block_capacity_ <= kMaxBlockCapacity,
              "TQTR v2 block capacity out of range");
  TQUAD_CHECK(minor_ <= kV2MinorCrc, "TQTR v2 minor version out of range");
  // Header now; total_retired / record_count / index_offset patched by
  // finish().
  wire::put_u32(out_, kMagic);
  wire::put_u32(out_, v2_version_word(minor_));
  wire::put_u32(out_, kernel_count);
  wire::put_u32(out_, block_capacity_);
  wire::put_u64(out_, 0);
  wire::put_u64(out_, 0);
  wire::put_u64(out_, 0);
}

void TraceV2Writer::add(const Record& record) {
  TQUAD_CHECK(!finished_, "TraceV2Writer reused after finish()");
  if (static_cast<std::uint8_t>(record.kind) >
      static_cast<std::uint8_t>(EventKind::kWrite)) {
    TQUAD_THROW("TQTR v2: record kind out of range");
  }
  if (record.flags & ~kDefinedFlags) {
    TQUAD_THROW("TQTR v2: undefined flag bits are not representable");
  }
  if (block_records_ == 0) {
    block_first_retired_ = record.retired;
    prev_retired_ = record.retired;
  }

  const std::uint8_t code = size_code(record.kind, record.size);
  const bool repeat = block_records_ > 0 && record.kernel == prev_kernel_ &&
                      record.func == prev_func_;
  std::uint8_t tag = static_cast<std::uint8_t>(record.kind) |
                     static_cast<std::uint8_t>(record.flags << 2) |
                     static_cast<std::uint8_t>(code << 4);
  if (repeat) tag |= kTagCtxRepeat;
  wire::put_u8(payload_, tag);
  if (code == kSizeLiteral) wire::put_u8(payload_, record.size);
  wire::put_varint(payload_, delta_u64(record.retired, prev_retired_));
  const auto kind_index = static_cast<std::size_t>(record.kind);
  wire::put_varint(payload_, delta_u64(record.ea, prev_ea_[kind_index]));
  wire::put_varint(payload_, delta_u64(record.pc, prev_pc_));
  if (!repeat) {
    wire::put_varint(payload_, record.kernel);
    wire::put_varint(payload_, record.func);
  }

  prev_retired_ = record.retired;
  prev_ea_[kind_index] = record.ea;
  prev_pc_ = record.pc;
  prev_kernel_ = record.kernel;
  prev_func_ = record.func;
  block_last_retired_ = record.retired;
  block_bloom_ |= 1ull << (record.kernel & 63);
  ++record_count_;
  if (++block_records_ == block_capacity_) flush_block();
}

void TraceV2Writer::flush_block() {
  BlockInfo info;
  info.file_offset = out_.size();
  info.record_count = block_records_;
  info.payload_bytes = static_cast<std::uint32_t>(payload_.size());
  info.first_retired = block_first_retired_;
  info.last_retired = block_last_retired_;
  info.kernel_bloom = block_bloom_;
  blocks_.push_back(info);

  wire::put_u32(out_, info.record_count);
  wire::put_u32(out_, info.payload_bytes);
  wire::put_u64(out_, info.first_retired);
  wire::put_u64(out_, info.last_retired);
  wire::put_u64(out_, info.kernel_bloom);
  if (minor_ >= kV2MinorCrc) {
    // CRC over the 32 header bytes just written plus the payload.
    const std::uint32_t head =
        crc32c(out_.data() + info.file_offset, kV2LegacyBlockHeaderBytes);
    blocks_.back().crc = crc32c(payload_.data(), payload_.size(), head);
    wire::put_u32(out_, blocks_.back().crc);
    wire::put_u32(out_, 0);  // reserved
  }
  out_.insert(out_.end(), payload_.begin(), payload_.end());

  payload_.clear();
  block_records_ = 0;
  block_bloom_ = 0;
  prev_retired_ = 0;
  std::fill(std::begin(prev_ea_), std::end(prev_ea_), 0);
  prev_pc_ = 0;
  prev_kernel_ = 0;
  prev_func_ = 0;
}

std::vector<std::uint8_t> TraceV2Writer::finish(std::uint64_t total_retired) {
  TQUAD_CHECK(!finished_, "TraceV2Writer reused after finish()");
  finished_ = true;
  if (block_records_ > 0) flush_block();
  const std::uint64_t index_offset = out_.size();
  wire::put_u32(out_, static_cast<std::uint32_t>(blocks_.size()));
  for (const BlockInfo& info : blocks_) {
    wire::put_u64(out_, info.file_offset);
    wire::put_u64(out_, info.first_retired);
  }
  auto patch_u64 = [&](std::size_t offset, std::uint64_t v) {
    std::memcpy(out_.data() + offset, &v, 8);
  };
  patch_u64(16, total_retired);
  patch_u64(24, record_count_);
  patch_u64(32, index_offset);
  return std::move(out_);
}

std::vector<std::uint8_t> serialize_v2(const Trace& trace,
                                       std::uint32_t block_capacity) {
  TraceV2Writer writer(trace.kernel_count, block_capacity);
  for (const Record& record : trace.records) writer.add(record);
  return writer.finish(trace.total_retired);
}

// ---- TraceV2View -----------------------------------------------------------------

namespace {

/// Parse and validate the 40-byte file header into an empty view (no block
/// scan). Shared by the strict and salvage open paths — both insist on a
/// sane file header; nothing is recoverable without one.
TraceV2View::HeaderFields parse_file_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8) TQUAD_THROW("TQTR trace too short for a header");
  wire::ByteReader header(bytes);
  if (header.u32() != kMagic) TQUAD_THROW("not a TQTR trace (bad magic)");
  const std::uint32_t version = header.u32();
  if ((version & 0xffffu) != kV2VersionMajor) {
    TQUAD_THROW("unsupported TQTR version " + std::to_string(version & 0xffffu) +
                " (only version 2 is read)");
  }
  if (bytes.size() < kV2FileHeaderBytes) {
    TQUAD_THROW("TQTR v2 trace too short for a header");
  }
  TraceV2View::HeaderFields fields;
  fields.minor = version >> 16;
  if (fields.minor > kV2MinorCrc) {
    TQUAD_THROW("TQTR v2 minor version from the future");
  }
  fields.kernel_count = header.u32();
  fields.block_capacity = header.u32();
  fields.total_retired = header.u64();
  fields.record_count = header.u64();
  fields.index_offset = header.u64();
  if (fields.block_capacity < 1 || fields.block_capacity > kMaxBlockCapacity) {
    TQUAD_THROW("TQTR v2 block capacity out of range");
  }
  return fields;
}

/// Read one block header at `offset`, bounds-checking against `limit` (the
/// index offset for strict opens, EOF for salvage scans). Field sanity
/// (record count vs. capacity) is the caller's call.
BlockInfo read_block_header(std::span<const std::uint8_t> bytes,
                            std::uint64_t offset, std::uint64_t limit,
                            std::uint32_t minor) {
  const std::size_t header_bytes = block_header_bytes(minor);
  if (offset + header_bytes > limit) {
    TQUAD_THROW("TQTR v2 block header overruns the index");
  }
  wire::ByteReader block_header(bytes.subspan(offset));
  BlockInfo info;
  info.file_offset = offset;
  info.record_count = block_header.u32();
  info.payload_bytes = block_header.u32();
  info.first_retired = block_header.u64();
  info.last_retired = block_header.u64();
  info.kernel_bloom = block_header.u64();
  if (minor >= kV2MinorCrc) {
    info.crc = block_header.u32();
    if (block_header.u32() != 0) {
      TQUAD_THROW("TQTR v2 block header reserved word is not zero");
    }
  }
  return info;
}

}  // namespace

TraceV2View TraceV2View::open(std::span<const std::uint8_t> bytes) {
  const HeaderFields fields = parse_file_header(bytes);
  TraceV2View view;
  view.bytes_ = bytes;
  view.minor_ = fields.minor;
  view.kernel_count_ = fields.kernel_count;
  view.block_capacity_ = fields.block_capacity;
  view.total_retired_ = fields.total_retired;
  view.record_count_ = fields.record_count;
  const std::uint64_t index_offset = fields.index_offset;
  const std::size_t header_bytes = block_header_bytes(view.minor_);
  if (index_offset < kV2FileHeaderBytes || index_offset > bytes.size() - 4) {
    TQUAD_THROW("TQTR v2 index offset out of bounds");
  }

  wire::ByteReader index(bytes.subspan(index_offset));
  const std::uint32_t block_count = index.u32();
  if (bytes.size() - index_offset - 4 !=
      static_cast<std::uint64_t>(block_count) * kV2IndexEntryBytes) {
    TQUAD_THROW("TQTR v2 index size mismatch");
  }

  view.blocks_.reserve(block_count);
  std::uint64_t expected_offset = kV2FileHeaderBytes;
  std::uint64_t total_records = 0;
  for (std::uint32_t i = 0; i < block_count; ++i) {
    const std::uint64_t offset = index.u64();
    const std::uint64_t index_first_retired = index.u64();
    if (offset != expected_offset) {
      TQUAD_THROW("TQTR v2 index entry does not point at the next block");
    }
    const BlockInfo info = read_block_header(bytes, offset, index_offset, view.minor_);
    if (info.record_count < 1 || info.record_count > view.block_capacity_) {
      TQUAD_THROW("TQTR v2 block record count out of range");
    }
    if (offset + header_bytes + info.payload_bytes > index_offset) {
      TQUAD_THROW("TQTR v2 block payload overruns the index");
    }
    if (info.first_retired != index_first_retired) {
      TQUAD_THROW("TQTR v2 index disagrees with the block header");
    }
    total_records += info.record_count;
    expected_offset = offset + header_bytes + info.payload_bytes;
    view.blocks_.push_back(info);
  }
  if (expected_offset != index_offset) {
    TQUAD_THROW("TQTR v2 blocks do not end at the index");
  }
  if (total_records != view.record_count_) {
    TQUAD_THROW("TQTR v2 header record count disagrees with the blocks");
  }
  return view;
}

TraceV2View TraceV2View::salvage(std::span<const std::uint8_t> bytes,
                                 SalvageReport* report) {
  const HeaderFields fields = parse_file_header(bytes);
  TraceV2View view;
  view.bytes_ = bytes;
  view.minor_ = fields.minor;
  view.kernel_count_ = fields.kernel_count;
  view.block_capacity_ = fields.block_capacity;
  const std::size_t header_bytes = block_header_bytes(view.minor_);

  SalvageReport local;
  SalvageReport& rep = report ? *report : local;
  rep = SalvageReport{};

  // Prefer the trailer index: it re-anchors the scan after a block whose
  // header (and so payload length) is unreadable. Fall back to a forward
  // scan from the file header when the index is missing or unusable — the
  // shape a mid-write truncation leaves behind (index offset still zero).
  std::vector<std::uint64_t> offsets;
  const std::uint64_t index_offset = fields.index_offset;
  std::uint64_t blocks_end = bytes.size();
  bool have_index = false;
  if (index_offset >= kV2FileHeaderBytes && index_offset <= bytes.size() - 4) {
    wire::ByteReader index(bytes.subspan(index_offset));
    const std::uint32_t block_count = index.u32();
    if (bytes.size() - index_offset - 4 ==
        static_cast<std::uint64_t>(block_count) * kV2IndexEntryBytes) {
      have_index = true;
      blocks_end = index_offset;
      offsets.reserve(block_count);
      for (std::uint32_t i = 0; i < block_count; ++i) {
        offsets.push_back(index.u64());
        (void)index.u64();  // first_retired: re-read from the block header
      }
    }
  }
  rep.index_rebuilt = !have_index;

  const auto drop = [&](std::uint64_t offset, std::uint32_t record_count,
                        std::string reason) {
    rep.dropped.push_back(
        {rep.blocks_found - 1, offset, record_count, std::move(reason)});
    rep.records_dropped += record_count;
  };

  std::uint64_t prev_last_retired = 0;
  std::uint64_t scan_offset = kV2FileHeaderBytes;
  std::vector<Record> trial;  // trial-decode buffer, reused per block
  for (std::size_t i = 0; have_index ? i < offsets.size()
                                     : scan_offset < blocks_end;
       ++i) {
    const std::uint64_t offset = have_index ? offsets[i] : scan_offset;
    ++rep.blocks_found;
    BlockInfo info;
    try {
      if (have_index && (offset < kV2FileHeaderBytes || offset >= blocks_end)) {
        TQUAD_THROW("TQTR v2 index entry out of bounds");
      }
      info = read_block_header(bytes, offset, blocks_end, view.minor_);
      if (info.record_count < 1 || info.record_count > view.block_capacity_) {
        TQUAD_THROW("TQTR v2 block record count out of range");
      }
      if (offset + header_bytes + info.payload_bytes > blocks_end) {
        TQUAD_THROW("TQTR v2 block payload truncated");
      }
    } catch (const Error& err) {
      // Unreadable header: without the index the payload length is unknown,
      // so the scan cannot re-anchor — everything from here on is lost.
      drop(offset, 0, err.what());
      if (!have_index) break;
      continue;
    }
    scan_offset = offset + header_bytes + info.payload_bytes;
    try {
      if (view.minor_ >= kV2MinorCrc && block_crc(bytes, info) != info.crc) {
        TQUAD_THROW("TQTR v2 block CRC mismatch");
      }
      // Trial-decode so a salvaged view never throws downstream (v2.0 has
      // no CRC, and even a CRC-clean block could carry a writer-side lie).
      view.decode_payload(info, trial);
      if (info.first_retired < prev_last_retired) {
        TQUAD_THROW("TQTR v2 block retired counts out of order");
      }
    } catch (const Error& err) {
      drop(offset, info.record_count, err.what());
      continue;
    }
    prev_last_retired = info.last_retired;
    ++rep.blocks_recovered;
    rep.records_recovered += info.record_count;
    view.blocks_.push_back(info);
  }

  view.record_count_ = rep.records_recovered;
  // An unfinished file still has the placeholder zero here; best effort is
  // "the trace ends right after its last surviving record".
  view.total_retired_ = fields.total_retired != 0
                            ? fields.total_retired
                            : (view.blocks_.empty()
                                   ? 0
                                   : view.blocks_.back().last_retired + 1);
  return view;
}

const BlockInfo& TraceV2View::block(std::size_t i) const {
  TQUAD_CHECK(i < blocks_.size(), "block index out of range");
  return blocks_[i];
}

std::vector<Record> TraceV2View::decode_block(std::size_t i) const {
  std::vector<Record> records;
  decode_block(i, records);
  return records;
}

void TraceV2View::decode_block(std::size_t i, std::vector<Record>& out) const {
  const BlockInfo& info = block(i);
  if (minor_ >= kV2MinorCrc && block_crc(bytes_, info) != info.crc) {
    TQUAD_THROW("TQTR v2 block CRC mismatch");
  }
  decode_payload(info, out);
}

void TraceV2View::decode_payload(const BlockInfo& info,
                                 std::vector<Record>& records) const {
  wire::ByteReader reader(bytes_.subspan(
      info.file_offset + block_header_bytes(minor_), info.payload_bytes));
  records.clear();
  records.reserve(info.record_count);

  std::uint64_t prev_retired = info.first_retired;
  std::uint64_t prev_ea[4] = {0, 0, 0, 0};
  std::uint32_t prev_pc = 0;
  std::uint16_t prev_kernel = 0;
  std::uint16_t prev_func = 0;
  for (std::uint32_t n = 0; n < info.record_count; ++n) {
    const std::uint8_t tag = reader.u8();
    Record record{};
    record.kind = static_cast<EventKind>(tag & 0x3);
    record.flags = (tag >> 2) & 0x3;
    const std::uint8_t code = (tag >> 4) & 0x7;
    if (code == kSizeLiteral) {
      record.size = reader.u8();
    } else if (record.kind == EventKind::kRead || record.kind == EventKind::kWrite) {
      record.size = kAccessSizes[code];
    } else if (code == 0) {
      record.size = 0;
    } else {
      TQUAD_THROW("TQTR v2 record with bad size code");
    }
    record.retired = apply_delta(prev_retired, reader.varint());
    const auto kind_index = static_cast<std::size_t>(record.kind);
    record.ea = apply_delta(prev_ea[kind_index], reader.varint());
    const std::uint64_t pc = apply_delta(prev_pc, reader.varint());
    if (pc > 0xffffffffull) TQUAD_THROW("TQTR v2 record pc out of range");
    record.pc = static_cast<std::uint32_t>(pc);
    if (tag & kTagCtxRepeat) {
      record.kernel = prev_kernel;
      record.func = prev_func;
    } else {
      const std::uint64_t kernel = reader.varint();
      const std::uint64_t func = reader.varint();
      if (kernel > 0xffffull || func > 0xffffull) {
        TQUAD_THROW("TQTR v2 record field out of range");
      }
      record.kernel = static_cast<std::uint16_t>(kernel);
      record.func = static_cast<std::uint16_t>(func);
    }
    if (record.kernel != kNoKernel16 && record.kernel >= kernel_count_) {
      TQUAD_THROW("TQTR v2 record kernel id out of range");
    }
    if (((info.kernel_bloom >> (record.kernel & 63)) & 1) == 0) {
      TQUAD_THROW("TQTR v2 block bloom disagrees with its records");
    }
    prev_retired = record.retired;
    prev_ea[kind_index] = record.ea;
    prev_pc = record.pc;
    prev_kernel = record.kernel;
    prev_func = record.func;
    records.push_back(record);
  }
  if (reader.remaining() != 0) {
    TQUAD_THROW("TQTR v2 block payload has trailing bytes");
  }
  if (records.front().retired != info.first_retired ||
      records.back().retired != info.last_retired) {
    TQUAD_THROW("TQTR v2 block header retired range disagrees with its records");
  }
}

Trace TraceV2View::decode_all() const {
  Trace trace;
  trace.kernel_count = kernel_count_;
  trace.total_retired = total_retired_;
  trace.records.reserve(record_count_);
  std::vector<Record> records;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    decode_block(b, records);
    trace.records.insert(trace.records.end(), records.begin(), records.end());
  }
  return trace;
}

std::uint64_t aggregate_blocks(const TraceV2View& view, std::size_t lo,
                               std::size_t hi, tquad::BandwidthRecorder& recorder) {
  TQUAD_CHECK(lo <= hi && hi <= view.block_count(), "block range out of bounds");
  TQUAD_CHECK(recorder.kernel_count() == view.kernel_count(),
              "recorder kernel count differs from the trace");
  std::uint64_t decoded = 0;
  std::vector<Record> records;
  for (std::size_t b = lo; b < hi; ++b) {
    view.decode_block(b, records);
    decoded += records.size();
    for (const Record& record : records) {
      if (record.kind != EventKind::kRead && record.kind != EventKind::kWrite) {
        continue;
      }
      if (record.kernel == kNoKernel16 || (record.flags & kFlagPrefetch)) continue;
      recorder.on_access(record.kernel, record.retired, record.size,
                         record.kind == EventKind::kRead,
                         (record.flags & kFlagStackArea) != 0);
    }
  }
  return decoded;
}

}  // namespace tq::trace
