// Robustness fuzzing: every decoder in the repository must reject malformed
// input with tq::Error — never crash, never accept garbage silently.
// Deterministic seeds keep the suite reproducible.
#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "gasm/asm_parser.hpp"
#include "gasm/builder.hpp"
#include "isa/isa.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "vm/program.hpp"
#include "wfs/wav.hpp"

namespace tq {
namespace {

std::vector<std::uint8_t> random_bytes(SplitMix64& rng, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

/// Strict decode of a whole TQTR image, the way every reader opens one.
trace::Trace decode_trace(std::span<const std::uint8_t> bytes) {
  return trace::TraceV2View::open(bytes).decode_all();
}

/// A small, valid, multi-block TQTR v2 image with a known layout (block
/// capacity 64, v2.1 with per-block CRC by default), used as the seed for
/// mutation/corruption fuzzing.
std::vector<std::uint8_t> valid_v2_image(std::uint32_t minor = trace::kV2MinorCrc) {
  trace::TraceV2Writer writer(5, 64, minor);
  std::uint64_t total_retired = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    trace::Record record{};
    record.retired = 7 * i;
    record.ea = 0x1000'0000 + 8 * (i % 32);
    record.pc = static_cast<std::uint32_t>(i % 11);
    record.kernel = static_cast<std::uint16_t>(i % 5);
    record.func = record.kernel;
    record.kind = (i % 2) ? trace::EventKind::kWrite : trace::EventKind::kRead;
    record.size = 8;
    writer.add(record);
    total_retired = record.retired;
  }
  return writer.finish(total_retired);
}

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, IsaDecodeNeverCrashes) {
  SplitMix64 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const auto bytes = random_bytes(rng, rng.next_below(256));
    try {
      const auto code = isa::decode(bytes);
      // If it decoded, every opcode must be in range.
      for (const auto& ins : code) {
        EXPECT_LT(static_cast<unsigned>(ins.op),
                  static_cast<unsigned>(isa::Op::kOpCount_));
      }
    } catch (const Error&) {
      // rejection is fine
    }
  }
}

TEST_P(DecoderFuzz, ProgramDeserializeNeverCrashes) {
  SplitMix64 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const auto bytes = random_bytes(rng, rng.next_below(512));
    try {
      (void)vm::Program::deserialize(bytes);
    } catch (const Error&) {
    }
  }
}

TEST_P(DecoderFuzz, TraceDeserializeNeverCrashes) {
  SplitMix64 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const auto bytes = random_bytes(rng, rng.next_below(512));
    try {
      (void)decode_trace(bytes);
    } catch (const Error&) {
    }
  }
}

TEST_P(DecoderFuzz, TraceV2OpenNeverCrashes) {
  // Random bytes behind a valid magic + version prefix, so the fuzz actually
  // exercises the v2 header/index/block validation instead of bouncing off
  // the magic check.
  SplitMix64 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    auto bytes = random_bytes(rng, 8 + rng.next_below(512));
    bytes[0] = 'T'; bytes[1] = 'Q'; bytes[2] = 'T'; bytes[3] = 'R';
    // Alternate between v2.0 and v2.1 header prefixes (version word packs
    // major|minor little-endian), so both block-header layouts get fuzzed.
    bytes[4] = 2; bytes[5] = 0;
    bytes[6] = static_cast<std::uint8_t>(round % 2); bytes[7] = 0;
    try {
      const trace::TraceV2View view = trace::TraceV2View::open(bytes);
      for (std::size_t b = 0; b < view.block_count(); ++b) {
        (void)view.decode_block(b);
      }
    } catch (const Error&) {
    }
    try {
      (void)trace::TraceV2View::salvage(bytes);
    } catch (const Error&) {
    }
  }
}

TEST_P(DecoderFuzz, WavDecodeNeverCrashes) {
  SplitMix64 rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const auto bytes = random_bytes(rng, rng.next_below(256));
    try {
      (void)wfs::wav_decode(bytes);
    } catch (const Error&) {
    }
  }
}

TEST_P(DecoderFuzz, AssemblerNeverCrashesOnGarbageText) {
  SplitMix64 rng(GetParam());
  const char charset[] = " \t\n,.:;[]+-?rf0123456789abcdefghijklmnopqrstuvwxyz";
  for (int round = 0; round < 100; ++round) {
    std::string source;
    const std::size_t length = rng.next_below(200);
    for (std::size_t i = 0; i < length; ++i) {
      source += charset[rng.next_below(sizeof charset - 1)];
    }
    try {
      (void)gasm::assemble(source);
    } catch (const Error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Values(11, 22, 33, 44));

/// Bit-flip fuzzing: start from VALID serialised artefacts and corrupt them;
/// decode must reject or produce internally consistent data.
TEST(DecoderFuzzMutation, FlippedProgramImages) {
  gasm::ProgramBuilder prog;
  auto& f = prog.begin_function("main");
  f.movi(gasm::R{1}, 7);
  f.halt();
  const auto valid = prog.build("main").serialize();
  SplitMix64 rng(5);
  for (int round = 0; round < 300; ++round) {
    auto mutated = valid;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    try {
      const vm::Program program = vm::Program::deserialize(mutated);
      // A surviving image passed validate(): structurally sound by contract.
      EXPECT_GE(program.functions().size(), 1u);
    } catch (const Error&) {
    }
  }
}

TEST(DecoderFuzzMutation, FlippedV2Traces) {
  const auto valid = valid_v2_image();
  SplitMix64 rng(6);
  for (int round = 0; round < 300; ++round) {
    auto mutated = valid;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    try {
      const trace::Trace t = decode_trace(mutated);
      // A surviving image must still be internally consistent: declared
      // counts honoured, every record well-formed.
      for (const trace::Record& record : t.records) {
        EXPECT_LE(static_cast<unsigned>(record.kind), 3u);
        EXPECT_TRUE(record.kernel == trace::kNoKernel16 ||
                    record.kernel < t.kernel_count);
      }
    } catch (const Error&) {
    }
  }
}

TEST(DecoderFuzzMutation, TruncatedV2AtEveryLength) {
  // v2 requires the blocks to end exactly at the index and the index to end
  // exactly at EOF, so every strict prefix must be rejected.
  const auto valid = valid_v2_image();
  EXPECT_NO_THROW((void)decode_trace(valid));
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(valid.data(), cut);
    EXPECT_THROW((void)decode_trace(prefix), Error) << cut;
  }
}

TEST(DecoderFuzzMutation, LyingV2HeadersAreRejected) {
  const auto valid = valid_v2_image();
  const auto patch = [&](std::size_t offset, std::uint64_t value, int bytes) {
    auto image = valid;
    ASSERT_LE(offset + bytes, image.size());
    std::memcpy(image.data() + offset, &value, bytes);
    EXPECT_THROW((void)decode_trace(image), Error)
        << "patch at " << offset;
  };
  std::uint64_t index_offset;
  std::memcpy(&index_offset, valid.data() + 32, 8);

  // File header: record count, bogus index offsets (in and out of bounds).
  patch(24, 7, 8);
  patch(32, index_offset + 1, 8);
  patch(32, valid.size() + 100, 8);
  patch(32, 0, 8);
  // First block header at offset 40: record count, payload bytes,
  // last retired count, kernel bloom, the v2.1 CRC itself, and the reserved
  // word — all lies about the payload.
  patch(40, 63, 4);
  patch(40, 0, 4);
  patch(44, 11, 4);
  patch(56, 0xdeadull, 8);
  patch(64, 0, 8);
  patch(72, 0xbadc0deull, 4);
  patch(76, 1, 4);
  // Index entries: block offset and starting retired count must agree with
  // the block chain.
  patch(index_offset + 4, 41, 8);
  patch(index_offset + 12, 3, 8);
}

TEST(DecoderFuzzMutation, CorruptV2VarintsAreRejected) {
  // Stomp the first block's payload with continuation bytes: the reader must
  // reject the unterminated/overlong varint, not read past the block. The
  // v2.0 image (no CRC, payload at 72) proves the varint reader itself
  // rejects; the v2.1 image (payload at 80) is caught by the CRC first.
  auto v20 = valid_v2_image(0);
  for (std::size_t i = 0; i < 16; ++i) v20[72 + 1 + i] = 0xff;
  EXPECT_THROW((void)decode_trace(v20), Error);
  auto v21 = valid_v2_image();
  for (std::size_t i = 0; i < 16; ++i) v21[80 + 1 + i] = 0xff;
  EXPECT_THROW((void)decode_trace(v21), Error);
}

// ---- salvage-mode corpora ---------------------------------------------------------
// Salvage is deliberately permissive, so it gets the adversarial corpus too:
// whatever the damage, it must either throw tq::Error or return a view whose
// every block decodes — never crash, never hand back undecodable blocks.

TEST(DecoderFuzzMutation, SalvageSurvivesBitFlips) {
  const auto valid = valid_v2_image();
  SplitMix64 rng(7);
  for (int round = 0; round < 300; ++round) {
    auto mutated = valid;
    const std::size_t flips = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    try {
      trace::SalvageReport report;
      const trace::TraceV2View view = trace::TraceV2View::salvage(mutated, &report);
      for (std::size_t b = 0; b < view.block_count(); ++b) {
        EXPECT_NO_THROW((void)view.decode_block(b)) << "round " << round;
      }
      EXPECT_EQ(report.blocks_recovered, view.block_count());
    } catch (const Error&) {
      // header damage can make the whole file unrecoverable; that's fine
    }
  }
}

TEST(DecoderFuzzMutation, SalvageSurvivesTruncationAtEveryLength) {
  const auto valid = valid_v2_image();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(valid.begin(),
                                           valid.begin() + static_cast<long>(cut));
    try {
      const trace::TraceV2View view = trace::TraceV2View::salvage(prefix);
      for (std::size_t b = 0; b < view.block_count(); ++b) {
        EXPECT_NO_THROW((void)view.decode_block(b)) << "cut " << cut;
      }
    } catch (const Error&) {
    }
  }
}

TEST(DecoderFuzzMutation, TruncatedWavAtEveryLength) {
  const auto valid = wfs::wav_encode(wfs::make_test_signal(64));
  for (std::size_t cut = 0; cut < valid.size(); cut += 3) {
    std::vector<std::uint8_t> truncated(valid.begin(),
                                        valid.begin() + static_cast<long>(cut));
    try {
      const wfs::WavData data = wfs::wav_decode(truncated);
      // Only a prefix that still covers the declared data chunk may succeed.
      EXPECT_LE(wfs::kWavHeaderSize + data.samples.size() * 2, cut);
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace tq
