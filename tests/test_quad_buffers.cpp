// Buffer-level data maps: ranged UnMA popcounts and the report over named
// globals, including the wfs buffer-signature checks the paper's Table II
// discussion rests on.
#include <gtest/gtest.h>

#include "gasm/builder.hpp"
#include "session/session.hpp"
#include "quad/buffer_report.hpp"
#include "support/address_set.hpp"
#include "wfs/runner.hpp"

namespace tq::quad {
namespace {

using gasm::ProgramBuilder;
using gasm::R;

// ---- AddressSet::count_range -------------------------------------------------

TEST(AddressSetRange, CountsWithinWindow) {
  AddressSet set;
  set.insert_range(100, 50);   // 100..149
  set.insert_range(300, 10);   // 300..309
  EXPECT_EQ(set.count_range(0, 1000), 60u);
  EXPECT_EQ(set.count_range(100, 50), 50u);
  EXPECT_EQ(set.count_range(120, 10), 10u);
  EXPECT_EQ(set.count_range(140, 50), 10u);  // 140..149 only
  EXPECT_EQ(set.count_range(150, 100), 0u);
  EXPECT_EQ(set.count_range(295, 10), 5u);   // 300..304
}

TEST(AddressSetRange, CrossesPagesAndWords) {
  AddressSet set;
  const std::uint64_t near_page = AddressSet::kPageSize - 20;
  set.insert_range(near_page, 40);  // straddles the page boundary
  EXPECT_EQ(set.count_range(near_page, 40), 40u);
  EXPECT_EQ(set.count_range(near_page + 10, 40), 30u);
  EXPECT_EQ(set.count_range(0, 2 * AddressSet::kPageSize), 40u);
  // Word-straddling window.
  set.insert_range(60, 10);
  EXPECT_EQ(set.count_range(62, 6), 6u);
}

TEST(AddressSetRange, EmptyAndZeroSize) {
  AddressSet set;
  EXPECT_EQ(set.count_range(0, 100), 0u);
  set.insert_range(5, 5);
  EXPECT_EQ(set.count_range(5, 0), 0u);
}

// ---- buffer report -------------------------------------------------------------

TEST(BufferReport, AttributesAccessesToNamedBuffers) {
  ProgramBuilder prog;
  const auto in_buf = prog.alloc_global("input", 128);
  const auto out_buf = prog.alloc_global("output", 64);
  auto& worker = prog.begin_function("worker");
  worker.movi(R{1}, static_cast<std::int64_t>(in_buf));
  worker.movi(R{4}, static_cast<std::int64_t>(out_buf));
  worker.count_loop_imm(R{2}, 0, 8, [&] {  // read 64 of input's 128 bytes
    worker.shli(R{3}, R{2}, 3);
    worker.add(R{3}, R{3}, R{1});
    worker.load(R{5}, R{3}, 0, 8);
    worker.shli(R{3}, R{2}, 2);             // write 32 of output's 64 bytes
    worker.add(R{3}, R{3}, R{4});
    worker.store(R{3}, 0, R{5}, 4);
  });
  worker.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("worker");
  main_fn.halt();
  vm::Program program = prog.build("main");
  ASSERT_EQ(program.globals().size(), 2u);

  vm::HostEnv host;
  session::ProfileSession session(program);
  QuadTool tool(program);
  session.add_consumer(tool);
  session.run_live(host);

  const auto rows = buffer_report(tool, program);
  const auto worker_id = *program.find("worker");
  const BufferRow* input_row = nullptr;
  const BufferRow* output_row = nullptr;
  for (const auto& row : rows) {
    if (row.kernel == worker_id && row.buffer == "input") input_row = &row;
    if (row.kernel == worker_id && row.buffer == "output") output_row = &row;
  }
  ASSERT_NE(input_row, nullptr);
  ASSERT_NE(output_row, nullptr);
  EXPECT_EQ(input_row->read_unma, 64u);
  EXPECT_EQ(input_row->write_unma, 0u);
  EXPECT_DOUBLE_EQ(input_row->read_coverage, 0.5);
  EXPECT_EQ(output_row->write_unma, 32u);
  EXPECT_DOUBLE_EQ(output_row->write_coverage, 0.5);
}

TEST(BufferReport, GlobalsSurviveImageRoundTrip) {
  ProgramBuilder prog;
  prog.alloc_global("table", 256, 64);
  auto& main_fn = prog.begin_function("main");
  main_fn.halt();
  const vm::Program program = prog.build("main");
  const vm::Program back = vm::Program::deserialize(program.serialize());
  ASSERT_EQ(back.globals().size(), 1u);
  EXPECT_EQ(back.globals()[0].name, "table");
  EXPECT_EQ(back.globals()[0].addr, program.globals()[0].addr);
  EXPECT_EQ(back.globals()[0].size, 256u);
}

TEST(BufferReport, WfsBufferSignatures) {
  // The buffer-level view behind the paper's Table II narrative.
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  QuadTool tool(run.artifacts.program);
  session.add_consumer(tool);
  session.run_live(run.host);
  const auto rows = buffer_report(tool, run.artifacts.program);
  auto find = [&](const char* kernel, const char* buffer) -> const BufferRow* {
    for (const auto& row : rows) {
      if (row.kernel_name == kernel && row.buffer == buffer) return &row;
    }
    return nullptr;
  };
  // AudioIo_setFrames writes the frame store completely, byte for byte.
  const BufferRow* frames = find("AudioIo_setFrames", "frames");
  ASSERT_NE(frames, nullptr);
  EXPECT_DOUBLE_EQ(frames->write_coverage, 1.0);
  // wav_store reads the whole frame store and never writes it.
  const BufferRow* store_frames = find("wav_store", "frames");
  ASSERT_NE(store_frames, nullptr);
  EXPECT_DOUBLE_EQ(store_frames->read_coverage, 1.0);
  EXPECT_EQ(store_frames->write_unma, 0u);
  // fft1d works in the spectra, not in the audio frame store.
  EXPECT_EQ(find("fft1d", "frames"), nullptr);
  const BufferRow* fft_x = find("fft1d", "X");
  ASSERT_NE(fft_x, nullptr);
  EXPECT_GT(fft_x->read_coverage, 0.99);
  // cmult consumes the filter table ffw produced.
  const BufferRow* cmult_h = find("cmult", "H");
  ASSERT_NE(cmult_h, nullptr);
  EXPECT_DOUBLE_EQ(cmult_h->read_coverage, 1.0);
  EXPECT_EQ(cmult_h->write_unma, 0u);
}

TEST(BufferReport, TableRendersAndFilters) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  QuadTool tool(run.artifacts.program);
  session.add_consumer(tool);
  session.run_live(run.host);
  const std::string all = buffer_table(tool, run.artifacts.program).to_ascii();
  EXPECT_NE(all.find("fft1d"), std::string::npos);
  EXPECT_NE(all.find("frames"), std::string::npos);
  const std::string filtered =
      buffer_table(tool, run.artifacts.program, "fft1d").to_ascii();
  EXPECT_NE(filtered.find("fft1d"), std::string::npos);
  EXPECT_EQ(filtered.find("wav_store"), std::string::npos);
}

}  // namespace
}  // namespace tq::quad
