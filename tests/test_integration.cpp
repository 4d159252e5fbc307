// Cross-tool integration: multiple tools composed on one engine, and the
// consistency invariants that must hold between independent tools measuring
// the same run.
#include <gtest/gtest.h>

#include "gprofsim/gprof_tool.hpp"
#include "session/session.hpp"
#include "quad/quad_tool.hpp"
#include "tquad/phase.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"
#include "wfs/runner.hpp"
#include "workloads/workloads.hpp"

namespace tq {
namespace {

TEST(Integration, ThreeToolsComposeOnOneEngine) {
  // Pin runs one tool per process; a ProfileSession multiplexes — all three
  // tools consume the same attributed event stream and must observe
  // identical, correct data from a single run.
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  tquad::TQuadTool tq_tool(run.artifacts.program, tquad::Options{.slice_interval = 1000});
  quad::QuadTool quad_tool(run.artifacts.program);
  gprof::GprofTool gprof_tool(run.artifacts.program);
  session.add_consumer(tq_tool);
  session.add_consumer(quad_tool);
  session.add_consumer(gprof_tool);
  const vm::RunOutcome result = session.run_live(run.host);

  EXPECT_EQ(tq_tool.total_retired(), result.retired);
  EXPECT_EQ(gprof_tool.total_retired(), result.retired);
  // The output is still correct with three tools attached.
  const wfs::GoldenResult golden = wfs::run_golden(cfg, run.input);
  EXPECT_EQ(run.decode_output().samples, golden.output);
}

TEST(Integration, TquadAndQuadAgreeOnBytes) {
  // tQUAD's stack-included read/write totals per kernel must equal QUAD's
  // IN bytes / "bytes written" view of the same run: both count the same
  // accesses through independent data paths.
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  tquad::TQuadTool tq_tool(run.artifacts.program, tquad::Options{.slice_interval = 5000});
  quad::QuadTool quad_tool(run.artifacts.program);
  session.add_consumer(tq_tool);
  session.add_consumer(quad_tool);
  session.run_live(run.host);

  for (std::uint32_t k = 0; k < tq_tool.kernel_count(); ++k) {
    if (!tq_tool.reported(k)) continue;
    const auto& bw = tq_tool.bandwidth().kernel(k).totals;
    EXPECT_EQ(bw.read_incl, quad_tool.including_stack(k).in_bytes)
        << tq_tool.kernel_name(k);
    EXPECT_EQ(bw.read_excl, quad_tool.excluding_stack(k).in_bytes)
        << tq_tool.kernel_name(k);
  }
}

TEST(Integration, GprofAndTquadAgreeOnCallsAndInstructions) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  tquad::TQuadTool tq_tool(run.artifacts.program, tquad::Options{});
  gprof::GprofTool gprof_tool(run.artifacts.program);
  session.add_consumer(tq_tool);
  session.add_consumer(gprof_tool);
  session.run_live(run.host);
  for (std::uint32_t k = 0; k < tq_tool.kernel_count(); ++k) {
    if (!tq_tool.reported(k)) continue;
    EXPECT_EQ(tq_tool.activity(k).calls, gprof_tool.calls(k))
        << tq_tool.kernel_name(k);
  }
}

TEST(Integration, InstructionConservation) {
  // Attributed + unattributed instruction counts cover the whole run.
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  tquad::TQuadTool tool(run.artifacts.program, tquad::Options{});
  session.add_consumer(tool);
  const vm::RunOutcome result = session.run_live(run.host);
  std::uint64_t attributed = 0;
  for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
    attributed += tool.activity(k).instructions;
  }
  EXPECT_EQ(attributed + tool.unattributed_instructions(), result.retired);
}

TEST(Integration, ByteConservationAgainstGroundTruth) {
  // The sum of per-kernel attributed bytes equals an independent raw count
  // of all memory traffic (the interpreter's raw event stream, no tools).
  const workloads::StreamArtifacts art = workloads::build_stream(256, 2);

  struct RawCounter : vm::EventSink {
    std::uint64_t read_bytes = 0;
    std::uint64_t write_bytes = 0;
    void on_enter(std::uint32_t, std::uint64_t) override {}
    void on_tick_span(std::uint32_t, std::uint64_t, std::uint64_t,
                      std::uint64_t) override {}
    void on_access(std::uint32_t, std::uint32_t, std::uint64_t, std::uint64_t,
                   std::uint32_t size, bool is_read, bool,
                   bool is_prefetch) override {
      if (is_prefetch) return;
      (is_read ? read_bytes : write_bytes) += size;
    }
    void on_ret(std::uint32_t, std::uint32_t, std::uint64_t) override {}
  } raw;
  {
    vm::HostEnv host;
    vm::Machine machine(art.program, host);
    machine.run(raw);
  }

  vm::HostEnv host;
  session::SessionConfig config;
  config.library_policy = tquad::LibraryPolicy::kTrack;
  session::ProfileSession session(art.program, config);
  tquad::TQuadTool tool(art.program,
                        tquad::Options{.library_policy = tquad::LibraryPolicy::kTrack});
  session.add_consumer(tool);
  session.run_live(host);
  std::uint64_t attributed_reads = 0;
  std::uint64_t attributed_writes = 0;
  for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
    attributed_reads += tool.bandwidth().kernel(k).totals.read_incl;
    attributed_writes += tool.bandwidth().kernel(k).totals.write_incl;
  }
  EXPECT_EQ(attributed_reads, raw.read_bytes);
  EXPECT_EQ(attributed_writes, raw.write_bytes);
}

TEST(Integration, QuadOutNeverExceedsConsumedBytes) {
  // Global invariant: sum of OUT bytes over producers == sum over bindings
  // == bytes read from produced locations <= total IN bytes.
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  quad::QuadTool tool(run.artifacts.program);
  session.add_consumer(tool);
  session.run_live(run.host);
  std::uint64_t total_out = 0;
  std::uint64_t total_in = 0;
  for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
    total_out += tool.including_stack(k).out_bytes;
    total_in += tool.including_stack(k).in_bytes;
  }
  std::uint64_t binding_sum = 0;
  for (const auto& edge : tool.bindings()) binding_sum += edge.bytes;
  EXPECT_EQ(total_out, binding_sum);
  EXPECT_LE(total_out, total_in);
}

TEST(Integration, PhasesCoverEveryActiveKernelOnWfs) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  tquad::TQuadTool tool(run.artifacts.program, tquad::Options{.slice_interval = 500});
  session.add_consumer(tool);
  session.run_live(run.host);
  const auto phases = tquad::detect_phases(tool);
  std::size_t member_count = 0;
  for (const auto& phase : phases) member_count += phase.kernels.size();
  std::size_t active_count = 0;
  for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
    if (tool.reported(k) && tool.bandwidth().kernel(k).active_slices() > 0) {
      ++active_count;
    }
  }
  EXPECT_EQ(member_count, active_count);
  // wav_store ends up in a phase of its own even at tiny scale.
  bool store_alone = false;
  for (const auto& phase : phases) {
    if (phase.kernels.size() == 1 &&
        tool.kernel_name(phase.kernels[0]) == "wav_store") {
      store_alone = true;
    }
  }
  EXPECT_TRUE(store_alone);
}

}  // namespace
}  // namespace tq
