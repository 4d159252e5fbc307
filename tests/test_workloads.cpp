// The synthetic workload generators: computational correctness (host
// reference vs guest memory) and the expected memory-behaviour signatures
// under tQUAD.
#include <gtest/gtest.h>

#include "session/session.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"
#include "vm/machine.hpp"
#include "workloads/workloads.hpp"

namespace tq::workloads {
namespace {

TEST(StreamWorkload, ComputesStreamSemantics) {
  const std::uint32_t n = 64;
  StreamArtifacts art = build_stream(n, 2);
  vm::HostEnv host;
  vm::Machine machine(art.program, host);
  machine.run();
  // Host reference: the four kernels applied twice.
  std::vector<double> a(n, 2.0), b(n, 0.5), c(n, 0.0);
  for (std::uint32_t iter = 0; iter < 2; ++iter) {
    c = a;
    for (auto& v : b) v = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) b[i] = art.scalar * c[i];
    for (std::uint32_t i = 0; i < n; ++i) c[i] = a[i] + b[i];
    for (std::uint32_t i = 0; i < n; ++i) a[i] = b[i] + art.scalar * c[i];
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(machine.memory().load_f64(art.a_addr + 8 * i), a[i]) << i;
    EXPECT_DOUBLE_EQ(machine.memory().load_f64(art.b_addr + 8 * i), b[i]) << i;
    EXPECT_DOUBLE_EQ(machine.memory().load_f64(art.c_addr + 8 * i), c[i]) << i;
  }
}

TEST(StreamWorkload, CopyKernelIsBandwidthDominant) {
  StreamArtifacts art = build_stream(512, 1);
  vm::HostEnv host;
  session::ProfileSession session(art.program);
  tquad::TQuadTool tool(art.program, tquad::Options{.slice_interval = 200});
  session.add_consumer(tool);
  session.run_live(host);
  const auto copy_id = *art.program.find("stream_copy");
  const auto scale_id = *art.program.find("stream_scale");
  const auto copy_stats =
      tquad::bandwidth_stats(tool.bandwidth().kernel(copy_id), 200);
  const auto scale_stats =
      tquad::bandwidth_stats(tool.bandwidth().kernel(scale_id), 200);
  // Block moves shift far more bytes per instruction than scalar loops.
  EXPECT_GT(copy_stats.max_rw_incl, 4.0 * scale_stats.max_rw_incl);
}

class MatmulVariants : public ::testing::TestWithParam<bool> {};

TEST_P(MatmulVariants, MatchesHostReference) {
  const bool tiled = GetParam();
  const std::uint32_t n = 16;
  MatmulArtifacts art = build_matmul(n, tiled, 4);
  vm::HostEnv host;
  vm::Machine machine(art.program, host);
  machine.run();
  const std::vector<double> want = matmul_reference(n);
  for (std::uint32_t i = 0; i < n * n; ++i) {
    EXPECT_DOUBLE_EQ(machine.memory().load_f64(art.c_addr + 8 * i), want[i])
        << (tiled ? "tiled" : "naive") << " element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(NaiveAndTiled, MatmulVariants, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "tiled" : "naive";
                         });

TEST(MatmulWorkload, NaiveAndTiledMoveSameDataDifferently) {
  // Same arithmetic, same result; the tiled variant performs the identical
  // number of FLOPs but touches C more often (read-modify-write per tile)
  // while keeping a smaller instantaneous working set.
  const std::uint32_t n = 16;
  auto run_tool = [&](bool tiled) {
    MatmulArtifacts art = build_matmul(n, tiled, 4);
    vm::HostEnv host;
    session::ProfileSession session(art.program);
    auto tool = std::make_unique<tquad::TQuadTool>(
        art.program, tquad::Options{.slice_interval = 1'000'000});
    session.add_consumer(*tool);
    session.run_live(host);
    const auto id = *art.program.find(tiled ? "matmul_tiled" : "matmul_naive");
    return tool->bandwidth().kernel(id).totals;
  };
  const auto naive = run_tool(false);
  const auto tiled = run_tool(true);
  // Reads of A and B are identical in count (n^3 each side)...
  EXPECT_EQ(naive.read_excl, 2u * 16 * 16 * 16 * 8);
  // ...but the tiled variant re-reads and re-writes C per k-tile.
  EXPECT_GT(tiled.read_excl, naive.read_excl);
  EXPECT_GT(tiled.write_excl, naive.write_excl);
}

TEST(ChaseWorkload, WalksTheCycleCorrectly) {
  ChaseArtifacts art = build_chase(256, 10'000);
  vm::HostEnv host;
  vm::Machine machine(art.program, host);
  machine.run();
  const std::uint64_t final_node =
      (machine.cpu().regs[1] - art.nodes_addr) / 8;
  EXPECT_EQ(final_node, art.expected_final);
}

TEST(ChaseWorkload, CycleVisitsEveryNodeOnce) {
  // With hops == nodes the walk returns to the start (single cycle).
  const std::uint32_t nodes = 128;
  ChaseArtifacts art = build_chase(nodes, nodes);
  vm::HostEnv host;
  vm::Machine machine(art.program, host);
  machine.run();
  EXPECT_EQ(machine.cpu().regs[1], art.nodes_addr);
}

TEST(ChaseWorkload, LowBytesPerInstructionSignature) {
  ChaseArtifacts art = build_chase(1024, 50'000);
  vm::HostEnv host;
  session::ProfileSession session(art.program);
  tquad::TQuadTool tool(art.program, tquad::Options{.slice_interval = 1000});
  session.add_consumer(tool);
  session.run_live(host);
  const auto id = *art.program.find("chase");
  const auto stats = tquad::bandwidth_stats(tool.bandwidth().kernel(id), 1000);
  // One 8-byte read per ~4-instruction hop: ~2 B/instr, far below streaming.
  EXPECT_GT(stats.avg_read_incl, 1.0);
  EXPECT_LT(stats.avg_read_incl, 3.0);
  EXPECT_LT(stats.avg_write_incl, 0.01);
}

TEST(HistogramWorkload, CountsMatchHostReference) {
  HistogramArtifacts art = build_histogram(64, 20'000);
  vm::HostEnv host;
  vm::Machine machine(art.program, host);
  machine.run();
  std::uint64_t total = 0;
  for (std::uint32_t bucket = 0; bucket < art.buckets; ++bucket) {
    const std::uint64_t count =
        machine.memory().load(art.buckets_addr + 8 * bucket, 8);
    EXPECT_EQ(count, art.expected[bucket]) << "bucket " << bucket;
    total += count;
  }
  EXPECT_EQ(total, art.samples);
}

TEST(HistogramWorkload, TouchesOnlyTheBucketArray) {
  HistogramArtifacts art = build_histogram(32, 5'000);
  vm::HostEnv host;
  session::ProfileSession session(art.program);
  tquad::TQuadTool tool(art.program, tquad::Options{.slice_interval = 100'000});
  session.add_consumer(tool);
  session.run_live(host);
  const auto id = *art.program.find("histogram");
  const auto& totals = tool.bandwidth().kernel(id).totals;
  // Read-modify-write: 8 bytes in, 8 bytes out per sample (plus the ret).
  EXPECT_EQ(totals.write_excl, 5'000u * 8);
  EXPECT_EQ(totals.read_excl, 5'000u * 8);
}

TEST(HashJoinWorkload, JoinMatchesHostReference) {
  HashJoinArtifacts art = build_hashjoin(64, 96);
  vm::HostEnv host;
  vm::Machine machine(art.program, host);
  machine.run();
  EXPECT_EQ(machine.memory().load(art.result_addr, 8), art.expected_sum);
  EXPECT_EQ(machine.memory().load(art.result_addr + 8, 8), art.expected_matches);
  // Roughly half the probe keys come from the build side: both the hit and
  // the miss path of the probe loop must have executed.
  EXPECT_GT(art.expected_matches, 0u);
  EXPECT_LT(art.expected_matches, art.probe_rows);
}

TEST(HashJoinWorkload, TableIsAtMostHalfFull) {
  HashJoinArtifacts art = build_hashjoin(100, 10);
  // Linear probing terminates because slots >= 2 * build_rows (power of two).
  EXPECT_GE(art.slots, 2 * art.build_rows);
  EXPECT_EQ(art.slots & (art.slots - 1), 0u);
}

TEST(PhasedWorkload, AllFourPhasesMatchHostReference) {
  PhasedArtifacts art = build_phased(64, 3);
  vm::HostEnv host;
  vm::Machine machine(art.program, host);
  machine.run();
  for (std::uint32_t p = 0; p < PhasedArtifacts::kPhases; ++p) {
    for (std::uint32_t i = 0; i < art.elements; ++i) {
      EXPECT_EQ(machine.memory().load(art.buffer_addr[p] + 8 * i, 8),
                art.expected[p][i])
          << "phase " << p << " element " << i;
    }
  }
}

TEST(Workloads, BadParametersRejected) {
  EXPECT_DEATH((void)build_stream(12, 1), "multiple of 8");
  EXPECT_DEATH((void)build_matmul(15, true, 4), "multiple of the tile");
  EXPECT_DEATH((void)build_histogram(48, 10), "power of two");
  EXPECT_DEATH((void)build_chase(1, 10), "at least two nodes");
  EXPECT_DEATH((void)build_hashjoin(0, 10), "at least one build row");
  EXPECT_DEATH((void)build_hashjoin(10, 0), "at least one probe row");
  EXPECT_DEATH((void)build_phased(12, 1), "power of two");
  EXPECT_DEATH((void)build_phased(16, 0), "at least one pass");
  EXPECT_DEATH((void)build_phased(16, 1, 0), "nonzero");
}

}  // namespace
}  // namespace tq::workloads
