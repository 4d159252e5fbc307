// Task clustering: graph-level properties on synthetic topologies, then the
// wfs pipeline end to end.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "session/session.hpp"
#include "wfs/runner.hpp"

namespace tq::cluster {
namespace {

TEST(ClusterEdges, TwoCliquesSeparate) {
  // 0-1-2 heavily connected, 3-4-5 heavily connected, one thin bridge.
  std::vector<Edge> edges{
      {0, 1, 1000}, {1, 2, 900}, {0, 2, 800},
      {3, 4, 1000}, {4, 5, 900}, {3, 5, 800},
      {2, 3, 10},  // bridge
  };
  ClusterOptions options;
  options.target_clusters = 2;
  const Clustering result = cluster_edges(6, edges, {}, options);
  ASSERT_EQ(result.clusters.size(), 2u);
  EXPECT_EQ(result.cluster_of(0), result.cluster_of(1));
  EXPECT_EQ(result.cluster_of(0), result.cluster_of(2));
  EXPECT_EQ(result.cluster_of(3), result.cluster_of(4));
  EXPECT_EQ(result.cluster_of(3), result.cluster_of(5));
  EXPECT_NE(result.cluster_of(0), result.cluster_of(3));
  EXPECT_EQ(result.inter_bytes, 10u);
  EXPECT_EQ(result.intra_bytes, 1000u + 900 + 800 + 1000 + 900 + 800);
  EXPECT_GT(result.intra_fraction(), 0.99);
}

TEST(ClusterEdges, TargetOneMergesEverything) {
  std::vector<Edge> edges{{0, 1, 5}, {1, 2, 5}, {2, 3, 5}};
  ClusterOptions options;
  options.target_clusters = 1;
  const Clustering result = cluster_edges(4, edges, {}, options);
  ASSERT_EQ(result.clusters.size(), 1u);
  EXPECT_EQ(result.inter_bytes, 0u);
}

TEST(ClusterEdges, WeightCapPreventsMerging) {
  std::vector<Edge> edges{{0, 1, 100}, {1, 2, 90}, {0, 2, 80}};
  std::vector<std::uint64_t> weights{60, 60, 60};
  ClusterOptions options;
  options.target_clusters = 1;
  options.max_cluster_weight = 125;  // room for two kernels, never three
  const Clustering result = cluster_edges(3, edges, weights, options);
  EXPECT_EQ(result.clusters.size(), 2u);
  std::size_t largest = 0;
  for (const auto& cluster : result.clusters) {
    largest = std::max(largest, cluster.size());
  }
  EXPECT_EQ(largest, 2u);
}

TEST(ClusterEdges, NoiseFloorIgnoresThinEdges) {
  std::vector<Edge> edges{{0, 1, 2}, {2, 3, 500}};
  ClusterOptions options;
  options.target_clusters = 1;
  options.min_edge_bytes = 10;
  const Clustering result = cluster_edges(4, edges, {}, options);
  // 2-3 merge; 0-1 stays split (edge below the floor), isolated nodes absent.
  EXPECT_EQ(result.cluster_of(2), result.cluster_of(3));
  EXPECT_NE(result.cluster_of(0), result.cluster_of(1));
}

TEST(ClusterEdges, SelfLoopsAndIsolatedKernelsIgnored) {
  std::vector<Edge> edges{{0, 0, 999999}, {1, 2, 10}};
  ClusterOptions options;
  options.target_clusters = 1;
  const Clustering result = cluster_edges(5, edges, {}, options);
  // Kernel 0's self-loop does not appear; kernels 3,4 are not in the graph.
  EXPECT_EQ(result.cluster_of(3), SIZE_MAX);
  EXPECT_EQ(result.cluster_of(4), SIZE_MAX);
  EXPECT_EQ(result.cluster_of(1), result.cluster_of(2));
}

TEST(ClusterEdges, MergingNeverIncreasesInterBytes) {
  // Property: with decreasing target cluster counts, inter-cluster bytes are
  // non-increasing (each merge moves an edge bundle inside).
  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < 12; ++i) {
    for (std::uint32_t j = i + 1; j < 12; ++j) {
      edges.push_back(Edge{i, j, (i * 7 + j * 13) % 97 + 1});
    }
  }
  std::uint64_t previous = ~0ull;
  for (std::size_t target : {8, 6, 4, 2, 1}) {
    ClusterOptions options;
    options.target_clusters = target;
    const Clustering result = cluster_edges(12, edges, {}, options);
    EXPECT_LE(result.inter_bytes, previous) << "target " << target;
    previous = result.inter_bytes;
  }
}

TEST(ClusterWfs, PipelineNeighboursClusterTogether) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  quad::QuadTool tool(run.artifacts.program);
  session.add_consumer(tool);
  session.run_live(run.host);

  ClusterOptions options;
  options.target_clusters = 4;
  const Clustering result = cluster_kernels(tool, options);
  ASSERT_GE(result.clusters.size(), 2u);
  auto id = [&](const char* name) { return *run.artifacts.program.find(name); };
  // The FFT convolution pipeline communicates heavily internally:
  // ffw/cmult share H; cmult->cadd via T; fft1d feeds them via X/Y.
  EXPECT_EQ(result.cluster_of(id("cmult")), result.cluster_of(id("cadd")));
  EXPECT_EQ(result.cluster_of(id("fft1d")), result.cluster_of(id("cmult")));
  // Most communication ends up intra-cluster — the paper's objective.
  EXPECT_GT(result.intra_fraction(), 0.5);
}

TEST(ClusterWfs, DescribeNamesKernels) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  quad::QuadTool tool(run.artifacts.program);
  session.add_consumer(tool);
  session.run_live(run.host);
  const Clustering result = cluster_kernels(tool, ClusterOptions{.target_clusters = 3});
  const std::string text = describe_clustering(tool, result);
  EXPECT_NE(text.find("cluster 1:"), std::string::npos);
  EXPECT_NE(text.find("fft1d"), std::string::npos);
  EXPECT_NE(text.find("intra-cluster bytes"), std::string::npos);
}

}  // namespace
}  // namespace tq::cluster
