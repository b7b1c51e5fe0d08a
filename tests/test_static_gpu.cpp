// Static simulated-GPU BC (DynamicGpuBc::compute, the static pass every
// single-device session starts from): both fine-grained mappings must
// reproduce the sequential Brandes results bit-for-bit (distances/sigma)
// and to rounding (delta/BC), and the work counters must show the
// edge/node asymmetry.
#include <gtest/gtest.h>

#include "bc/brandes.hpp"
#include "bc/dynamic_gpu.hpp"
#include "gen/generators.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

class StaticGpuModes : public ::testing::TestWithParam<Parallelism> {};

TEST_P(StaticGpuModes, MatchesSequentialBrandesExact) {
  const auto g = test::gnp_graph(60, 0.06, 21);
  ApproxConfig cfg{.num_sources = 0, .seed = 1};

  BcStore expected(g.num_vertices(), cfg);
  brandes_all(g, expected);

  BcStore store(g.num_vertices(), cfg);
  DynamicGpuBc engine(sim::DeviceSpec::tesla_c2075(), GetParam());
  const auto stats = engine.compute(g, store);
  EXPECT_EQ(stats.num_blocks, 14);
  EXPECT_GT(stats.seconds, 0.0);

  for (int si = 0; si < store.num_sources(); ++si) {
    const auto d = store.dist_row(si);
    const auto d_ref = expected.dist_row(si);
    const auto s = store.sigma_row(si);
    const auto s_ref = expected.sigma_row(si);
    for (std::size_t i = 0; i < d.size(); ++i) {
      ASSERT_EQ(d[i], d_ref[i]) << "si=" << si << " v=" << i;
      ASSERT_DOUBLE_EQ(s[i], s_ref[i]) << "si=" << si << " v=" << i;
    }
  }
  test::expect_near_spans(store.bc(), expected.bc(), 1e-9, "bc");
}

TEST_P(StaticGpuModes, ApproximateSourcesMatch) {
  const auto g = gen::preferential_attachment(400, 3, 8);
  ApproxConfig cfg{.num_sources = 24, .seed = 4};
  BcStore expected(g.num_vertices(), cfg);
  brandes_all(g, expected);

  BcStore store(g.num_vertices(), cfg);
  DynamicGpuBc engine(sim::DeviceSpec::gtx_560(), GetParam());
  engine.compute(g, store);
  test::expect_near_spans(store.bc(), expected.bc(), 1e-9, "bc");
}

TEST_P(StaticGpuModes, DisconnectedGraph) {
  COOGraph coo;
  coo.num_vertices = 30;
  for (VertexId v = 0; v + 1 < 15; ++v) coo.add_edge(v, v + 1);
  for (VertexId v = 16; v + 1 < 30; ++v) coo.add_edge(v, v + 1);
  // vertex 15 is isolated.
  const auto g = CSRGraph::from_coo(std::move(coo));
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore expected(30, cfg);
  brandes_all(g, expected);
  BcStore store(30, cfg);
  DynamicGpuBc engine(sim::DeviceSpec::tesla_c2075(), GetParam());
  engine.compute(g, store);
  test::expect_near_spans(store.bc(), expected.bc(), 1e-9, "bc");
}

INSTANTIATE_TEST_SUITE_P(Modes, StaticGpuModes,
                         ::testing::Values(Parallelism::kEdge,
                                           Parallelism::kNode));

TEST(StaticGpu, EdgeModeReadsFarMoreMemoryThanNode) {
  // The paper's core observation: edge-parallel scans all E arcs per level,
  // node-parallel only the frontier.
  const auto g = gen::small_world(2000, 4, 0.05, 3);
  ApproxConfig cfg{.num_sources = 4, .seed = 2};

  BcStore store_e(g.num_vertices(), cfg);
  BcStore store_n(g.num_vertices(), cfg);
  DynamicGpuBc edge(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge);
  DynamicGpuBc node(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);
  const auto se = edge.compute(g, store_e);
  const auto sn = node.compute(g, store_n);
  EXPECT_GT(se.total.global_reads, 2 * sn.total.global_reads);
  EXPECT_GT(se.seconds, sn.seconds);
}

TEST(StaticGpu, MoreBlocksReduceModeledTimeUpToSmCount) {
  const auto g = gen::small_world(500, 4, 0.1, 6);
  ApproxConfig cfg{.num_sources = 28, .seed = 2};
  DynamicGpuBc engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);

  double prev = 0.0;
  for (int blocks : {1, 2, 7, 14}) {
    BcStore store(g.num_vertices(), cfg);
    const auto stats = engine.compute(g, store, blocks);
    if (prev > 0.0) {
      EXPECT_LT(stats.seconds, prev) << blocks << " blocks";
    }
    prev = stats.seconds;
  }
  // 28 blocks on 14 SMs: each SM runs 2 blocks; no further speedup expected
  // (within dispatch-overhead noise).
  BcStore store14(g.num_vertices(), cfg);
  BcStore store28(g.num_vertices(), cfg);
  const auto t14 = engine.compute(g, store14, 14).seconds;
  const auto t28 = engine.compute(g, store28, 28).seconds;
  EXPECT_NEAR(t28, t14, 0.15 * t14);
}

TEST(StaticGpu, SingleVertexAndTinyGraphs) {
  // Degenerate inputs must not crash or divide by zero.
  COOGraph one;
  one.num_vertices = 1;
  const auto g1 = CSRGraph::from_coo(std::move(one));
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore s1(1, cfg);
  DynamicGpuBc engine(sim::DeviceSpec::gtx_560(), Parallelism::kNode);
  engine.compute(g1, s1);
  EXPECT_DOUBLE_EQ(s1.bc()[0], 0.0);

  const auto g2 = test::path_graph(2);
  BcStore s2(2, cfg);
  engine.compute(g2, s2);
  EXPECT_DOUBLE_EQ(s2.bc()[0], 0.0);
  EXPECT_DOUBLE_EQ(s2.bc()[1], 0.0);
}

}  // namespace
}  // namespace bcdyn
