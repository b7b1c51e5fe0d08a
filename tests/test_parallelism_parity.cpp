// Edge- vs node-parallel kernel parity: the two fine-grained mappings
// traverse the same frontiers in the same level order, so on any update
// stream they must produce bitwise-identical distances and sigmas (integer
// values stored in doubles, added in level order in both mappings) and
// near-identical deltas/BC (the dependency accumulation divides, so the
// two mappings' summation orders can differ in the last ulps).
#include <gtest/gtest.h>

#include <cmath>

#include "bc/batch_update.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_gpu.hpp"
#include "graph/coo.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

/// Two G(n, p) islands with no edges between them; insertions that pick one
/// endpoint per island are case-3 updates with infinite pre-insertion
/// distance on many rows (the hardest classification to get right).
CSRGraph two_islands(VertexId island, double p, std::uint64_t seed) {
  const auto g1 = test::gnp_graph(island, p, seed);
  COOGraph coo;
  coo.num_vertices = 2 * island;
  for (VertexId u = 0; u < island; ++u) {
    for (const VertexId v : g1.neighbors(u)) {
      if (u < v) {
        coo.add_edge(u, v);
        coo.add_edge(u + island, v + island);
      }
    }
  }
  return CSRGraph::from_coo(std::move(coo));
}

void expect_rows_parity(const BcStore& edge_store, const BcStore& node_store,
                        const char* when) {
  ASSERT_EQ(edge_store.num_sources(), node_store.num_sources());
  for (int si = 0; si < edge_store.num_sources(); ++si) {
    const auto d_e = edge_store.dist_row(si);
    const auto d_n = node_store.dist_row(si);
    const auto sg_e = edge_store.sigma_row(si);
    const auto sg_n = node_store.sigma_row(si);
    const auto dl_e = edge_store.delta_row(si);
    const auto dl_n = node_store.delta_row(si);
    for (std::size_t v = 0; v < d_e.size(); ++v) {
      // d and sigma: bitwise identical.
      ASSERT_EQ(d_e[v], d_n[v]) << when << " dist si=" << si << " v=" << v;
      ASSERT_EQ(sg_e[v], sg_n[v]) << when << " sigma si=" << si << " v=" << v;
      // delta: identical up to summation order.
      ASSERT_NEAR(dl_e[v], dl_n[v], 1e-9 * std::max(1.0, std::abs(dl_n[v])))
          << when << " delta si=" << si << " v=" << v;
    }
  }
}

TEST(ParallelismParity, IdenticalOnConnectedUpdateStream) {
  auto g = test::gnp_graph(64, 0.05, 811);
  ApproxConfig cfg{.num_sources = 16, .seed = 12};
  const VertexId n = g.num_vertices();
  BcStore edge_store(n, cfg);
  BcStore node_store(n, cfg);
  brandes_all(g, edge_store);
  brandes_all(g, node_store);
  DynamicGpuBc edge_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge);
  DynamicGpuBc node_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);

  BCDYN_SEEDED_RNG(rng, 812);
  for (int step = 0; step < 20; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    ASSERT_NE(u, kNoVertex);
    g = g.with_edge(u, v);
    const auto re =
        edge_engine.edge_update(/*removal=*/false, g, edge_store, u, v);
    const auto rn =
        node_engine.edge_update(/*removal=*/false, g, node_store, u, v);
    // Classification is data-dependent only: both mappings agree per
    // source. (The touched COUNT may differ - the two mappings mark
    // different carry sets while traversing - so only the case and the
    // resulting state are compared.)
    for (std::size_t si = 0; si < re.outcomes.size(); ++si) {
      ASSERT_EQ(re.outcomes[si].update_case, rn.outcomes[si].update_case)
          << "step=" << step << " si=" << si;
    }
    expect_rows_parity(edge_store, node_store, "insert");
    test::expect_near_spans(edge_store.bc(), node_store.bc(), 1e-7, "bc");
  }
}

TEST(ParallelismParity, Case3BridgesBetweenComponents) {
  auto g = two_islands(24, 0.12, 821);
  const VertexId n = g.num_vertices();
  ApproxConfig cfg{.num_sources = 0, .seed = 0};  // exact: every source
  BcStore edge_store(n, cfg);
  BcStore node_store(n, cfg);
  brandes_all(g, edge_store);
  brandes_all(g, node_store);
  DynamicGpuBc edge_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge);
  DynamicGpuBc node_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);

  // First insertion bridges the islands (distance inf -> finite on every
  // cross row); the following ones add further cross links (case 3 with
  // large but finite distance deltas).
  const std::vector<std::pair<VertexId, VertexId>> bridges = {
      {0, 24}, {5, 30}, {12, 47}, {23, 24}};
  int case3_seen = 0;
  for (const auto& [u, v] : bridges) {
    ASSERT_FALSE(g.has_edge(u, v));
    g = g.with_edge(u, v);
    const auto re =
        edge_engine.edge_update(/*removal=*/false, g, edge_store, u, v);
    const auto rn =
        node_engine.edge_update(/*removal=*/false, g, node_store, u, v);
    for (std::size_t si = 0; si < re.outcomes.size(); ++si) {
      ASSERT_EQ(re.outcomes[si].update_case, rn.outcomes[si].update_case);
      if (re.outcomes[si].update_case == UpdateCase::kFar) ++case3_seen;
    }
    expect_rows_parity(edge_store, node_store, "bridge");
    test::expect_near_spans(edge_store.bc(), node_store.bc(), 1e-7, "bc");
  }
  EXPECT_GT(case3_seen, 0) << "bridging edges must exercise case 3";

  // Both must also agree with a fresh static recomputation.
  BcStore fresh(n, cfg);
  brandes_all(g, fresh);
  test::expect_near_spans(edge_store.bc(), fresh.bc(), 1e-7, "bc vs fresh");
}

TEST(ParallelismParity, BatchPathKeepsParity) {
  const auto g = two_islands(20, 0.15, 831);
  const VertexId n = g.num_vertices();
  ApproxConfig cfg{.num_sources = 12, .seed = 14};
  BcStore edge_store(n, cfg);
  BcStore node_store(n, cfg);
  brandes_all(g, edge_store);
  brandes_all(g, node_store);

  const std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 20}, {7, 31}, {3, 9}, {19, 39}};
  const auto batch = build_batch_snapshots(g, edges);
  ASSERT_EQ(batch.edges.size(), edges.size());

  DynamicGpuBc edge_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge);
  DynamicGpuBc node_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);
  const auto re = edge_engine.insert_edge_batch(batch, edge_store, 0.25);
  const auto rn = node_engine.insert_edge_batch(batch, node_store, 0.25);
  for (std::size_t si = 0; si < re.outcomes.size(); ++si) {
    ASSERT_EQ(re.outcomes[si].case2, rn.outcomes[si].case2) << "si=" << si;
    ASSERT_EQ(re.outcomes[si].case3, rn.outcomes[si].case3) << "si=" << si;
    ASSERT_EQ(re.outcomes[si].recomputed, rn.outcomes[si].recomputed);
  }
  expect_rows_parity(edge_store, node_store, "batch");
  test::expect_near_spans(edge_store.bc(), node_store.bc(), 1e-7, "bc");
}

}  // namespace
}  // namespace bcdyn
