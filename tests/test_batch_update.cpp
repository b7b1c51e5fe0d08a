// Batched edge-insertion updates: a batch of k edges must leave every
// engine's store identical to applying the k edges one at a time (and to a
// fresh static recomputation), in any order, with or without the
// recompute fallback - and the single work-queue launch must model faster
// than k separate launches.
#include <gtest/gtest.h>

#include <span>

#include "bc/batch_update.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/dynamic_gpu.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

std::vector<std::pair<VertexId, VertexId>> random_batch(const CSRGraph& g,
                                                        int k,
                                                        std::uint64_t seed) {
  BCDYN_SEEDED_RNG(rng, seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  CSRGraph cur = g;
  for (int i = 0; i < k; ++i) {
    const auto [u, v] = test::random_absent_edge(cur, rng);
    if (u == kNoVertex) break;
    cur = cur.with_edge(u, v);
    edges.emplace_back(u, v);
  }
  return edges;
}

TEST(BatchSnapshots, SkipsInvalidAndDuplicateEdges) {
  const auto g = test::path_graph(6);  // edges 0-1, 1-2, ..., 4-5
  const std::vector<std::pair<VertexId, VertexId>> edges = {
      {0, 2},   // fine
      {3, 3},   // self loop
      {1, 2},   // already present in base
      {0, 2},   // duplicate within the batch
      {2, 0},   // duplicate (reversed) within the batch
      {0, 99},  // out of range
      {-1, 2},  // out of range
      {2, 4},   // fine
  };
  const auto batch = build_batch_snapshots(g, edges);
  ASSERT_EQ(batch.edges.size(), 2u);
  EXPECT_EQ(batch.edges[0], (std::pair<VertexId, VertexId>{0, 2}));
  EXPECT_EQ(batch.edges[1], (std::pair<VertexId, VertexId>{2, 4}));
  EXPECT_EQ(batch.skipped.size(), 6u);
  ASSERT_EQ(batch.graphs.size(), 2u);
  // graphs[i] contains edges[0..i].
  EXPECT_TRUE(batch.graphs[0].has_edge(0, 2));
  EXPECT_FALSE(batch.graphs[0].has_edge(2, 4));
  EXPECT_TRUE(batch.graphs[1].has_edge(0, 2));
  EXPECT_TRUE(batch.graphs[1].has_edge(2, 4));
  EXPECT_EQ(batch.final_graph().num_edges(), g.num_edges() + 2);
}

TEST(BatchSnapshots, EmptyBatchHasNoFinalGraph) {
  const auto g = test::cycle_graph(5);
  const auto batch =
      build_batch_snapshots(g, std::vector<std::pair<VertexId, VertexId>>{});
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.graphs.empty());
}

/// Batch result must equal applying the same edges one at a time.
void check_batch_equals_sequential(EngineKind kind, double threshold) {
  const auto g = test::gnp_graph(60, 0.04, 91);
  const auto edges = random_batch(g, 12, 92);
  ASSERT_FALSE(edges.empty());
  ApproxConfig cfg{.num_sources = 16, .seed = 9};

  DynamicBc batched(g, {.engine = kind,
                        .approx = cfg,
                        .batch_recompute_threshold = threshold});
  batched.compute();
  const UpdateOutcome out = batched.insert_edge_batch(edges);
  EXPECT_EQ(out.inserted, static_cast<int>(edges.size()));
  EXPECT_EQ(out.skipped, 0);

  DynamicBc sequential(g, {.engine = kind, .approx = cfg});
  sequential.compute();
  for (const auto& [u, v] : edges) sequential.insert_edge(u, v);

  test::expect_near_spans(batched.scores(), sequential.scores(), 1e-7, "bc");
  for (int si = 0; si < batched.store().num_sources(); ++si) {
    const auto d_b = batched.store().dist_row(si);
    const auto d_s = sequential.store().dist_row(si);
    const auto sg_b = batched.store().sigma_row(si);
    const auto sg_s = sequential.store().sigma_row(si);
    for (std::size_t i = 0; i < d_b.size(); ++i) {
      ASSERT_EQ(d_b[i], d_s[i]) << "dist si=" << si << " v=" << i;
      ASSERT_DOUBLE_EQ(sg_b[i], sg_s[i]) << "sigma si=" << si << " v=" << i;
    }
  }
  EXPECT_LT(batched.verify_against_recompute(), 1e-7);
}

TEST(BatchUpdate, CpuBatchEqualsSequentialInserts) {
  check_batch_equals_sequential(EngineKind::kCpu, 0.25);
}

TEST(BatchUpdate, GpuEdgeBatchEqualsSequentialInserts) {
  check_batch_equals_sequential(EngineKind::kGpuEdge, 0.25);
}

TEST(BatchUpdate, GpuNodeBatchEqualsSequentialInserts) {
  check_batch_equals_sequential(EngineKind::kGpuNode, 0.25);
}

TEST(BatchUpdate, ZeroThresholdForcesRecomputeAndStaysExact) {
  check_batch_equals_sequential(EngineKind::kCpu, 0.0);
  check_batch_equals_sequential(EngineKind::kGpuEdge, 0.0);
}

TEST(BatchUpdate, ZeroThresholdReportsRecomputedSources) {
  const auto g = test::gnp_graph(50, 0.05, 17);
  const auto edges = random_batch(g, 8, 18);
  ASSERT_GT(edges.size(), 1u);
  DynamicBc analytic(g, {.engine = EngineKind::kGpuEdge,
                         .approx = {.num_sources = 8, .seed = 3},
                         .batch_recompute_threshold = 0.0});
  analytic.compute();
  const UpdateOutcome out = analytic.insert_edge_batch(edges);
  // With threshold 0 any source whose first edges touch vertices bails out.
  EXPECT_GT(out.recomputed_sources, 0);
  EXPECT_LT(analytic.verify_against_recompute(), 1e-7);
}

/// Order-independence: shuffling the batch changes nothing about the final
/// state (the final graph is order-free and every path lands on the exact
/// post-batch rows).
TEST(BatchUpdate, BatchIsOrderIndependent) {
  const auto g = test::gnp_graph(48, 0.05, 41);
  auto edges = random_batch(g, 10, 42);
  ASSERT_GT(edges.size(), 2u);
  ApproxConfig cfg{.num_sources = 12, .seed = 2};

  DynamicBc forward(g, {.engine = EngineKind::kGpuNode, .approx = cfg});
  forward.compute();
  forward.insert_edge_batch(edges);

  BCDYN_SEEDED_RNG(shuffle_rng, 7);
  shuffle_rng.shuffle(std::span<std::pair<VertexId, VertexId>>(edges));
  DynamicBc shuffled(g, {.engine = EngineKind::kGpuNode, .approx = cfg});
  shuffled.compute();
  shuffled.insert_edge_batch(edges);

  for (int si = 0; si < forward.store().num_sources(); ++si) {
    const auto d_f = forward.store().dist_row(si);
    const auto d_s = shuffled.store().dist_row(si);
    for (std::size_t i = 0; i < d_f.size(); ++i) {
      ASSERT_EQ(d_f[i], d_s[i]) << "dist si=" << si << " v=" << i;
    }
  }
  test::expect_near_spans(shuffled.scores(), forward.scores(), 1e-7, "bc");
}

TEST(BatchUpdate, GpuEngineReportsPerJobStats) {
  const auto g = test::gnp_graph(40, 0.06, 31);
  const auto edges = random_batch(g, 6, 32);
  ASSERT_FALSE(edges.empty());
  ApproxConfig cfg{.num_sources = 10, .seed = 6};
  BcStore store(g.num_vertices(), cfg);
  brandes_all(g, store);
  const auto batch = build_batch_snapshots(g, edges);

  // The same result reads the same way on a device and on a group.
  for (const int devices : {1, 2}) {
    SCOPED_TRACE(devices);
    BcStore run = store;
    DynamicGpuBc engine =
        devices == 1
            ? DynamicGpuBc(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge)
            : DynamicGpuBc(devices, sim::DeviceSpec::tesla_c2075(),
                           Parallelism::kEdge);
    const GpuBatchResult result = engine.insert_edge_batch(batch, run, 0.25);
    ASSERT_EQ(result.outcomes.size(), 10u);
    EXPECT_EQ(result.group.placements.size(), devices == 1 ? 0u : 10u);
    EXPECT_GT(result.stats.makespan_cycles, 0.0);
  }
}

/// The tentpole's acceptance criterion at unit-test scale: one batched
/// launch of k insertions must model faster than k single-edge launches.
TEST(BatchUpdate, BatchModelsFasterThanSingleEdgeLaunches) {
  const auto g = test::gnp_graph(80, 0.04, 61);
  const auto edges = random_batch(g, 16, 62);
  ASSERT_EQ(edges.size(), 16u);
  ApproxConfig cfg{.num_sources = 16, .seed = 8};
  const VertexId n = g.num_vertices();

  for (const Parallelism mode : {Parallelism::kEdge, Parallelism::kNode}) {
    BcStore single_store(n, cfg);
    brandes_all(g, single_store);
    DynamicGpuBc single(sim::DeviceSpec::tesla_c2075(), mode);
    double single_seconds = 0.0;
    CSRGraph cur = g;
    for (const auto& [u, v] : edges) {
      cur = cur.with_edge(u, v);
      single_seconds += single.insert_edge_update(cur, single_store, u, v)
                            .stats.seconds;
    }

    BcStore batch_store(n, cfg);
    brandes_all(g, batch_store);
    DynamicGpuBc batched(sim::DeviceSpec::tesla_c2075(), mode);
    const auto batch = build_batch_snapshots(g, edges);
    // A high threshold isolates the scheduling effect from the fallback.
    const auto result =
        batched.insert_edge_batch(batch, batch_store, 10.0);

    EXPECT_LT(result.stats.seconds, single_seconds) << to_string(mode);
    test::expect_near_spans(batch_store.bc(), single_store.bc(), 1e-7, "bc");
  }
}

TEST(BatchUpdate, EmptyAndAllSkippedBatchesAreNoOps) {
  const auto g = test::complete_graph(8);
  DynamicBc analytic(g, {.engine = EngineKind::kCpu,
                         .approx = {.num_sources = 0, .seed = 1}});
  analytic.compute();
  const auto before = std::vector<double>(analytic.scores().begin(),
                                          analytic.scores().end());

  const UpdateOutcome empty = analytic.insert_edge_batch({});
  EXPECT_EQ(empty.inserted, 0);

  const std::vector<std::pair<VertexId, VertexId>> dupes = {{0, 1}, {2, 2}};
  const UpdateOutcome skipped = analytic.insert_edge_batch(dupes);
  EXPECT_EQ(skipped.inserted, 0);
  EXPECT_EQ(skipped.skipped, 2);
  test::expect_near_spans(analytic.scores(), before, 0.0, "bc unchanged");
}

TEST(BatchUpdate, ThrowsBeforeCompute) {
  const auto g = test::path_graph(4);
  DynamicBc analytic(g, {.approx = {.num_sources = 0, .seed = 1}});
  const std::vector<std::pair<VertexId, VertexId>> edges = {{0, 2}};
  EXPECT_THROW(analytic.insert_edge_batch(edges), std::logic_error);
}

TEST(BatchUpdate, MixedValidAndSkippedEdgesStayExact) {
  const auto g = test::gnp_graph(36, 0.08, 21);
  auto edges = random_batch(g, 6, 22);
  ASSERT_FALSE(edges.empty());
  edges.insert(edges.begin() + 1, {2, 2});        // self loop
  edges.push_back(edges.front());                 // in-batch duplicate
  DynamicBc analytic(g, {.engine = EngineKind::kGpuEdge,
                         .approx = {.num_sources = 0, .seed = 5}});
  analytic.compute();
  const UpdateOutcome out = analytic.insert_edge_batch(edges);
  EXPECT_EQ(out.skipped, 2);
  EXPECT_EQ(out.inserted, static_cast<int>(edges.size()) - 2);
  EXPECT_LT(analytic.verify_against_recompute(), 1e-7);
}

}  // namespace
}  // namespace bcdyn
