// End-to-end integration: long mixed streams through the public API,
// engine determinism under different device configurations, and the
// self-verification hook.
#include <gtest/gtest.h>

#include "analysis/experiment.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/dynamic_gpu.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

TEST(Integration, LongMixedInsertRemoveStream) {
  const auto g = gen::small_world(120, 3, 0.1, 31);
  DynamicBc analytic(g, {.engine = EngineKind::kGpuNode,
                         .approx = {.num_sources = 16, .seed = 1}});
  analytic.compute();

  BCDYN_SEEDED_RNG(rng, 55);
  int inserts = 0;
  int removes = 0;
  std::vector<std::pair<VertexId, VertexId>> inserted_edges;
  for (int op = 0; op < 30; ++op) {
    if (rng.next_bool(0.7) || inserted_edges.empty()) {
      const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
      if (analytic.insert_edge(u, v).inserted) {
        inserted_edges.emplace_back(u, v);
        ++inserts;
      }
    } else {
      const auto [u, v] = inserted_edges.back();
      inserted_edges.pop_back();
      if (analytic.remove_edge(u, v).inserted) ++removes;
    }
    // Integrity after every operation.
    ASSERT_LT(analytic.verify_against_recompute(), 1e-7)
        << "op " << op << " (inserts=" << inserts << " removes=" << removes
        << ")";
  }
  EXPECT_GT(inserts, 0);
  EXPECT_GT(removes, 0);
}

TEST(Integration, BatchInsertAggregatesOutcomes) {
  const auto g = test::gnp_graph(60, 0.05, 9);
  DynamicBc analytic(g, {.approx = {.num_sources = 12, .seed = 2}});
  analytic.compute();

  BCDYN_SEEDED_RNG(rng, 8);
  std::vector<std::pair<VertexId, VertexId>> batch;
  CSRGraph probe = g;
  while (batch.size() < 5) {
    const auto [u, v] = test::random_absent_edge(probe, rng);
    probe = probe.with_edge(u, v);
    batch.emplace_back(u, v);
  }
  batch.push_back(batch.front());  // duplicate: ignored, not fatal

  UpdateOutcome outcome;
  for (const auto& [u, v] : batch) outcome.absorb(analytic.insert_edge(u, v));
  EXPECT_TRUE(outcome.inserted);
  EXPECT_EQ(outcome.case1 + outcome.case2 + outcome.case3, 5 * 12);
  EXPECT_LT(analytic.verify_against_recompute(), 1e-8);
}

TEST(Integration, ResultsIndependentOfSmCount) {
  // The decomposition across blocks must not change any result, only the
  // schedule. Run identical streams on 3 device shapes per mode.
  const auto g0 = test::gnp_graph(50, 0.06, 71);
  ApproxConfig cfg{.num_sources = 14, .seed = 6};
  for (Parallelism mode : {Parallelism::kEdge, Parallelism::kNode}) {
    std::vector<std::vector<double>> finals;
    for (int sms : {1, 4, 32}) {
      sim::DeviceSpec spec = sim::DeviceSpec::tesla_c2075();
      spec.num_sms = sms;
      CSRGraph g = g0;
      BcStore store(g.num_vertices(), cfg);
      brandes_all(g, store);
      DynamicGpuBc engine(spec, mode);
      BCDYN_SEEDED_RNG(rng, 4);
      for (int step = 0; step < 6; ++step) {
        const auto [u, v] = test::random_absent_edge(g, rng);
        g = g.with_edge(u, v);
        engine.edge_update(/*removal=*/false, g, store, u, v);
      }
      finals.emplace_back(store.bc().begin(), store.bc().end());
    }
    for (std::size_t i = 1; i < finals.size(); ++i) {
      test::expect_near_spans(finals[i], finals[0], 1e-10, "sm-count");
    }
  }
}

TEST(Integration, SuiteGraphsSurviveShortStreams) {
  // Every suite class (tiny instances) through the full pipeline.
  for (const auto& name : gen::suite_names()) {
    const auto entry = gen::build_suite_graph(name, 0.02, 3);
    const auto stream = analysis::make_insertion_stream(
        entry.graph, {.num_insertions = 5, .seed = 11});
    const auto cpu = analysis::run_cpu_dynamic(
        stream, ApproxConfig{.num_sources = 8, .seed = 4});
    const auto node =
        analysis::run_gpu_dynamic(stream, ApproxConfig{.num_sources = 8, .seed = 4},
                                  Parallelism::kNode,
                                  sim::DeviceSpec::gtx_560());
    EXPECT_LT(analysis::max_abs_diff(cpu.final_bc, node.final_bc), 1e-7)
        << name;
    EXPECT_EQ(cpu.scenarios.total(), 40u) << name;
  }
}

TEST(Integration, RepeatedInsertionOfSameEdgeIsStable) {
  const auto g = test::cycle_graph(20);
  DynamicBc analytic(g, {.approx = {.num_sources = 0, .seed = 1}});
  analytic.compute();
  EXPECT_TRUE(analytic.insert_edge(0, 10).inserted);
  const std::vector<double> after(analytic.scores().begin(),
                                  analytic.scores().end());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(analytic.insert_edge(0, 10).inserted);
    EXPECT_FALSE(analytic.insert_edge(10, 0).inserted);
  }
  test::expect_near_spans(analytic.scores(), after, 0.0, "idempotent");
}

TEST(Integration, ScoresScaleWithSourceCount) {
  // More sources -> better approximation of exact BC ranking. Sanity-check
  // that the approximation converges: the exact top vertex must appear in
  // the approximate top-3 with half the vertices as sources.
  const auto g = gen::router_level(500, 21);
  const auto exact = betweenness_exact(g);
  VertexId exact_top = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (exact[static_cast<std::size_t>(v)] >
        exact[static_cast<std::size_t>(exact_top)]) {
      exact_top = v;
    }
  }
  DynamicBc analytic(g, {.approx = {.num_sources = 250, .seed = 3}});
  analytic.compute();
  const auto top = analytic.top_k(3);
  const bool found = std::any_of(top.begin(), top.end(), [&](const auto& p) {
    return p.first == exact_top;
  });
  EXPECT_TRUE(found) << "exact top " << exact_top << " not in approx top-3";
}

}  // namespace
}  // namespace bcdyn
