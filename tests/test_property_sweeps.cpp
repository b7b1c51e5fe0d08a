// Parameterized property sweeps across graph classes and random instances:
// oracle agreement, I/O round trips, SSSP invariants after dynamic updates,
// and combinatorially large path counts.
#include <gtest/gtest.h>

#include <sstream>

#include "bc/brandes.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/reference.hpp"
#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "graph/bfs.hpp"
#include "graph/io.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

// ---------------------------------------------------------------------------
// Brandes vs the brute-force oracle across densities.
// ---------------------------------------------------------------------------

using OracleParam = std::tuple<int, double, std::uint64_t>;

class BrandesOracleSweep : public ::testing::TestWithParam<OracleParam> {};

TEST_P(BrandesOracleSweep, ExactBcMatchesOracle) {
  const auto [n, p, seed] = GetParam();
  const auto g = test::gnp_graph(static_cast<VertexId>(n), p, seed);
  test::expect_near_spans(betweenness_exact(g), reference_betweenness(g),
                          1e-9, "bc");
}

INSTANTIATE_TEST_SUITE_P(
    Densities, BrandesOracleSweep,
    ::testing::Values(OracleParam{20, 0.05, 11}, OracleParam{20, 0.3, 12},
                      OracleParam{35, 0.08, 13}, OracleParam{35, 0.15, 14},
                      OracleParam{50, 0.04, 15}, OracleParam{50, 0.10, 16},
                      OracleParam{26, 0.02, 17},  // likely disconnected
                      OracleParam{60, 0.5, 18}    // dense
                      ));

// ---------------------------------------------------------------------------
// I/O round trips on random graphs, both formats.
// ---------------------------------------------------------------------------

class IoRoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTripSweep, MetisAndEdgeListPreserveEdges) {
  const auto g = test::gnp_graph(50, 0.07, GetParam());
  {
    std::stringstream buf;
    io::write_metis(buf, g);
    const auto g2 = CSRGraph::from_coo(io::read_metis(buf));
    ASSERT_EQ(g2.num_edges(), g.num_edges());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(g2.degree(v), g.degree(v)) << v;
    }
  }
  {
    std::stringstream buf;
    io::write_edge_list(buf, g);
    const auto g2 = CSRGraph::from_coo(io::read_edge_list(buf));
    // The edge-list format drops trailing isolated vertices; compare the
    // populated prefix.
    ASSERT_LE(g2.num_vertices(), g.num_vertices());
    ASSERT_EQ(g2.num_edges(), g.num_edges());
    for (VertexId v = 0; v < g2.num_vertices(); ++v) {
      ASSERT_EQ(g2.degree(v), g.degree(v)) << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTripSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Every suite class: structural sanity + SSSP invariants after a short
// dynamic stream (the store must stay a valid BFS/sigma state).
// ---------------------------------------------------------------------------

class SuiteClassSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteClassSweep, StoreStaysValidUnderUpdates) {
  const auto entry = gen::build_suite_graph(GetParam(), 0.015, 19);
  auto g = entry.graph;
  ASSERT_GT(g.num_vertices(), 0);
  ApproxConfig cfg{.num_sources = 6, .seed = 2};
  BcStore store(g.num_vertices(), cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(g.num_vertices());
  BCDYN_SEEDED_RNG(rng, 77);
  for (int step = 0; step < 4; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    if (u == kNoVertex) break;
    g = g.with_edge(u, v);
    for (int si = 0; si < store.num_sources(); ++si) {
      engine.source_update(/*removal=*/false, g,
                           store.sources()[static_cast<std::size_t>(si)],
                           store.dist_row(si), store.sigma_row(si),
                           store.delta_row(si), store.bc(), u, v);
    }
    for (int si = 0; si < store.num_sources(); ++si) {
      const auto d = store.dist_row(si);
      const auto sg = store.sigma_row(si);
      ASSERT_TRUE(check_sssp_invariants(
          g, store.sources()[static_cast<std::size_t>(si)],
          std::vector<Dist>(d.begin(), d.end()),
          std::vector<Sigma>(sg.begin(), sg.end())))
          << GetParam() << " step " << step << " source index " << si;
    }
  }
}

TEST_P(SuiteClassSweep, GeneratorsAreSeedDeterministic) {
  const auto a = gen::build_suite_graph(GetParam(), 0.015, 5);
  const auto b = gen::build_suite_graph(GetParam(), 0.015, 5);
  ASSERT_EQ(a.graph.num_vertices(), b.graph.num_vertices());
  ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges());
  for (VertexId v = 0; v < a.graph.num_vertices(); ++v) {
    const auto na = a.graph.neighbors(v);
    const auto nb = b.graph.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << v;
    for (std::size_t i = 0; i < na.size(); ++i) ASSERT_EQ(na[i], nb[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, SuiteClassSweep,
                         ::testing::Values("caida", "coPap", "del", "eu",
                                           "kron", "pref", "small"));

// ---------------------------------------------------------------------------
// Combinatorially large path counts: a k x k grid has C(2k-2, k-1) shortest
// corner-to-corner paths; sigma (double) must track them exactly while they
// fit in 53 bits, including through dynamic updates.
// ---------------------------------------------------------------------------

TEST(LargeSigma, GridPathCountsExact) {
  const VertexId k = 12;  // C(22, 11) = 705432
  COOGraph coo;
  coo.num_vertices = k * k;
  auto id = [k](VertexId r, VertexId c) { return r * k + c; };
  for (VertexId r = 0; r < k; ++r) {
    for (VertexId c = 0; c < k; ++c) {
      if (c + 1 < k) coo.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < k) coo.add_edge(id(r, c), id(r + 1, c));
    }
  }
  const auto g = CSRGraph::from_coo(std::move(coo));
  const auto r = bfs(g, 0);
  // Binomial C(2k-2, k-1) computed incrementally.
  double expect = 1.0;
  for (int i = 1; i <= k - 1; ++i) {
    expect = expect * (k - 1 + i) / i;
  }
  EXPECT_DOUBLE_EQ(r.sigma[static_cast<std::size_t>(id(k - 1, k - 1))],
                   expect);
}

TEST(LargeSigma, DynamicUpdateKeepsHugeCountsExact) {
  // Dense multi-path graph: layered K4-K4-...-K4; sigma multiplies by 4
  // per layer. 12 layers -> 4^11 = 4M paths. An insertion between layers
  // must keep counts exact through the incremental path.
  const int layers = 12;
  COOGraph coo;
  coo.num_vertices = 4 * layers + 1;
  const VertexId s = 4 * layers;
  for (int j = 0; j < 4; ++j) coo.add_edge(s, static_cast<VertexId>(j));
  for (int l = 0; l + 1 < layers; ++l) {
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        coo.add_edge(static_cast<VertexId>(4 * l + a),
                     static_cast<VertexId>(4 * (l + 1) + b));
      }
    }
  }
  auto g = CSRGraph::from_coo(std::move(coo));
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(g.num_vertices(), cfg);
  brandes_all(g, store);

  DynamicCpuEngine engine(g.num_vertices());
  // Insert an edge from the source straight into layer 1 (Case 3: creates
  // a distance shortcut) and verify against recompute.
  g = g.with_edge(s, 7);
  for (int si = 0; si < store.num_sources(); ++si) {
    engine.source_update(/*removal=*/false, g,
                         store.sources()[static_cast<std::size_t>(si)],
                         store.dist_row(si), store.sigma_row(si),
                         store.delta_row(si), store.bc(), s, 7);
  }
  BcStore fresh(g.num_vertices(), cfg);
  brandes_all(g, fresh);
  for (int si = 0; si < store.num_sources(); ++si) {
    const auto a = store.sigma_row(si);
    const auto b = fresh.sigma_row(si);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_DOUBLE_EQ(a[i], b[i]) << "si=" << si << " v=" << i;
    }
  }
  test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
}

}  // namespace
}  // namespace bcdyn
