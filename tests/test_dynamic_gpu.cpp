// Dynamic simulated-GPU engines (edge- and node-parallel): every insertion
// must leave the store identical to a static recomputation, for both
// fine-grained mappings, across graph classes that hit all three cases.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

#include "bc/brandes.hpp"
#include "bc/dynamic_gpu.hpp"
#include "gen/generators.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

void check_gpu_stream(CSRGraph g, const ApproxConfig& cfg, Parallelism mode,
                      int steps, std::uint64_t seed) {
  const VertexId n = g.num_vertices();
  BcStore store(n, cfg);
  brandes_all(g, store);
  DynamicGpuBc engine(sim::DeviceSpec::tesla_c2075(), mode);
  BCDYN_SEEDED_RNG(rng, seed);

  for (int step = 0; step < steps; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    if (u == kNoVertex) break;
    g = g.with_edge(u, v);
    const auto result =
        engine.edge_update(/*removal=*/false, g, store, u, v);
    ASSERT_EQ(result.outcomes.size(),
              static_cast<std::size_t>(store.num_sources()));

    BcStore fresh(n, cfg);
    brandes_all(g, fresh);
    for (int si = 0; si < store.num_sources(); ++si) {
      const auto d_upd = store.dist_row(si);
      const auto d_ref = fresh.dist_row(si);
      const auto s_upd = store.sigma_row(si);
      const auto s_ref = fresh.sigma_row(si);
      const auto dl_upd = store.delta_row(si);
      const auto dl_ref = fresh.delta_row(si);
      for (std::size_t i = 0; i < d_upd.size(); ++i) {
        ASSERT_EQ(d_upd[i], d_ref[i])
            << to_string(mode) << " dist step=" << step << " si=" << si
            << " v=" << i << " edge=(" << u << "," << v << ")";
        ASSERT_DOUBLE_EQ(s_upd[i], s_ref[i])
            << to_string(mode) << " sigma step=" << step << " si=" << si
            << " v=" << i << " edge=(" << u << "," << v << ")";
        ASSERT_NEAR(dl_upd[i], dl_ref[i],
                    1e-9 * std::max(1.0, std::abs(dl_ref[i])))
            << to_string(mode) << " delta step=" << step << " si=" << si
            << " v=" << i;
      }
    }
    test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
  }
}

using GpuParam = std::tuple<Parallelism, int, double, int, std::uint64_t>;

class DynamicGpuStream : public ::testing::TestWithParam<GpuParam> {};

TEST_P(DynamicGpuStream, MatchesStaticRecomputeAfterEveryInsertion) {
  const auto [mode, n, p, k, seed] = GetParam();
  const auto g = test::gnp_graph(static_cast<VertexId>(n), p, seed);
  ApproxConfig cfg{.num_sources = k, .seed = seed + 1};
  check_gpu_stream(g, cfg, mode, 8, seed + 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DynamicGpuStream,
    ::testing::Values(
        GpuParam{Parallelism::kNode, 30, 0.05, 0, 301},
        GpuParam{Parallelism::kNode, 40, 0.15, 0, 302},
        GpuParam{Parallelism::kNode, 50, 0.02, 0, 303},
        GpuParam{Parallelism::kNode, 60, 0.05, 16, 304},
        GpuParam{Parallelism::kNode, 64, 0.015, 0, 305},
        GpuParam{Parallelism::kEdge, 30, 0.05, 0, 301},
        GpuParam{Parallelism::kEdge, 40, 0.15, 0, 302},
        GpuParam{Parallelism::kEdge, 50, 0.02, 0, 303},
        GpuParam{Parallelism::kEdge, 60, 0.05, 16, 304},
        GpuParam{Parallelism::kEdge, 64, 0.015, 0, 305}));

TEST(DynamicGpu, EdgeAndNodeAgreeOnLongStream) {
  auto ge = test::gnp_graph(48, 0.06, 55);
  auto gn = ge;
  ApproxConfig cfg{.num_sources = 12, .seed = 5};
  BcStore store_e(48, cfg);
  BcStore store_n(48, cfg);
  brandes_all(ge, store_e);
  brandes_all(gn, store_n);
  DynamicGpuBc edge(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge);
  DynamicGpuBc node(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);
  BCDYN_SEEDED_RNG(rng, 500);
  for (int step = 0; step < 15; ++step) {
    const auto [u, v] = test::random_absent_edge(ge, rng);
    if (u == kNoVertex) break;
    ge = ge.with_edge(u, v);
    gn = ge;
    const auto re =
        edge.edge_update(/*removal=*/false, ge, store_e, u, v);
    const auto rn =
        node.edge_update(/*removal=*/false, gn, store_n, u, v);
    // Case classification is mapping-independent.
    for (std::size_t si = 0; si < re.outcomes.size(); ++si) {
      ASSERT_EQ(re.outcomes[si].update_case, rn.outcomes[si].update_case);
    }
  }
  test::expect_near_spans(store_e.bc(), store_n.bc(), 1e-7, "bc");
}

TEST(DynamicGpu, ComponentAttachmentBothModes) {
  for (Parallelism mode : {Parallelism::kEdge, Parallelism::kNode}) {
    COOGraph coo;
    coo.num_vertices = 14;
    for (VertexId v = 0; v + 1 < 7; ++v) {
      coo.add_edge(v, v + 1);
      coo.add_edge(v + 7, v + 8 == 14 ? 7 : v + 8);
    }
    auto g = CSRGraph::from_coo(std::move(coo));
    ApproxConfig cfg{.num_sources = 0, .seed = 1};
    BcStore store(14, cfg);
    brandes_all(g, store);
    DynamicGpuBc engine(sim::DeviceSpec::gtx_560(), mode);
    g = g.with_edge(3, 10);
    engine.edge_update(/*removal=*/false, g, store, 3, 10);
    BcStore fresh(14, cfg);
    brandes_all(g, fresh);
    test::expect_near_spans(store.bc(), fresh.bc(), 1e-9, "bc");
  }
}

TEST(DynamicGpu, Case1OnlyInsertionIsCheap) {
  // Two far-apart leaves of a star at equal distance from the hub source:
  // insert an edge between two leaves -> case 2 from leaf sources but case 1
  // from the hub. With only the hub as source, no work at all.
  const auto g0 = test::star_graph(20);
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(20, cfg);
  brandes_all(g0, store);
  DynamicGpuBc engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);
  const auto g1 = g0.with_edge(4, 9);
  const auto r = engine.edge_update(/*removal=*/false, g1, store, 4, 9);
  int case1 = 0;
  for (const auto& o : r.outcomes) {
    if (o.update_case == UpdateCase::kNoWork) {
      ++case1;
      EXPECT_EQ(o.touched, 0);
    }
  }
  // From the hub and from every other leaf, d(4) == d(9).
  EXPECT_EQ(case1, 18);
  BcStore fresh(20, cfg);
  brandes_all(g1, fresh);
  test::expect_near_spans(store.bc(), fresh.bc(), 1e-9, "bc");
}

TEST(DynamicGpu, NodeTouchedSetIsTight) {
  // Node-parallel touched counts must never exceed edge-parallel's (which
  // brushes whole levels) and both bound the real change set.
  auto g = gen::small_world(300, 3, 0.1, 9);
  ApproxConfig cfg{.num_sources = 8, .seed = 3};
  BcStore store_e(300, cfg);
  BcStore store_n(300, cfg);
  brandes_all(g, store_e);
  brandes_all(g, store_n);
  DynamicGpuBc edge(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge);
  DynamicGpuBc node(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);
  BCDYN_SEEDED_RNG(rng, 42);
  for (int step = 0; step < 4; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    g = g.with_edge(u, v);
    const auto re =
        edge.edge_update(/*removal=*/false, g, store_e, u, v);
    const auto rn =
        node.edge_update(/*removal=*/false, g, store_n, u, v);
    for (std::size_t si = 0; si < re.outcomes.size(); ++si) {
      if (re.outcomes[si].update_case == UpdateCase::kAdjacent) {
        EXPECT_GE(re.outcomes[si].touched, rn.outcomes[si].touched)
            << "si=" << si;
      }
    }
  }
}

TEST(DynamicGpu, ModeledTimeNodeBeatsEdgeOnSparseGraph) {
  auto g = gen::triangulated_grid(40, 40, 17);
  ApproxConfig cfg{.num_sources = 8, .seed = 3};
  BcStore store_e(g.num_vertices(), cfg);
  BcStore store_n(g.num_vertices(), cfg);
  brandes_all(g, store_e);
  brandes_all(g, store_n);
  DynamicGpuBc edge(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge);
  DynamicGpuBc node(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);
  BCDYN_SEEDED_RNG(rng, 23);
  double te = 0.0;
  double tn = 0.0;
  for (int step = 0; step < 3; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    g = g.with_edge(u, v);
    te += edge.edge_update(/*removal=*/false, g, store_e, u, v)
              .stats.seconds;
    tn += node.edge_update(/*removal=*/false, g, store_n, u, v)
              .stats.seconds;
  }
  EXPECT_GT(te, tn);
}

TEST(DynamicGpu, RejectsMalformedDeviceSpecNamingTheField) {
  // A spec the simulator cannot run fails at construction with an error
  // naming the field: on a device, on a group, and on the engine over
  // either.
  const struct {
    const char* field;
    void (*corrupt)(sim::DeviceSpec&);
  } cases[] = {
      {"num_sms", [](sim::DeviceSpec& s) { s.num_sms = 0; }},
      {"num_sms", [](sim::DeviceSpec& s) { s.num_sms = -1; }},
      {"threads_per_block",
       [](sim::DeviceSpec& s) { s.threads_per_block = 0; }},
      {"clock_ghz", [](sim::DeviceSpec& s) { s.clock_ghz = 0.0; }},
      {"clock_ghz", [](sim::DeviceSpec& s) { s.clock_ghz = -1.0; }},
      {"clock_ghz",
       [](sim::DeviceSpec& s) {
         s.clock_ghz = std::numeric_limits<double>::infinity();
       }},
      {"clock_ghz",
       [](sim::DeviceSpec& s) {
         s.clock_ghz = std::numeric_limits<double>::quiet_NaN();
       }},
  };
  const auto expect_rejected = [](const std::string& where, const char* field,
                                   auto&& construct) {
    try {
      construct();
      ADD_FAILURE() << where << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << where << ": " << e.what();
    }
  };
  for (const auto& c : cases) {
    sim::DeviceSpec spec = sim::DeviceSpec::tesla_c2075();
    c.corrupt(spec);
    expect_rejected(std::string(c.field) + " device", c.field,
                    [&] { sim::Device device(spec); });
    expect_rejected(std::string(c.field) + " group", c.field,
                    [&] { sim::DeviceGroup group(2, spec); });
    expect_rejected(std::string(c.field) + " engine", c.field,
                    [&] { DynamicGpuBc engine(spec, Parallelism::kNode); });
    expect_rejected(std::string(c.field) + " sharded engine", c.field, [&] {
      DynamicGpuBc engine(2, spec, Parallelism::kEdge);
    });
  }
}

}  // namespace
}  // namespace bcdyn
