// Decremental updates (edge removal): the incrementally repaired state
// must equal static recomputation after every removal, across the same
// merciless sweeps used for insertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <string>
#include <tuple>

#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/dynamic_gpu.hpp"
#include "gen/generators.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

/// Removes `steps` random existing edges, checking full state equality
/// against static recomputation after every removal.
void check_removal_stream(CSRGraph g, const ApproxConfig& cfg, int steps,
                          std::uint64_t seed, int* case2_seen,
                          int* fallback_seen) {
  const VertexId n = g.num_vertices();
  BcStore store(n, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(n);
  BCDYN_SEEDED_RNG(rng, seed);

  for (int step = 0; step < steps; ++step) {
    COOGraph coo = g.to_coo();
    if (coo.edges.empty()) break;
    const auto [u, v] =
        coo.edges[static_cast<std::size_t>(rng.next_below(coo.edges.size()))];
    g = g.without_edge(u, v);
    for (int si = 0; si < store.num_sources(); ++si) {
      const VertexId s = store.sources()[static_cast<std::size_t>(si)];
      const auto r = engine.remove_update_source(
          g, s, store.dist_row(si), store.sigma_row(si), store.delta_row(si),
          store.bc(), u, v);
      if (r.update_case == UpdateCase::kAdjacent && case2_seen) ++*case2_seen;
      if (r.update_case == UpdateCase::kFar && fallback_seen) ++*fallback_seen;
    }

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
            << "dist step=" << step << " si=" << si << " v=" << i
            << " removed=(" << u << "," << v << ")";
        ASSERT_DOUBLE_EQ(s_upd[i], s_ref[i])
            << "sigma step=" << step << " si=" << si << " v=" << i
            << " removed=(" << u << "," << v << ")";
        ASSERT_NEAR(dl_upd[i], dl_ref[i],
                    1e-9 * std::max(1.0, std::abs(dl_ref[i])))
            << "delta step=" << step << " si=" << si << " v=" << i;
      }
    }
    test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
  }
}

using RemovalParam = std::tuple<int, double, int, std::uint64_t>;

class RemovalStream : public ::testing::TestWithParam<RemovalParam> {};

TEST_P(RemovalStream, MatchesStaticRecomputeAfterEveryRemoval) {
  const auto [n, p, k, seed] = GetParam();
  const auto g = test::gnp_graph(static_cast<VertexId>(n), p, seed);
  ApproxConfig cfg{.num_sources = k, .seed = seed + 1};
  int case2 = 0;
  int fallback = 0;
  check_removal_stream(g, cfg, 10, seed + 2, &case2, &fallback);
  // Both the incremental and the fallback path must actually be exercised
  // across the sweep (checked in aggregate by the Coverage test below).
  (void)case2;
  (void)fallback;
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphSweep, RemovalStream,
    ::testing::Values(RemovalParam{30, 0.08, 0, 501},
                      RemovalParam{30, 0.15, 0, 502},
                      RemovalParam{40, 0.30, 0, 503},
                      RemovalParam{48, 0.06, 12, 504},
                      RemovalParam{40, 0.05, 0, 505},   // sparse: fallbacks
                      RemovalParam{64, 0.03, 16, 506},  // disconnects likely
                      RemovalParam{24, 0.50, 0, 507}));

TEST(Removal, BothPathsAreExercised) {
  int case2 = 0;
  int fallback = 0;
  const auto g = test::gnp_graph(40, 0.08, 999);
  check_removal_stream(g, ApproxConfig{.num_sources = 0, .seed = 1}, 10, 7,
                       &case2, &fallback);
  EXPECT_GT(case2, 0) << "incremental removal path never ran";
  EXPECT_GT(fallback, 0) << "distance-growing (Case 3) removal never ran";
}

TEST(Removal, BridgeRemovalDisconnects) {
  // Removing a path's middle edge splits the component; distances beyond
  // it become infinite through the fallback path.
  auto g = test::path_graph(10);
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(10, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(10);
  g = g.without_edge(4, 5);
  for (int si = 0; si < store.num_sources(); ++si) {
    engine.remove_update_source(g, store.sources()[static_cast<std::size_t>(si)],
                                store.dist_row(si), store.sigma_row(si),
                                store.delta_row(si), store.bc(), 4, 5);
  }
  BcStore fresh(10, cfg);
  brandes_all(g, fresh);
  test::expect_near_spans(store.bc(), fresh.bc(), 1e-9, "bc");
  // Distances across the cut must be infinite in the updated store.
  EXPECT_EQ(store.dist_row(0)[9], kInfDist);
}

TEST(Removal, InsertThenRemoveRoundTripsExactly) {
  // insert(u,v) followed by remove(u,v) must restore all state.
  auto g = test::gnp_graph(36, 0.1, 77);
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(36, cfg);
  brandes_all(g, store);
  const std::vector<double> bc0(store.bc().begin(), store.bc().end());

  DynamicCpuEngine engine(36);
  BCDYN_SEEDED_RNG(rng, 11);
  for (int round = 0; round < 6; ++round) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    const auto g_plus = g.with_edge(u, v);
    for (int si = 0; si < store.num_sources(); ++si) {
      engine.update_source(g_plus, store.sources()[static_cast<std::size_t>(si)],
                           store.dist_row(si), store.sigma_row(si),
                           store.delta_row(si), store.bc(), u, v);
    }
    for (int si = 0; si < store.num_sources(); ++si) {
      engine.remove_update_source(
          g, store.sources()[static_cast<std::size_t>(si)], store.dist_row(si),
          store.sigma_row(si), store.delta_row(si), store.bc(), u, v);
    }
    test::expect_near_spans(store.bc(), bc0, 1e-7, "round trip");
  }
}

TEST(Removal, DynamicBcUsesIncrementalPathOnCpu) {
  const auto g = gen::small_world(200, 4, 0.1, 5);
  DynamicBc analytic(g, {.engine = EngineKind::kCpu,
                         .approx = {.num_sources = 24, .seed = 2}});
  analytic.compute();
  // Remove a handful of random existing edges via the public API.
  auto coo = g.to_coo();
  BCDYN_SEEDED_RNG(rng, 9);
  rng.shuffle(std::span(coo.edges));
  int case_total = 0;
  for (int i = 0; i < 5; ++i) {
    const auto [u, v] = coo.edges[static_cast<std::size_t>(i)];
    const auto r = analytic.remove_edge(u, v);
    EXPECT_TRUE(r.inserted);
    case_total += r.case1 + r.case2 + r.case3;
  }
  EXPECT_EQ(case_total, 5 * 24);  // per-source case accounting present
  EXPECT_LT(analytic.verify_against_recompute(), 1e-7);
}

TEST(Removal, GpuEnginesMatchStaticRecompute) {
  for (Parallelism mode : {Parallelism::kEdge, Parallelism::kNode}) {
    auto g = test::gnp_graph(40, 0.1, 313);
    ApproxConfig cfg{.num_sources = 10, .seed = 3};
    BcStore store(40, cfg);
    brandes_all(g, store);
    DynamicGpuBc engine(sim::DeviceSpec::tesla_c2075(), mode);
    BCDYN_SEEDED_RNG(rng, 17);
    for (int step = 0; step < 8; ++step) {
      COOGraph coo = g.to_coo();
      if (coo.edges.empty()) break;
      const auto [u, v] =
          coo.edges[static_cast<std::size_t>(rng.next_below(coo.edges.size()))];
      g = g.without_edge(u, v);
      engine.remove_edge_update(g, store, u, v);

      BcStore fresh(40, cfg);
      brandes_all(g, fresh);
      for (int si = 0; si < store.num_sources(); ++si) {
        const auto d_upd = store.dist_row(si);
        const auto d_ref = fresh.dist_row(si);
        const auto s_upd = store.sigma_row(si);
        const auto s_ref = fresh.sigma_row(si);
        for (std::size_t i = 0; i < d_upd.size(); ++i) {
          ASSERT_EQ(d_upd[i], d_ref[i])
              << to_string(mode) << " step=" << step << " si=" << si
              << " v=" << i << " removed=(" << u << "," << v << ")";
          ASSERT_DOUBLE_EQ(s_upd[i], s_ref[i])
              << to_string(mode) << " step=" << step << " si=" << si
              << " v=" << i;
        }
      }
      test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
    }
  }
}

TEST(Removal, GpuMixedInsertRemoveStream) {
  auto g = gen::small_world(100, 3, 0.1, 8);
  ApproxConfig cfg{.num_sources = 12, .seed = 4};
  BcStore store(g.num_vertices(), cfg);
  brandes_all(g, store);
  DynamicGpuBc engine(sim::DeviceSpec::gtx_560(), Parallelism::kNode);
  BCDYN_SEEDED_RNG(rng, 23);
  std::vector<std::pair<VertexId, VertexId>> added;
  for (int op = 0; op < 20; ++op) {
    if (rng.next_bool(0.6) || added.empty()) {
      const auto [u, v] = test::random_absent_edge(g, rng);
      g = g.with_edge(u, v);
      engine.insert_edge_update(g, store, u, v);
      added.emplace_back(u, v);
    } else {
      const auto [u, v] = added.back();
      added.pop_back();
      g = g.without_edge(u, v);
      engine.remove_edge_update(g, store, u, v);
    }
  }
  BcStore fresh(g.num_vertices(), cfg);
  brandes_all(g, fresh);
  test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
}

TEST(Removal, DynamicBcGpuEnginesRemoveIncrementally) {
  const auto g = test::gnp_graph(60, 0.08, 44);
  for (EngineKind kind : {EngineKind::kGpuEdge, EngineKind::kGpuNode}) {
    DynamicBc analytic(g, {.engine = kind, .approx = {.num_sources = 10, .seed = 5}});
    analytic.compute();
    auto coo = g.to_coo();
    BCDYN_SEEDED_RNG(rng, 6);
    rng.shuffle(std::span(coo.edges));
    for (int i = 0; i < 4; ++i) {
      const auto [u, v] = coo.edges[static_cast<std::size_t>(i)];
      const auto r = analytic.remove_edge(u, v);
      EXPECT_TRUE(r.inserted);
      EXPECT_EQ(r.case1 + r.case2 + r.case3, 10);
    }
    EXPECT_LT(analytic.verify_against_recompute(), 1e-7) << to_string(kind);
  }
}


// --- GPU decremental Case 3 ------------------------------------------------
// Distance-growing removals run the Case 3 repair (Phase 0 relevels the
// orphaned region, then the generalized repair) on every GPU engine shape.
// After every removal the full state must match a fresh Brandes: d exact,
// sigma to the last ulp, delta within 1e-9 relative and bc within 1e-7.

struct GpuVariant {
  const char* name;
  EngineKind engine;
  int devices;
  ShardPolicy shard_policy;
};

constexpr GpuVariant kGpuVariants[] = {
    {"gpu-node", EngineKind::kGpuNode, 1, ShardPolicy::kRoundRobin},
    {"gpu-edge", EngineKind::kGpuEdge, 1, ShardPolicy::kRoundRobin},
    {"sharded-node", EngineKind::kGpuNode, 2, ShardPolicy::kRoundRobin},
    {"sharded-edge", EngineKind::kGpuEdge, 2, ShardPolicy::kLptTouched},
    {"gpu-adaptive", EngineKind::kGpuAdaptive, 1, ShardPolicy::kRoundRobin},
};

DynamicBc make_gpu_bc(const CSRGraph& g, const GpuVariant& variant,
                      const ApproxConfig& approx) {
  DynamicBc bc(g, {.engine = variant.engine,
                   .approx = approx,
                   .num_devices = variant.devices,
                   .shard_policy = variant.shard_policy});
  bc.compute();
  return bc;
}

void expect_matches_brandes(const DynamicBc& bc, const std::string& what) {
  BcStore fresh(bc.graph().num_vertices(), bc.options().approx);
  brandes_all(bc.graph(), fresh);
  const BcStore& got = bc.store();
  for (int si = 0; si < got.num_sources(); ++si) {
    const auto d_upd = got.dist_row(si);
    const auto d_ref = fresh.dist_row(si);
    const auto s_upd = got.sigma_row(si);
    const auto s_ref = fresh.sigma_row(si);
    const auto dl_upd = got.delta_row(si);
    const auto dl_ref = fresh.delta_row(si);
    for (std::size_t v = 0; v < d_upd.size(); ++v) {
      ASSERT_EQ(d_upd[v], d_ref[v]) << what << " dist si=" << si << " v=" << v;
      ASSERT_DOUBLE_EQ(s_upd[v], s_ref[v])
          << what << " sigma si=" << si << " v=" << v;
      ASSERT_NEAR(dl_upd[v], dl_ref[v],
                  1e-9 * std::max(1.0, std::abs(dl_ref[v])))
          << what << " delta si=" << si << " v=" << v;
    }
  }
  test::expect_near_spans(got.bc(), fresh.bc(), 1e-7, what.c_str());
}

/// Removes `edges` in order on every GPU variant, checking the full state
/// after each removal. Returns the fewest Case 3 (source, removal) pairs
/// any variant reported.
int remove_on_every_gpu_engine(
    const CSRGraph& g, std::span<const std::pair<VertexId, VertexId>> edges,
    const ApproxConfig& approx) {
  int fewest = INT_MAX;
  for (const GpuVariant& variant : kGpuVariants) {
    DynamicBc bc = make_gpu_bc(g, variant, approx);
    int case3 = 0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto [u, v] = edges[i];
      const UpdateOutcome r = bc.remove_edge(u, v);
      EXPECT_EQ(r.inserted, 1) << variant.name << " removal " << i;
      case3 += r.case3;
      expect_matches_brandes(bc, std::string(variant.name) + " removal " +
                                     std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return 0;
    }
    fewest = std::min(fewest, case3);
  }
  return fewest;
}

/// rows x cols 4-neighbour grid, vertex r * cols + c.
CSRGraph grid_graph(VertexId rows, VertexId cols) {
  COOGraph coo;
  coo.num_vertices = rows * cols;
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      const VertexId v = r * cols + c;
      if (c + 1 < cols) coo.add_edge(v, v + 1);
      if (r + 1 < rows) coo.add_edge(v, v + cols);
    }
  }
  return CSRGraph::from_coo(std::move(coo));
}

const ApproxConfig kExact{.num_sources = 0, .seed = 1};

TEST(GpuRemovalCase3, CycleGrowsDistancesByManyLevels) {
  // Cutting a 41-cycle turns it into a path: vertices next to the cut move
  // from distance ~1 to ~39, every source is Case 3 on one side.
  const auto g = test::cycle_graph(41);
  const std::pair<VertexId, VertexId> edges[] = {{0, 1}, {20, 21}};
  EXPECT_GT(remove_on_every_gpu_engine(g, edges, kExact), 0);
}

TEST(GpuRemovalCase3, BridgeMakesDistancesInfinite) {
  // Two 12-vertex cliques joined by one bridge, plus a pendant path; every
  // removal disconnects something, so the orphans end unreachable.
  COOGraph coo;
  coo.num_vertices = 28;
  for (VertexId base : {0, 12}) {
    for (VertexId u = 0; u < 12; ++u) {
      for (VertexId v = u + 1; v < 12; ++v) coo.add_edge(base + u, base + v);
    }
  }
  coo.add_edge(5, 17);
  for (VertexId v = 24; v < 28; ++v) coo.add_edge(v - 1 == 23 ? 3 : v - 1, v);
  const auto g = CSRGraph::from_coo(std::move(coo));
  const std::pair<VertexId, VertexId> edges[] = {{5, 17}, {25, 26}, {3, 24}};
  EXPECT_GT(remove_on_every_gpu_engine(g, edges, kExact), 0);
}

TEST(GpuRemovalCase3, GridOrphansReparentOneLevelDeeper) {
  // In a grid every first-row vertex has one parent from the corner; cut
  // the row and the orphans fall back to the next row, one level deeper.
  const auto g = grid_graph(6, 7);
  const std::pair<VertexId, VertexId> edges[] = {
      {2, 3}, {7 * 3 + 1, 7 * 3 + 2}, {7 * 5 + 4, 7 * 5 + 5}, {10, 17}};
  EXPECT_GT(remove_on_every_gpu_engine(g, edges, kExact), 0);
}

TEST(GpuRemovalCase3, OrphanSubtreeReattachesAtSeveralLevels) {
  // A spine 0-1-...-10 and a subtree hanging off 1 at u_low = 20. The
  // subtree's leaves have back edges to the spine at depths 3, 6 and 9, so
  // cutting (1, 20) re-attaches the orphans at several new levels at once.
  COOGraph coo;
  coo.num_vertices = 26;
  for (VertexId v = 0; v < 10; ++v) coo.add_edge(v, v + 1);
  coo.add_edge(1, 20);
  coo.add_edge(20, 21);
  coo.add_edge(20, 22);
  coo.add_edge(21, 23);
  coo.add_edge(22, 24);
  coo.add_edge(23, 25);
  coo.add_edge(23, 6);
  coo.add_edge(24, 3);
  coo.add_edge(25, 9);
  const auto g = CSRGraph::from_coo(std::move(coo));
  const std::pair<VertexId, VertexId> edges[] = {{1, 20}, {22, 24}};
  EXPECT_GT(remove_on_every_gpu_engine(g, edges, kExact), 0);
}

TEST(GpuRemovalCase3, InsertCase3ThenRemoveRoundTrips) {
  // A shortcut insertion pulls distances in (insertion Case 3); removing
  // it again pushes them back out (removal Case 3) and restores bc.
  const auto g = gen::small_world(120, 2, 0.05, 12);
  const ApproxConfig approx{.num_sources = 16, .seed = 6};
  for (const GpuVariant& variant : kGpuVariants) {
    DynamicBc bc = make_gpu_bc(g, variant, approx);
    const std::vector<double> bc0(bc.scores().begin(), bc.scores().end());
    BCDYN_SEEDED_RNG(rng, 13);
    int case3_in = 0;
    int case3_out = 0;
    for (int round = 0; round < 4; ++round) {
      const auto [u, v] = test::random_absent_edge(bc.graph(), rng);
      case3_in += bc.insert_edge(u, v).case3;
      case3_out += bc.remove_edge(u, v).case3;
      ASSERT_NO_FATAL_FAILURE(expect_matches_brandes(
          bc, std::string(variant.name) + " round " + std::to_string(round)));
      test::expect_near_spans(bc.scores(), bc0, 1e-7, variant.name);
    }
    EXPECT_GT(case3_in, 0) << variant.name;
    EXPECT_GT(case3_out, 0) << variant.name;
  }
}

TEST(GpuRemovalCase3, SparseGraphRepairTouchesLessThanN) {
  // The repair pays for the region it changes, not the whole row: on a
  // sparse 2k-vertex graph a Case 3 removal must report touched < n.
  const auto g = gen::small_world(2000, 2, 0.05, 21);
  const VertexId n = g.num_vertices();
  auto coo = g.to_coo();
  BCDYN_SEEDED_RNG(rng, 22);
  rng.shuffle(std::span(coo.edges));
  const ApproxConfig approx{.num_sources = 8, .seed = 23};
  for (const GpuVariant& variant : kGpuVariants) {
    DynamicBc bc = make_gpu_bc(g, variant, approx);
    int case3 = 0;
    for (std::size_t i = 0; i < 40 && case3 == 0; ++i) {
      const auto [u, v] = coo.edges[i];
      const UpdateOutcome r = bc.remove_edge(u, v);
      case3 = r.case3;
      if (case3 > 0) {
        EXPECT_LT(r.max_touched, n) << variant.name;
      }
    }
    EXPECT_GT(case3, 0) << variant.name << ": no Case 3 removal in 40 edges";
    ASSERT_NO_FATAL_FAILURE(expect_matches_brandes(bc, variant.name));
  }
}

}  // namespace
}  // namespace bcdyn
