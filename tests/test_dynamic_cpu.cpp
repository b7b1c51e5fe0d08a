// The library's central correctness property: after any edge insertion the
// incrementally-updated per-source state (d, sigma, delta) and BC scores
// must equal a from-scratch static recomputation on the updated graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "bc/brandes.hpp"
#include "bc/dynamic_cpu.hpp"
#include "gen/generators.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

/// Applies `steps` random insertions to g, updating with the CPU engine and
/// checking full state equality against static recomputation after every
/// step. Reports the number of insertions actually performed via
/// `performed_out` (gtest ASSERTs require a void function).
void check_insertion_stream(CSRGraph g, const ApproxConfig& cfg, int steps,
                            std::uint64_t seed, bool force_general,
                            int* performed_out = nullptr) {
  const VertexId n = g.num_vertices();
  BcStore store(n, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(n);
  BCDYN_SEEDED_RNG(rng, seed);

  int performed = 0;
  for (int step = 0; step < steps; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    if (u == kNoVertex) break;
    g = g.with_edge(u, v);
    for (int si = 0; si < store.num_sources(); ++si) {
      const VertexId s = store.sources()[static_cast<std::size_t>(si)];
      engine.source_update(/*removal=*/false, g, s, store.dist_row(si),
                           store.sigma_row(si), store.delta_row(si), store.bc(),
                           u, v, force_general);
    }
    ++performed;
    if (performed_out != nullptr) *performed_out = performed;

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
            << " edge=(" << u << "," << v << ")";
        ASSERT_DOUBLE_EQ(s_upd[i], s_ref[i])
            << "sigma step=" << step << " si=" << si << " v=" << i;
        ASSERT_NEAR(dl_upd[i], dl_ref[i],
                    1e-9 * std::max(1.0, std::abs(dl_ref[i])))
            << "delta step=" << step << " si=" << si << " v=" << i;
      }
    }
    test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
  }
}

using StreamParam = std::tuple<int /*n*/, double /*p*/, int /*k*/,
                               std::uint64_t /*seed*/, bool /*general*/>;

class DynamicCpuStream : public ::testing::TestWithParam<StreamParam> {};

TEST_P(DynamicCpuStream, MatchesStaticRecomputeAfterEveryInsertion) {
  const auto [n, p, k, seed, general] = GetParam();
  const auto g = test::gnp_graph(static_cast<VertexId>(n), p, seed);
  ApproxConfig cfg{.num_sources = k, .seed = seed + 1};
  int performed = 0;
  check_insertion_stream(g, cfg, 12, seed + 2, general, &performed);
  EXPECT_GT(performed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphSweep, DynamicCpuStream,
    ::testing::Values(
        // Sparse: long BFS trees, many Case 3 insertions.
        StreamParam{30, 0.04, 0, 101, false},
        StreamParam{30, 0.04, 0, 102, false},
        StreamParam{48, 0.05, 0, 103, false},
        StreamParam{48, 0.05, 12, 104, false},
        // Denser: shallow trees, Case 1/2 dominate.
        StreamParam{30, 0.15, 0, 105, false},
        StreamParam{40, 0.20, 0, 106, false},
        StreamParam{40, 0.20, 10, 107, false},
        // Very sparse: disconnected, exercises component attachment.
        StreamParam{40, 0.02, 0, 108, false},
        StreamParam{64, 0.015, 0, 109, false},
        StreamParam{64, 0.015, 16, 110, false},
        // Same sweeps through the general (Case 3) path for Case 2 edges.
        StreamParam{30, 0.04, 0, 101, true},
        StreamParam{30, 0.15, 0, 105, true},
        StreamParam{40, 0.02, 0, 108, true},
        StreamParam{48, 0.05, 12, 104, true}));

TEST(DynamicCpu, PathGraphChordInsertions) {
  // Chords on a path create textbook Case 3 updates with long moved chains.
  auto g = test::path_graph(24);
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(24, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(24);
  const std::pair<VertexId, VertexId> chords[] = {
      {0, 23}, {0, 12}, {5, 18}, {2, 3} /* already present: no-op below */};
  for (const auto& [u, v] : chords) {
    if (g.has_edge(u, v)) continue;
    g = g.with_edge(u, v);
    for (int si = 0; si < store.num_sources(); ++si) {
      engine.source_update(/*removal=*/false, g,
                           store.sources()[static_cast<std::size_t>(si)],
                           store.dist_row(si), store.sigma_row(si),
                           store.delta_row(si), store.bc(), u, v);
    }
    BcStore fresh(24, cfg);
    brandes_all(g, fresh);
    test::expect_near_spans(store.bc(), fresh.bc(), 1e-8, "bc");
  }
}

TEST(DynamicCpu, ComponentAttachment) {
  // Two disjoint cliques; inserting a bridge attaches a whole component
  // (the one-endpoint-unreachable Case 3 sub-case) for every source.
  COOGraph coo;
  coo.num_vertices = 12;
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) {
      coo.add_edge(u, v);
      coo.add_edge(u + 6, v + 6);
    }
  }
  auto g = CSRGraph::from_coo(std::move(coo));
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(12, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(12);

  g = g.with_edge(2, 9);
  for (int si = 0; si < store.num_sources(); ++si) {
    const auto r = engine.source_update(
        /*removal=*/false, g, store.sources()[static_cast<std::size_t>(si)],
        store.dist_row(si), store.sigma_row(si), store.delta_row(si),
        store.bc(), 2, 9);
    EXPECT_EQ(r.update_case, UpdateCase::kFar);
  }
  BcStore fresh(12, cfg);
  brandes_all(g, fresh);
  test::expect_near_spans(store.bc(), fresh.bc(), 1e-9, "bc");
  // The bridge endpoints now carry all cross-clique pairs.
  EXPECT_GT(store.bc()[2], 0.0);
  EXPECT_GT(store.bc()[9], 0.0);
}

TEST(DynamicCpu, Case1InsertionLeavesStateUntouched) {
  // A 4-cycle: opposite corners are equidistant from every vertex...
  // actually use two vertices at equal distance from all sources of a
  // symmetric graph: on C4, vertices 1 and 3 are both at distance 1 from 0
  // and 2, and distance (0,2) from each other... we verify via the engine.
  auto g = test::cycle_graph(4);
  ApproxConfig cfg{.num_sources = 0, .seed = 1};
  BcStore store(4, cfg);
  brandes_all(g, store);
  const std::vector<double> bc_before(store.bc().begin(), store.bc().end());

  DynamicCpuEngine engine(4);
  g = g.with_edge(1, 3);  // d(1)=d(3) from sources 0 and 2; case 2 from 1, 3
  int case1 = 0;
  for (int si = 0; si < store.num_sources(); ++si) {
    const auto r = engine.source_update(
        /*removal=*/false, g, store.sources()[static_cast<std::size_t>(si)],
        store.dist_row(si), store.sigma_row(si), store.delta_row(si),
        store.bc(), 1, 3);
    if (r.update_case == UpdateCase::kNoWork) {
      ++case1;
      EXPECT_EQ(r.touched, 0);
    }
  }
  EXPECT_EQ(case1, 2);  // sources 0 and 2 see |d(1)-d(3)| = 0
  BcStore fresh(4, cfg);
  brandes_all(g, fresh);
  test::expect_near_spans(store.bc(), fresh.bc(), 1e-12, "bc");
  (void)bc_before;
}

TEST(DynamicCpu, TouchedCountBoundedByN) {
  auto g = gen::small_world(300, 3, 0.05, 5);
  ApproxConfig cfg{.num_sources = 8, .seed = 3};
  BcStore store(300, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(300);
  BCDYN_SEEDED_RNG(rng, 77);
  for (int step = 0; step < 5; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    g = g.with_edge(u, v);
    for (int si = 0; si < store.num_sources(); ++si) {
      const auto r = engine.source_update(
          /*removal=*/false, g, store.sources()[static_cast<std::size_t>(si)],
          store.dist_row(si), store.sigma_row(si), store.delta_row(si),
          store.bc(), u, v);
      EXPECT_LE(r.touched, 300);
        if (r.update_case == UpdateCase::kNoWork) {
        EXPECT_EQ(r.touched, 0);
      }
    }
  }
}

TEST(DynamicCpu, CountersIncreaseMonotonically) {
  auto g = test::gnp_graph(40, 0.1, 9);
  ApproxConfig cfg{.num_sources = 4, .seed = 1};
  BcStore store(40, cfg);
  brandes_all(g, store);
  DynamicCpuEngine engine(40);
  BCDYN_SEEDED_RNG(rng, 13);
  std::uint64_t last = 0;
  for (int step = 0; step < 3; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    g = g.with_edge(u, v);
    engine.store_update(/*removal=*/false, g, store, u, v);
    const auto& ops = engine.counters();
    EXPECT_GT(ops.reads + ops.writes, last);
    last = ops.reads + ops.writes;
  }
  engine.reset_counters();
  EXPECT_EQ(engine.counters().reads, 0u);
}

// Modeled multi-core lanes (bench/scaling_cpu_cores): lane i updates the
// i-th contiguous chunk of ceil(k / lanes) sources with an engine of its
// own, lanes in ascending order. 0 lanes is the store-level entry.
std::vector<SourceUpdateOutcome> lane_update(
    bool insert, const CSRGraph& g, BcStore& store,
    std::vector<DynamicCpuEngine>& engines, int lanes, VertexId u,
    VertexId v) {
  if (lanes == 0) {
    return engines[0].store_update(!insert, g, store, u, v);
  }
  const int k = store.num_sources();
  const int chunk = (k + lanes - 1) / lanes;
  std::vector<SourceUpdateOutcome> outcomes(static_cast<std::size_t>(k));
  for (int si = 0; si < k; ++si) {
    auto& engine = engines[static_cast<std::size_t>(si / chunk)];
    const VertexId s = store.sources()[static_cast<std::size_t>(si)];
    outcomes[static_cast<std::size_t>(si)] = engine.source_update(
        !insert, g, s, store.dist_row(si), store.sigma_row(si),
        store.delta_row(si), store.bc(), u, v);
  }
  return outcomes;
}

std::vector<DynamicCpuEngine> lane_engines(VertexId n, int lanes) {
  return std::vector<DynamicCpuEngine>(
      static_cast<std::size_t>(std::max(1, lanes)), DynamicCpuEngine(n));
}

class CpuParallelWorkers : public ::testing::TestWithParam<int> {};

TEST_P(CpuParallelWorkers, InsertionStreamMatchesStaticRecompute) {
  const int lanes = GetParam();
  auto g = test::gnp_graph(60, 0.06, 811);
  ApproxConfig cfg{.num_sources = 14, .seed = 2};
  BcStore store(60, cfg);
  brandes_all(g, store);
  auto engines = lane_engines(60, lanes);

  BCDYN_SEEDED_RNG(rng, 31);
  for (int step = 0; step < 8; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    g = g.with_edge(u, v);
    const auto outcomes = lane_update(true, g, store, engines, lanes, u, v);
    ASSERT_EQ(outcomes.size(), 14u);

    BcStore fresh(60, cfg);
    brandes_all(g, fresh);
    for (int si = 0; si < store.num_sources(); ++si) {
      const auto d_upd = store.dist_row(si);
      const auto d_ref = fresh.dist_row(si);
      for (std::size_t i = 0; i < d_upd.size(); ++i) {
        ASSERT_EQ(d_upd[i], d_ref[i])
            << "lanes=" << lanes << " step=" << step << " si=" << si;
      }
    }
    test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
  }
}

TEST_P(CpuParallelWorkers, MixedStreamWithRemovals) {
  const int lanes = GetParam();
  auto g = gen::small_world(120, 3, 0.1, 17);
  ApproxConfig cfg{.num_sources = 10, .seed = 3};
  BcStore store(g.num_vertices(), cfg);
  brandes_all(g, store);
  auto engines = lane_engines(g.num_vertices(), lanes);

  BCDYN_SEEDED_RNG(rng, 71);
  std::vector<std::pair<VertexId, VertexId>> added;
  for (int op = 0; op < 14; ++op) {
    if (rng.next_bool(0.65) || added.empty()) {
      const auto [u, v] = test::random_absent_edge(g, rng);
      g = g.with_edge(u, v);
      lane_update(true, g, store, engines, lanes, u, v);
      added.emplace_back(u, v);
    } else {
      const auto [u, v] = added.back();
      added.pop_back();
      g = g.without_edge(u, v);
      lane_update(false, g, store, engines, lanes, u, v);
    }
  }
  BcStore fresh(g.num_vertices(), cfg);
  brandes_all(g, fresh);
  test::expect_near_spans(store.bc(), fresh.bc(), 1e-7, "bc");
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, CpuParallelWorkers,
                         ::testing::Values(0, 1, 3, 8));

// Four lanes' counters add up to the store-level update's counter delta.
TEST(CpuParallel, CountersAggregateAcrossLanes) {
  auto g = test::gnp_graph(40, 0.1, 5);
  ApproxConfig cfg{.num_sources = 12, .seed = 1};
  BcStore store_lanes(40, cfg);
  brandes_all(g, store_lanes);
  BcStore store_whole = store_lanes;
  auto engines = lane_engines(40, 4);
  DynamicCpuEngine whole(40);
  BCDYN_SEEDED_RNG(rng, 2);
  const auto [u, v] = test::random_absent_edge(g, rng);
  g = g.with_edge(u, v);
  lane_update(true, g, store_lanes, engines, 4, u, v);
  whole.store_update(/*removal=*/false, g, store_whole, u, v);
  CpuOpCounters ops;
  for (const auto& engine : engines) ops += engine.counters();
  EXPECT_GT(ops.reads, 0u);
  EXPECT_GT(ops.writes, 0u);
  EXPECT_EQ(ops, whole.counters());
}

// The store-level entry reports what a per-source loop reports.
TEST(CpuParallel, OutcomesMatchSequentialEngine) {
  auto g = test::gnp_graph(50, 0.08, 66);
  ApproxConfig cfg{.num_sources = 16, .seed = 4};
  BcStore store_par(50, cfg);
  BcStore store_seq(50, cfg);
  brandes_all(g, store_par);
  brandes_all(g, store_seq);
  DynamicCpuEngine par(50);
  DynamicCpuEngine seq(50);

  BCDYN_SEEDED_RNG(rng, 9);
  const auto [u, v] = test::random_absent_edge(g, rng);
  g = g.with_edge(u, v);
  const auto outcomes = par.store_update(/*removal=*/false, g, store_par, u, v);
  for (int si = 0; si < 16; ++si) {
    const auto r = seq.source_update(
        /*removal=*/false, g, store_seq.sources()[static_cast<std::size_t>(si)],
        store_seq.dist_row(si), store_seq.sigma_row(si),
        store_seq.delta_row(si), store_seq.bc(), u, v);
    EXPECT_EQ(outcomes[static_cast<std::size_t>(si)].update_case,
              r.update_case)
        << si;
    EXPECT_EQ(outcomes[static_cast<std::size_t>(si)].touched, r.touched)
        << si;
  }
  test::expect_near_spans(store_par.bc(), store_seq.bc(), 1e-9, "bc");
}

// The property the multi-core lane model (bench/scaling_cpu_cores) rests
// on: a lane's cost is the sum of its chunk's per-source counters. Twins
// of one store walk the sources one by one in chunks of 1, 3 and k, next
// to the store-level update, over a mixed insert/remove stream.
TEST(DynamicCpu, SourceChunkCountersSumToStoreUpdate) {
  auto g = gen::small_world(120, 3, 0.1, 17);
  const ApproxConfig cfg{.num_sources = 10, .seed = 3};
  const VertexId n = g.num_vertices();
  BcStore whole(n, cfg);
  brandes_all(g, whole);
  DynamicCpuEngine whole_engine(n);
  const int k = whole.num_sources();

  struct Twin {
    int chunk;
    bool reversed;  // descending source order: a different source runs first
    BcStore store;
    DynamicCpuEngine engine;
  };
  std::vector<Twin> twins;
  for (const auto& [chunk, reversed] : {std::pair{1, false}, std::pair{3, false},
                                       std::pair{k, false}, std::pair{1, true}}) {
    twins.push_back({chunk, reversed, whole, DynamicCpuEngine(n)});
  }

  BCDYN_SEEDED_RNG(rng, 71);
  std::vector<std::pair<VertexId, VertexId>> added;
  std::vector<CpuOpCounters> source_ops(static_cast<std::size_t>(k));
  int removals = 0;
  for (int op = 0; op < 16; ++op) {
    const bool insert = added.empty() || rng.next_bool(0.6);
    VertexId u = 0;
    VertexId v = 0;
    if (insert) {
      std::tie(u, v) = test::random_absent_edge(g, rng);
      g = g.with_edge(u, v);
      added.emplace_back(u, v);
    } else {
      std::tie(u, v) = added.back();
      added.pop_back();
      g = g.without_edge(u, v);
      ++removals;
    }
    const CpuOpCounters before = whole_engine.counters();
    whole_engine.store_update(!insert, g, whole, u, v, source_ops);
    CpuOpCounters summed;
    for (const auto& ops : source_ops) summed += ops;
    EXPECT_EQ(summed, whole_engine.counters() - before) << "op=" << op;

    for (auto& twin : twins) {
      for (int begin = 0; begin < k; begin += twin.chunk) {
        const CpuOpCounters chunk_before = twin.engine.counters();
        CpuOpCounters expected;
        for (int j = begin; j < std::min(k, begin + twin.chunk); ++j) {
          const int si = twin.reversed ? k - 1 - j : j;
          const VertexId s = twin.store.sources()[static_cast<std::size_t>(si)];
          BcStore& st = twin.store;
          twin.engine.source_update(!insert, g, s, st.dist_row(si),
                                    st.sigma_row(si), st.delta_row(si),
                                    st.bc(), u, v);
          expected += source_ops[static_cast<std::size_t>(si)];
        }
        EXPECT_EQ(twin.engine.counters() - chunk_before, expected)
            << "op=" << op << " chunk=" << twin.chunk
            << " reversed=" << twin.reversed << " begin=" << begin;
      }
      for (int si = 0; si < k; ++si) {
        ASSERT_TRUE(std::ranges::equal(twin.store.dist_row(si),
                                       whole.dist_row(si)));
        ASSERT_TRUE(std::ranges::equal(twin.store.sigma_row(si),
                                       whole.sigma_row(si)));
        ASSERT_TRUE(std::ranges::equal(twin.store.delta_row(si),
                                       whole.delta_row(si)));
      }
      // Ascending twins fold into the scores in the store-level order.
      if (!twin.reversed) {
        ASSERT_TRUE(std::ranges::equal(twin.store.bc(), whole.bc()))
            << "op=" << op << " chunk=" << twin.chunk;
      }
    }
  }
  EXPECT_GT(removals, 0);
}

/// One source's expected outcome of one update: its case and its
/// CpuOpCounters delta.
struct GoldenSource {
  int update_case;
  std::uint64_t instrs;
  std::uint64_t reads;
  std::uint64_t writes;
};

struct GoldenOp {
  bool insert;
  VertexId u;
  VertexId v;
  std::vector<GoldenSource> sources;  // by source index
};

void expect_golden_stream(CSRGraph g, const std::vector<GoldenOp>& ops,
                          const std::vector<double>& scores) {
  BcStore store(g.num_vertices(), {.num_sources = 5, .seed = 1});
  brandes_all(g, store);
  DynamicCpuEngine engine(g.num_vertices());
  std::vector<CpuOpCounters> source_ops(5);
  for (std::size_t op = 0; op < ops.size(); ++op) {
    const GoldenOp& want = ops[op];
    ASSERT_TRUE(want.insert ? g.insert_edge(want.u, want.v)
                            : g.remove_edge(want.u, want.v));
    const std::vector<SourceUpdateOutcome> out = engine.store_update(
        !want.insert, g, store, want.u, want.v, source_ops);
    ASSERT_EQ(out.size(), want.sources.size());
    for (std::size_t si = 0; si < out.size(); ++si) {
      const GoldenSource& w = want.sources[si];
      EXPECT_EQ(static_cast<int>(out[si].update_case), w.update_case)
          << "op " << op << " source " << si;
      EXPECT_EQ(source_ops[si],
                (CpuOpCounters{.instrs = w.instrs, .reads = w.reads,
                               .writes = w.writes}))
          << "op " << op << " source " << si;
    }
  }
  ASSERT_EQ(store.bc().size(), scores.size());
  for (std::size_t v = 0; v < scores.size(); ++v) {
    EXPECT_EQ(store.bc()[v], scores[v]) << "vertex " << v;
  }
}

// Absolute per-source counters and hex-float scores of a fixed mixed
// stream, captured from the engine while it still kept separate Case 2
// bodies for insertions and removals. Each stream hits Case 1, Case 2 and
// Case 3 in both directions; a removal's Case 3 is the distance-growing
// recompute. Any change here changes the modeled CPU baseline.
TEST(DynamicCpu, MixedStreamCountersMatchGolden) {
  expect_golden_stream(
      gen::small_world(16, 2, 0.2, 5),
      {{true, 0, 8,
        {{3, 229, 406, 218}, {3, 267, 464, 237}, {3, 386, 632, 271},
         {1, 4, 2, 0}, {3, 189, 347, 200}}},
       {false, 4, 6,
        {{2, 94, 183, 114}, {3, 4, 296, 55}, {3, 4, 296, 58},
         {3, 4, 296, 60}, {3, 4, 296, 59}}},
       {true, 5, 12,
        {{2, 116, 205, 114}, {1, 4, 2, 0}, {1, 4, 2, 0},
         {3, 298, 534, 265}, {3, 218, 390, 217}}},
       {false, 0, 1,
        {{3, 4, 298, 59}, {1, 4, 2, 0}, {3, 4, 298, 57},
         {1, 4, 2, 0}, {1, 4, 2, 0}}},
       {false, 10, 12,
        {{3, 4, 288, 60}, {2, 68, 135, 94}, {3, 4, 288, 59},
         {3, 4, 288, 60}, {3, 4, 288, 60}}},
       {true, 3, 7,
        {{3, 291, 514, 254}, {3, 173, 316, 189}, {3, 183, 341, 200},
         {2, 204, 354, 168}, {3, 255, 490, 262}}},
       {false, 2, 3,
        {{1, 4, 2, 0}, {3, 4, 290, 55}, {1, 4, 2, 0},
         {1, 4, 2, 0}, {1, 4, 2, 0}}},
       {false, 13, 14,
        {{1, 4, 2, 0}, {2, 76, 159, 106}, {2, 88, 177, 114},
         {1, 4, 2, 0}, {1, 4, 2, 0}}}},
      {0x1.f249249249247p+3, 0x1.caaaaaaaaaaa7p+1, 0x1.8cf3cf3cf3cf3p+2,
       0x1.14f3cf3cf3cf4p+3, 0x1.4p+1, 0x1.1d55555555556p+3,
       0x1.155555555555cp+1, 0x1.4249249249248p+3, 0x1.3e18618618616p+3,
       0x1.cf3cf3cf3cf3cp+1, 0x1.aaaaaaaaaaaaap-1, 0x1.4c30c30c30c3p+2,
       0x1.c492492492494p+1, 0x1.6924924924925p+1, 0x1.19e79e79e79e8p+1,
       0x1.4c30c30c30c2fp+2});
  expect_golden_stream(
      gen::preferential_attachment(16, 1, 3),
      {{true, 4, 12,
        {{2, 32, 79, 78}, {2, 46, 101, 86}, {2, 56, 119, 94},
         {3, 60, 134, 135}, {2, 82, 161, 110}}},
       {false, 1, 11,
        {{3, 4, 156, 51}, {3, 4, 156, 51}, {3, 4, 156, 51},
         {2, 32, 83, 78}, {3, 4, 156, 51}}},
       {false, 3, 9,
        {{3, 4, 152, 51}, {3, 4, 152, 50}, {3, 4, 152, 51},
         {3, 4, 152, 52}, {3, 4, 154, 54}}},
       {true, 5, 6,
        {{1, 4, 2, 0}, {1, 4, 2, 0}, {1, 4, 2, 0},
         {1, 4, 2, 0}, {1, 4, 2, 0}}},
       {false, 2, 8,
        {{3, 4, 146, 49}, {3, 4, 146, 48}, {3, 4, 150, 53},
         {3, 4, 146, 50}, {1, 4, 2, 0}}}},
      {0x0p+0, 0x1.8p+3, 0x1p+3, 0x1.2p+3, 0x1p+2, 0x0p+0, 0x0p+0, 0x0p+0,
       0x0p+0, 0x1p+1, 0x0p+0, 0x0p+0, 0x1.8p+1, 0x0p+0, 0x0p+0, 0x0p+0});
}

}  // namespace
}  // namespace bcdyn
