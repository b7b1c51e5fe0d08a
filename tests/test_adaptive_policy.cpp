// Adaptive edge/node parallelism policy (bc/adaptive_policy.hpp) and the
// gpu-adaptive engine built on it.
//
// The load-bearing properties:
//   * decisions are pure: identical configuration + identical call
//     sequence => identical decision logs and identical scores;
//   * runs forced all-edge / all-node (a recorded log replayed with every
//     mode rewritten) are bit-identical to the fixed gpu-edge / gpu-node
//     engines (same kernels, same float-fold order, same modeled cycles);
//   * a recorded decision log replays to a bit-identical run, and replay
//     throws on any divergence from the recorded call sequence;
//   * the estimator prefers node-parallel on the generator suite's
//     bounded-degree graphs and edge-parallel on a hub-dominated star;
//   * a randomized stream over the generator suite runs hazard-clean in
//     strict mode and stays consistent with a from-scratch recompute.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bc/adaptive_policy.hpp"
#include "bc/batch_update.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
#include "gen/suite.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

struct RunResult {
  double modeled_seconds = 0.0;
  std::vector<double> scores;
  std::vector<DecisionRecord> log;
};

/// The canonical workload: static pass, per-edge insertions, one batch,
/// then removals of the first inserted edges. Exercises every launch kind
/// the policy plans (static, case 2/3 inserts, batch, adjacent and
/// distance-growing removals).
RunResult run_workload(const CSRGraph& g, const bc::Options& opts,
                       std::uint64_t stream_seed = 99,
                       std::vector<DecisionRecord> replay_log = {},
                       bool replay = false) {
  DynamicBc bc(g, opts);
  if (replay) {
    EXPECT_NE(bc.policy(), nullptr);
    bc.policy()->replay(std::move(replay_log));
  }
  RunResult r;
  r.modeled_seconds += bc.compute();

  util::Rng rng(stream_seed);
  std::vector<std::pair<VertexId, VertexId>> applied;
  for (int i = 0; i < 4; ++i) {
    const auto [u, v] = test::random_absent_edge(bc.graph(), rng);
    if (u == kNoVertex) break;
    const auto outcome = bc.insert_edge(u, v);
    EXPECT_TRUE(outcome.inserted);
    r.modeled_seconds += outcome.modeled_seconds;
    applied.emplace_back(u, v);
  }
  std::vector<std::pair<VertexId, VertexId>> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(test::random_absent_edge(bc.graph(), rng));
  }
  r.modeled_seconds += bc.insert_edge_batch(batch).modeled_seconds;
  for (std::size_t i = 0; i < 2 && i < applied.size(); ++i) {
    r.modeled_seconds +=
        bc.remove_edge(applied[i].first, applied[i].second).modeled_seconds;
  }

  r.scores.assign(bc.scores().begin(), bc.scores().end());
  if (bc.policy() != nullptr) r.log = bc.policy()->log();
  return r;
}

void expect_bit_identical(const RunResult& a, const RunResult& b,
                          const char* what) {
  EXPECT_EQ(a.modeled_seconds, b.modeled_seconds) << what;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << what;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    ASSERT_EQ(a.scores[i], b.scores[i]) << what << " score " << i;
  }
}

bc::Options adaptive_options(AdaptiveConfig cfg = {}) {
  return {.engine = EngineKind::kGpuAdaptive,
          .approx = {.num_sources = 12, .seed = 5},
          .adaptive = cfg};
}

TEST(AdaptivePolicy, DecisionsArePureFunctionsOfFeaturesAndSeed) {
  const sim::DeviceSpec spec = sim::DeviceSpec::tesla_c2075();
  const sim::CostModel cost;
  ParallelismPolicy a({.seed = 11}, spec, cost);
  ParallelismPolicy b({.seed = 11}, spec, cost);

  GraphFeatures gf;
  gf.n = 500;
  gf.arcs = 4000;
  gf.avg_degree = 8.0;
  gf.max_degree = 40;
  gf.degree_cv = 1.2;
  gf.levels = 6;
  gf.frontier_rounds = 8;
  gf.divergence_sum = 120.0;
  gf.reached = 500;
  for (int kind = 0; kind < kNumLaunchKinds; ++kind) {
    for (int si = 0; si < 20; ++si) {
      DecisionFeatures f;
      f.kind = static_cast<LaunchKind>(kind);
      f.source_index = si;
      f.graph = gf;
      f.d_low = si % 5;
      f.levels = 1 + si % 4;
      f.batch_case2 = si;
      f.batch_case3 = 20 - si;
      EXPECT_EQ(a.decide(f), b.decide(f))
          << "kind " << kind << " source " << si;
    }
  }
  ASSERT_EQ(a.log().size(), b.log().size());
  for (std::size_t i = 0; i < a.log().size(); ++i) {
    EXPECT_EQ(ParallelismPolicy::record_line(a.log()[i]),
              ParallelismPolicy::record_line(b.log()[i]));
  }
}

TEST(AdaptivePolicy, IdenticalRunsProduceIdenticalLogsAndScores) {
  const auto g = test::gnp_graph(60, 0.07, 21);
  const RunResult a = run_workload(g, adaptive_options());
  const RunResult b = run_workload(g, adaptive_options());
  expect_bit_identical(a, b, "repeat run");
  ASSERT_EQ(a.log.size(), b.log.size());
  ASSERT_GT(a.log.size(), 0u);
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(ParallelismPolicy::record_line(a.log[i]),
              ParallelismPolicy::record_line(b.log[i]));
  }
}

/// Records an auto run's decision log, rewrites every record to `mode`
/// (unexplored), and replays it: the run every decision forced to `mode`.
RunResult run_forced(const CSRGraph& g, Parallelism mode) {
  std::vector<DecisionRecord> log = run_workload(g, adaptive_options()).log;
  for (DecisionRecord& rec : log) {
    rec.mode = mode;
    rec.explored = false;
  }
  return run_workload(g, adaptive_options(), 99, std::move(log),
                      /*replay=*/true);
}

TEST(AdaptivePolicy, ForcedEdgeMatchesGpuEdgeBitIdentically) {
  const auto g = test::gnp_graph(60, 0.07, 33);
  const RunResult fixed = run_workload(
      g, {.engine = EngineKind::kGpuEdge, .approx = {.num_sources = 12,
                                                     .seed = 5}});
  const RunResult forced = run_forced(g, Parallelism::kEdge);
  expect_bit_identical(fixed, forced, "forced edge vs gpu-edge");
  ASSERT_GT(forced.log.size(), 0u);
  for (const auto& rec : forced.log) {
    EXPECT_EQ(rec.mode, Parallelism::kEdge);
    EXPECT_FALSE(rec.explored);
  }
}

TEST(AdaptivePolicy, ForcedNodeMatchesGpuNodeBitIdentically) {
  const auto g = test::gnp_graph(60, 0.07, 33);
  const RunResult fixed = run_workload(
      g, {.engine = EngineKind::kGpuNode, .approx = {.num_sources = 12,
                                                     .seed = 5}});
  const RunResult forced = run_forced(g, Parallelism::kNode);
  expect_bit_identical(fixed, forced, "forced node vs gpu-node");
  ASSERT_GT(forced.log.size(), 0u);
  for (const auto& rec : forced.log) {
    EXPECT_EQ(rec.mode, Parallelism::kNode);
    EXPECT_FALSE(rec.explored);
  }
}

TEST(AdaptivePolicy, ReplayReproducesTheRecordedRunBitIdentically) {
  const auto g = test::gnp_graph(60, 0.07, 47);
  // Exploration on (small period) so the replayed log contains probes too.
  const AdaptiveConfig cfg{.seed = 3, .explore_period = 4,
                           .explore_margin = 4.0};
  const RunResult recorded = run_workload(g, adaptive_options(cfg));
  ASSERT_GT(recorded.log.size(), 0u);
  const RunResult replayed =
      run_workload(g, adaptive_options(cfg), 99, recorded.log,
                   /*replay=*/true);
  expect_bit_identical(recorded, replayed, "replay");
  ASSERT_EQ(replayed.log.size(), recorded.log.size());
  for (std::size_t i = 0; i < recorded.log.size(); ++i) {
    EXPECT_EQ(recorded.log[i].mode, replayed.log[i].mode) << i;
  }
}

TEST(AdaptivePolicy, ReplayThrowsWhenTheCallSequenceDiverges) {
  const auto g = test::gnp_graph(60, 0.07, 47);
  // Record the static pass only; replaying it against the full workload
  // exhausts the log at the first update and must throw, not guess.
  DynamicBc recorder(g, adaptive_options());
  recorder.compute();
  const std::vector<DecisionRecord> static_only = recorder.policy()->log();
  ASSERT_GT(static_only.size(), 0u);

  DynamicBc replayer(g, adaptive_options());
  replayer.policy()->replay(static_only);
  replayer.compute();  // consumes the whole log
  BCDYN_SEEDED_RNG(rng, 8);
  const auto [u, v] = test::random_absent_edge(replayer.graph(), rng);
  EXPECT_THROW(replayer.insert_edge(u, v), std::runtime_error);
}

TEST(AdaptivePolicy, SuiteGraphsPlanNodeStarPlansEdge) {
  const sim::DeviceSpec spec = sim::DeviceSpec::tesla_c2075();
  const sim::CostModel cost;

  // Bounded-degree suite graph: node-parallel must win the static pass
  // (the paper's headline result at these scales).
  {
    const auto entry = gen::build_suite_graph("del", 0.05, 7);
    BcStore store(entry.graph.num_vertices(), {.num_sources = 6, .seed = 2});
    ParallelismPolicy policy({}, spec, cost);
    const LaunchPlan plan = policy.plan_static(entry.graph, store);
    for (int si = 0; si < store.num_sources(); ++si) {
      EXPECT_EQ(plan.mode_or(si, Parallelism::kEdge), Parallelism::kNode)
          << "source " << si;
    }
  }

  // Hub-dominated star: one giant-degree vertex serializes a node-parallel
  // traversal, so the policy must flip to edge-parallel.
  {
    const auto star = test::star_graph(1500);
    BcStore store(star.num_vertices(), {.num_sources = 6, .seed = 2});
    ParallelismPolicy policy({}, spec, cost);
    const LaunchPlan plan = policy.plan_static(star, store);
    for (int si = 0; si < store.num_sources(); ++si) {
      EXPECT_EQ(plan.mode_or(si, Parallelism::kNode), Parallelism::kEdge)
          << "source " << si;
    }
  }
}

TEST(AdaptivePolicy, AdaptiveEngineOnStarAgreesWithCpu) {
  const auto star = test::star_graph(300);
  DynamicBc cpu(star, {.engine = EngineKind::kCpu,
                       .approx = {.num_sources = 8, .seed = 4}});
  DynamicBc adaptive(star, {.engine = EngineKind::kGpuAdaptive,
                            .approx = {.num_sources = 8, .seed = 4}});
  cpu.compute();
  adaptive.compute();
  EXPECT_GT(adaptive.policy()->decisions(Parallelism::kEdge), 0u);
  BCDYN_SEEDED_RNG(rng, 13);
  for (int i = 0; i < 3; ++i) {
    const auto [u, v] = test::random_absent_edge(cpu.graph(), rng);
    EXPECT_TRUE(cpu.insert_edge(u, v).inserted);
    EXPECT_TRUE(adaptive.insert_edge(u, v).inserted);
  }
  test::expect_near_spans(adaptive.scores(), cpu.scores(), 1e-7,
                          "adaptive vs cpu on star");
}

TEST(AdaptivePolicy, Case3RemovalFeedbackLeavesTheStaticArmAlone) {
  // Cutting a path's middle edge grows distances for every source: each is
  // planned as the Case 3 repair, and its measured cycles must train the
  // Case 3 arm, never the static pass's learned rate.
  const auto g = test::path_graph(10);
  BcStore store(10, ApproxConfig{.num_sources = 0, .seed = 1});
  brandes_all(g, store);
  const CSRGraph cut = g.without_edge(4, 5);
  ParallelismPolicy policy;
  const DecisionFeatures stat = ParallelismPolicy::static_features(
      0, policy.graph_features(cut, store.sources()[0]));
  const double static_edge = policy.estimate_cycles(stat, Parallelism::kEdge);
  const double static_node = policy.estimate_cycles(stat, Parallelism::kNode);

  const LaunchPlan plan = policy.plan_remove(cut, store, 4, 5);
  const auto k = static_cast<std::size_t>(store.num_sources());
  std::vector<double> cycles(k, 0.0);
  std::vector<double> case3_before(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_TRUE(plan.decided[i]) << "source " << i;
    EXPECT_EQ(plan.features[i].kind, LaunchKind::kCase3) << "source " << i;
    case3_before[i] = policy.estimate_cycles(plan.features[i], plan.modes[i]);
    cycles[i] = 5.0 * case3_before[i];
  }
  policy.apply_feedback(plan, cycles, {});

  EXPECT_EQ(policy.estimate_cycles(stat, Parallelism::kEdge), static_edge);
  EXPECT_EQ(policy.estimate_cycles(stat, Parallelism::kNode), static_node);
  EXPECT_GT(policy.estimate_cycles(plan.features[0], plan.modes[0]),
            case3_before[0])
      << "the Case 3 arm learned nothing from the removal";
}

TEST(AdaptivePolicy, DecisionRecordLinesAreWellFormed) {
  const auto g = test::gnp_graph(40, 0.1, 9);
  const RunResult r = run_workload(g, adaptive_options());
  ASSERT_GT(r.log.size(), 0u);
  for (std::size_t i = 0; i < r.log.size(); ++i) {
    EXPECT_EQ(r.log[i].seq, static_cast<std::uint64_t>(i));
    const std::string line = ParallelismPolicy::record_line(r.log[i]);
    int fields = line.empty() ? 0 : 1;
    for (const char c : line) {
      if (c == ' ') ++fields;
    }
    EXPECT_EQ(fields, 7) << line;
    EXPECT_GT(r.log[i].est_edge_cycles, 0.0);
    EXPECT_GT(r.log[i].est_node_cycles, 0.0);
  }
}

TEST(AdaptivePolicyFuzz, SuiteStreamIsHazardCleanAndConsistent) {
  for (const std::string& name : gen::suite_names()) {
    SCOPED_TRACE(name);
    const auto entry = gen::build_suite_graph(name, 0.05, 7);
    test::HazardScope hazards(/*strict=*/true);
    DynamicBc bc(entry.graph, {.engine = EngineKind::kGpuAdaptive,
                               .approx = {.num_sources = 8, .seed = 3}});
    bc.compute();
    BCDYN_SEEDED_RNG(rng, 0x5eedu ^ std::hash<std::string>{}(name));
    std::vector<std::pair<VertexId, VertexId>> applied;
    for (int i = 0; i < 3; ++i) {
      const auto [u, v] = test::random_absent_edge(bc.graph(), rng);
      if (bc.insert_edge(u, v).inserted) applied.emplace_back(u, v);
    }
    std::vector<std::pair<VertexId, VertexId>> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back(test::random_absent_edge(bc.graph(), rng));
    }
    bc.insert_edge_batch(batch);
    if (!applied.empty()) {
      bc.remove_edge(applied.front().first, applied.front().second);
    }
    EXPECT_EQ(sim::hazards().violations(), 0u);
    EXPECT_LT(bc.verify_against_recompute(), 1e-6);
    EXPECT_GT(bc.policy()->log().size(), 0u);
  }
}

}  // namespace
}  // namespace bcdyn
