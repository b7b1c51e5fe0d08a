// Adaptive edge/node parallelism policy (bc/adaptive_policy.hpp) and the
// gpu-adaptive engine built on it.
//
// The load-bearing properties:
//   * decisions are pure: identical configuration + identical call
//     sequence => identical decision logs and identical scores;
//   * an exploration probe runs the costlier mapping, and only on a near
//     tie;
//   * runs whose every decision picks one mapping are bit-identical to the
//     fixed gpu-edge / gpu-node engines (same kernels, same float-fold
//     order, same modeled cycles);
//   * the estimator prefers node-parallel on the generator suite's
//     bounded-degree graphs and edge-parallel on a hub-dominated star;
//   * a randomized stream over the generator suite runs hazard-clean in
//     strict mode and stays consistent with a from-scratch recompute.
#include <gtest/gtest.h>

#include <algorithm>
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
RunResult run_workload(const CSRGraph& g, const bc::Options& opts) {
  DynamicBc bc(g, opts);
  RunResult r;
  r.modeled_seconds += bc.compute();

  util::Rng rng(99);
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

bc::Options adaptive_options() {
  return {.engine = EngineKind::kGpuAdaptive,
          .approx = {.num_sources = 12, .seed = 5}};
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

TEST(AdaptivePolicy, ExplorationProbesOnlyNearTies) {
  // Under the default exploration constants a probe fires on some near
  // tie: it runs the costlier mapping, and only when the two estimates
  // are within 1.25x. Every other decision takes the cheaper estimate.
  const auto g = test::gnp_graph(60, 0.07, 33);
  const RunResult run = run_workload(g, adaptive_options());
  int probes = 0;
  for (const DecisionRecord& rec : run.log) {
    const double lo = std::min(rec.est_edge_cycles, rec.est_node_cycles);
    const double hi = std::max(rec.est_edge_cycles, rec.est_node_cycles);
    const bool node_cheaper = rec.est_node_cycles <= rec.est_edge_cycles;
    const Parallelism cheaper =
        node_cheaper ? Parallelism::kNode : Parallelism::kEdge;
    if (rec.explored) {
      ++probes;
      EXPECT_LE(hi, lo * 1.25) << ParallelismPolicy::record_line(rec);
      EXPECT_NE(rec.mode, cheaper) << ParallelismPolicy::record_line(rec);
    } else {
      EXPECT_EQ(rec.mode, cheaper) << ParallelismPolicy::record_line(rec);
    }
  }
  EXPECT_GT(probes, 0);
}

/// The canonical workload of run_workload on a bare engine of nominal
/// `mode`, every launch planned by `policy` when one is given.
RunResult run_engine(const CSRGraph& g0, Parallelism mode,
                     ParallelismPolicy* policy) {
  CSRGraph g = g0;
  BcStore store(g.num_vertices(), {.num_sources = 12, .seed = 5});
  DynamicGpuBc engine(sim::DeviceSpec::tesla_c2075(), mode);
  engine.set_policy(policy);
  RunResult r;
  r.modeled_seconds += engine.compute(g, store).seconds;

  util::Rng rng(99);
  std::vector<std::pair<VertexId, VertexId>> applied;
  for (int i = 0; i < 4; ++i) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    if (u == kNoVertex) break;
    g = g.with_edge(u, v);
    r.modeled_seconds +=
        engine.edge_update(/*removal=*/false, g, store, u, v)
            .stats.seconds;
    applied.emplace_back(u, v);
  }
  std::vector<std::pair<VertexId, VertexId>> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(test::random_absent_edge(g, rng));
  }
  const BatchSnapshots snapshots = build_batch_snapshots(g, batch);
  if (!snapshots.empty()) {
    r.modeled_seconds +=
        engine.insert_edge_batch(snapshots, store, 0.25).stats.seconds;
    g = snapshots.final_graph();
  }
  for (std::size_t i = 0; i < 2 && i < applied.size(); ++i) {
    const auto [u, v] = applied[i];
    g = g.without_edge(u, v);
    r.modeled_seconds +=
        engine.edge_update(/*removal=*/true, g, store, u, v)
            .stats.seconds;
  }

  r.scores.assign(store.bc().begin(), store.bc().end());
  if (policy != nullptr) r.log = policy->log();
  return r;
}

/// Every decision in `log` chose `mode` without probing, and the policy
/// planned more than the static pass.
void expect_all_decided(const std::vector<DecisionRecord>& log,
                        Parallelism mode) {
  ASSERT_GT(log.size(), 0u);
  bool updates = false;
  for (const auto& rec : log) {
    EXPECT_EQ(rec.mode, mode) << ParallelismPolicy::record_line(rec);
    EXPECT_FALSE(rec.explored) << ParallelismPolicy::record_line(rec);
    updates = updates || rec.kind != LaunchKind::kStatic;
  }
  EXPECT_TRUE(updates);
}

TEST(AdaptivePolicy, ForcedEdgeMatchesGpuEdgeBitIdentically) {
  // A policy that prices atomics out of reach decides edge-parallel for
  // every launch: node-parallel estimates pay an atomic per relaxed
  // neighbor, the edge sweeps' estimates none. Planned through the
  // adaptive protocol on a nominally node-parallel engine, the run must
  // reproduce the fixed edge-parallel engine bit for bit.
  const auto g = test::gnp_graph(60, 0.07, 33);
  const RunResult fixed = run_engine(g, Parallelism::kEdge, nullptr);
  ParallelismPolicy priced({}, sim::DeviceSpec::tesla_c2075(),
                           sim::CostModel{.atomic_throughput_cycles = 1e12});
  const RunResult forced = run_engine(g, Parallelism::kNode, &priced);
  expect_all_decided(forced.log, Parallelism::kEdge);
  expect_bit_identical(fixed, forced, "forced edge vs gpu-edge");
}

TEST(AdaptivePolicy, ForcedNodeMatchesGpuNodeBitIdentically) {
  // On a bounded-degree suite graph the default policy decides
  // node-parallel for every launch of the workload; planned on a
  // nominally edge-parallel engine, the run must reproduce the fixed
  // node-parallel engine bit for bit.
  const auto g = gen::build_suite_graph("del", 0.05, 7).graph;
  const RunResult fixed = run_engine(g, Parallelism::kNode, nullptr);
  ParallelismPolicy policy;
  const RunResult forced = run_engine(g, Parallelism::kEdge, &policy);
  expect_all_decided(forced.log, Parallelism::kNode);
  expect_bit_identical(fixed, forced, "forced node vs gpu-node");
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

  const LaunchPlan plan = policy.plan_update(/*removal=*/true, cut, store, 4, 5);
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
