// DynamicGpuBc on a device group: for every device count and shard
// policy the scores must be bit-identical (host execution is sequential in
// source order; only the modeled schedule changes), every update must land
// on the exact recompute state, and the group schedule must be a pure
// function of its inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bc/adaptive_policy.hpp"
#include "bc/batch_update.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/dynamic_gpu.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

/// A fixed mixed stream - static compute, four insertions, one removal,
/// one batch - driven through a DynamicGpuBc on a group of `devices`.
/// Returns the final store and graph so callers can compare across device
/// counts / against recompute, plus the last update's group launch.
/// A non-null `adaptive` plans every launch (the gpu-adaptive engine);
/// pass a fresh policy per run, since it learns from each launch.
struct StreamEnd {
  BcStore store;
  CSRGraph graph;
  sim::GroupLaunchResult last_launch;
};

StreamEnd run_stream(int devices, Parallelism mode, ShardPolicy policy,
                     const CSRGraph& g0, const ApproxConfig& cfg,
                     std::uint64_t seed,
                     ParallelismPolicy* adaptive = nullptr) {
  CSRGraph g = g0;
  BcStore store(g.num_vertices(), cfg);
  DynamicGpuBc bc(devices, sim::DeviceSpec::tesla_c2075(), mode, {},
                  /*track_atomic_conflicts=*/false, policy);
  bc.set_policy(adaptive);
  bc.compute(g, store);
  sim::GroupLaunchResult last;

  BCDYN_SEEDED_RNG(rng, seed);
  std::pair<VertexId, VertexId> inserted{kNoVertex, kNoVertex};
  for (int step = 0; step < 4; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    if (u == kNoVertex) break;
    g = g.with_edge(u, v);
    last = bc.edge_update(/*removal=*/false, g, store, u, v).group;
    inserted = {u, v};
  }
  if (inserted.first != kNoVertex) {
    g = g.without_edge(inserted.first, inserted.second);
    last = bc.edge_update(/*removal=*/true, g, store, inserted.first,
                          inserted.second)
               .group;
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (int i = 0; i < 5; ++i) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    if (u == kNoVertex) break;
    edges.emplace_back(u, v);
  }
  const auto batch = build_batch_snapshots(g, edges);
  if (!batch.empty()) {
    last = bc.insert_edge_batch(batch, store, 0.3).group;
    g = batch.final_graph();
  }
  return {std::move(store), std::move(g), std::move(last)};
}

/// Every row and every score must match to the last bit.
void expect_stores_identical(const BcStore& a, const BcStore& b,
                             const char* what) {
  ASSERT_EQ(a.num_sources(), b.num_sources()) << what;
  for (int si = 0; si < a.num_sources(); ++si) {
    const auto d_a = a.dist_row(si);
    const auto d_b = b.dist_row(si);
    const auto s_a = a.sigma_row(si);
    const auto s_b = b.sigma_row(si);
    const auto dl_a = a.delta_row(si);
    const auto dl_b = b.delta_row(si);
    for (std::size_t v = 0; v < d_a.size(); ++v) {
      ASSERT_EQ(d_a[v], d_b[v]) << what << " dist si=" << si << " v=" << v;
      ASSERT_EQ(s_a[v], s_b[v]) << what << " sigma si=" << si << " v=" << v;
      ASSERT_EQ(dl_a[v], dl_b[v]) << what << " delta si=" << si << " v=" << v;
    }
  }
  for (std::size_t v = 0; v < a.bc().size(); ++v) {
    ASSERT_EQ(a.bc()[v], b.bc()[v]) << what << " bc v=" << v;
  }
}

std::vector<std::string> decision_lines(const ParallelismPolicy& policy) {
  std::vector<std::string> lines;
  for (const DecisionRecord& rec : policy.log()) {
    lines.push_back(ParallelismPolicy::record_line(rec));
  }
  return lines;
}

TEST(ShardedBc, ScoresBitIdenticalAcrossDeviceCountsAllEnginesAndPolicies) {
  // Fixed edge/node modes, plus the adaptive policy (nominal mode edge or
  // node). Under kLptTouched the adaptive engine shards every launch by
  // the policy's planned per-job weights; per-job cycles do not depend on
  // placement, so the decision logs must match across device counts too.
  const auto g = test::gnp_graph(48, 0.06, 19);
  const ApproxConfig cfg{.num_sources = 12, .seed = 3};
  for (const Parallelism mode : {Parallelism::kEdge, Parallelism::kNode}) {
    for (const ShardPolicy policy :
         {ShardPolicy::kRoundRobin, ShardPolicy::kLptTouched}) {
      for (const bool adaptive : {false, true}) {
        ParallelismPolicy one_policy;
        const StreamEnd one = run_stream(1, mode, policy, g, cfg, 77,
                                         adaptive ? &one_policy : nullptr);
        for (int devices : {2, 4}) {
          ParallelismPolicy many_policy;
          const StreamEnd many =
              run_stream(devices, mode, policy, g, cfg, 77,
                         adaptive ? &many_policy : nullptr);
          SCOPED_TRACE(std::string(to_string(mode)) + "/" +
                       to_string(policy) + (adaptive ? "/adaptive" : "") +
                       " devices=" + std::to_string(devices));
          expect_stores_identical(one.store, many.store, "vs one device");
          EXPECT_EQ(decision_lines(one_policy), decision_lines(many_policy));
          if (adaptive) EXPECT_FALSE(many_policy.log().empty());
        }
      }
    }
  }
}

TEST(ShardedBc, StreamLandsOnTheExactRecomputeState) {
  const auto g = test::gnp_graph(44, 0.07, 23);
  const ApproxConfig cfg{.num_sources = 10, .seed = 5};
  for (const Parallelism mode : {Parallelism::kEdge, Parallelism::kNode}) {
    const StreamEnd end =
        run_stream(3, mode, ShardPolicy::kRoundRobin, g, cfg, 91);
    BcStore fresh(end.graph.num_vertices(), cfg);
    brandes_all(end.graph, fresh);
    for (int si = 0; si < end.store.num_sources(); ++si) {
      const auto d_upd = end.store.dist_row(si);
      const auto d_ref = fresh.dist_row(si);
      const auto s_upd = end.store.sigma_row(si);
      const auto s_ref = fresh.sigma_row(si);
      for (std::size_t v = 0; v < d_upd.size(); ++v) {
        ASSERT_EQ(d_upd[v], d_ref[v])
            << to_string(mode) << " dist si=" << si << " v=" << v;
        ASSERT_DOUBLE_EQ(s_upd[v], s_ref[v])
            << to_string(mode) << " sigma si=" << si << " v=" << v;
      }
    }
    test::expect_near_spans(end.store.bc(), fresh.bc(), 1e-7, "bc");
  }
}

TEST(ShardedBc, GroupScheduleIsDeterministic) {
  const auto g = test::gnp_graph(40, 0.08, 31);
  const ApproxConfig cfg{.num_sources = 14, .seed = 2};
  const StreamEnd a =
      run_stream(4, Parallelism::kNode, ShardPolicy::kLptTouched, g, cfg, 13);
  const StreamEnd b =
      run_stream(4, Parallelism::kNode, ShardPolicy::kLptTouched, g, cfg, 13);
  const auto& pa = a.last_launch.placements;
  const auto& pb = b.last_launch.placements;
  ASSERT_EQ(pa.size(), pb.size());
  ASSERT_EQ(pa.size(), static_cast<std::size_t>(cfg.num_sources));
  EXPECT_EQ(a.last_launch.steals, b.last_launch.steals);
  for (std::size_t j = 0; j < pa.size(); ++j) {
    EXPECT_EQ(pa[j].device, pb[j].device) << j;
    EXPECT_EQ(pa[j].sm, pb[j].sm) << j;
    EXPECT_EQ(pa[j].start_cycles, pb[j].start_cycles) << j;
    EXPECT_EQ(pa[j].end_cycles, pb[j].end_cycles) << j;
    EXPECT_EQ(pa[j].stolen, pb[j].stolen) << j;
  }
  int executed = 0;
  for (int per_device : a.last_launch.jobs_per_device) executed += per_device;
  EXPECT_EQ(executed, cfg.num_sources);
  EXPECT_GT(a.last_launch.group.makespan_cycles, 0.0);
}

TEST(ShardedBc, ShardPoliciesAssignEverySourceAValidHome) {
  // 9 sources on 3 devices of 14 SMs: every home queue fits on its
  // device's SMs, so each job runs on its home device at cycle 0 and no
  // device steals (a placement that is not stolen shows the job's home).
  const auto run_update = [](ShardPolicy policy, const CSRGraph& g0,
                             VertexId u, VertexId v, BcStore& store) {
    DynamicGpuBc engine(3, sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge,
                        {}, false, policy);
    engine.compute(g0, store);
    return engine.edge_update(/*removal=*/false, g0.with_edge(u, v), store, u,
                              v);
  };

  // Round-robin homes source si on device si % 3.
  const auto g = test::gnp_graph(36, 0.08, 47);
  const ApproxConfig cfg{.num_sources = 9, .seed = 4};
  BCDYN_SEEDED_RNG(rng, 5);
  const auto [u, v] = test::random_absent_edge(g, rng);
  BcStore rr_store(g.num_vertices(), cfg);
  const auto rr =
      run_update(ShardPolicy::kRoundRobin, g, u, v, rr_store).group;
  ASSERT_EQ(rr.placements.size(), 9u);
  EXPECT_EQ(rr.steals, 0);
  for (std::size_t si = 0; si < rr.placements.size(); ++si) {
    EXPECT_FALSE(rr.placements[si].stolen) << si;
    EXPECT_EQ(static_cast<std::size_t>(rr.placements[si].device), si % 3)
        << si;
  }

  // LPT with equal predicted weights must spread sources round-robin
  // instead of piling them onto device 0. Joining two leaves of a star
  // that are not sources is no work for every source (weight 0 each).
  const auto star = test::star_graph(40);
  BcStore star_store(star.num_vertices(), cfg);
  std::vector<VertexId> leaves;
  for (VertexId w = 1; w < star.num_vertices() && leaves.size() < 2; ++w) {
    const auto srcs = star_store.sources();
    if (std::find(srcs.begin(), srcs.end(), w) == srcs.end()) {
      leaves.push_back(w);
    }
  }
  ASSERT_EQ(leaves.size(), 2u);
  const auto even = run_update(ShardPolicy::kLptTouched, star, leaves[0],
                               leaves[1], star_store);
  for (const SourceUpdateOutcome& o : even.outcomes) {
    ASSERT_EQ(o.update_case, UpdateCase::kNoWork);
  }
  ASSERT_EQ(even.group.placements.size(), 9u);
  for (std::size_t si = 0; si < even.group.placements.size(); ++si) {
    EXPECT_FALSE(even.group.placements[si].stolen) << si;
    EXPECT_EQ(static_cast<std::size_t>(even.group.placements[si].device),
              si % 3)
        << si;
  }

  // With the update's case-based weights LPT still homes at least one
  // source on every device; only jobs that were not stolen count.
  BcStore lpt_store(g.num_vertices(), cfg);
  const auto lpt =
      run_update(ShardPolicy::kLptTouched, g, u, v, lpt_store).group;
  ASSERT_EQ(lpt.placements.size(), 9u);
  std::vector<int> homed(3, 0);
  for (const sim::GroupJobPlacement& p : lpt.placements) {
    ASSERT_GE(p.device, 0);
    ASSERT_LT(p.device, 3);
    if (!p.stolen) ++homed[static_cast<std::size_t>(p.device)];
  }
  for (int d = 0; d < 3; ++d) {
    EXPECT_GT(homed[static_cast<std::size_t>(d)], 0) << "device " << d;
  }
}

TEST(ShardedBc, DynamicBcRoutesUpdatesThroughTheGroup) {
  const auto g = test::gnp_graph(42, 0.07, 53);
  DynamicBc analytic(g, {.engine = EngineKind::kGpuNode,
                         .approx = {.num_sources = 12, .seed = 6},
                         .num_devices = 3});
  EXPECT_EQ(analytic.num_devices(), 3);
  analytic.compute();
  BCDYN_SEEDED_RNG(rng, 29);
  for (int step = 0; step < 3; ++step) {
    const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
    const UpdateOutcome out = analytic.insert_edge(u, v);
    EXPECT_TRUE(out.inserted);
    EXPECT_EQ(out.case1 + out.case2 + out.case3, 12);
    EXPECT_GT(out.modeled_seconds, 0.0);
  }
  const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
  std::vector<std::pair<VertexId, VertexId>> batch = {{u, v}};
  for (int i = 0; i < 4; ++i) {
    const auto [a, b] = test::random_absent_edge(analytic.graph(), rng);
    batch.emplace_back(a, b);
  }
  analytic.insert_edge_batch(batch);
  analytic.remove_edge(batch.front().first, batch.front().second);
  EXPECT_LT(analytic.verify_against_recompute(), 1e-7);
}

TEST(ShardedBc, DynamicBcScoresBitIdenticalAcrossShardedDeviceCounts) {
  // Both counts shard across a group (sequential host execution in job-id
  // order), so the scores agree to the last bit; one device folds in
  // block-strided order instead and agrees within rounding.
  const auto g = test::gnp_graph(40, 0.08, 67);
  std::vector<std::unique_ptr<DynamicBc>> analytics;
  for (const int devices : {2, 4, 1}) {
    analytics.push_back(std::make_unique<DynamicBc>(
        g, bc::Options{.engine = EngineKind::kGpuEdge,
                       .approx = {.num_sources = 10, .seed = 8},
                       .num_devices = devices}));
    analytics.back()->compute();
  }
  const DynamicBc& single = *analytics[2];
  ASSERT_EQ(single.num_devices(), 1);
  BCDYN_SEEDED_RNG(rng, 83);
  for (int step = 0; step < 4; ++step) {
    const auto [u, v] = test::random_absent_edge(analytics[0]->graph(), rng);
    for (auto& a : analytics) EXPECT_TRUE(a->insert_edge(u, v).inserted);
  }
  for (std::size_t v = 0; v < analytics[0]->scores().size(); ++v) {
    ASSERT_EQ(analytics[0]->scores()[v], analytics[1]->scores()[v]) << v;
  }
  test::expect_near_spans(single.scores(), analytics[0]->scores(), 1e-7,
                          "one device vs two");
  EXPECT_LT(analytics[0]->verify_against_recompute(), 1e-7);
}

TEST(ShardedBc, RejectsNonPositiveDeviceCounts) {
  const auto g = test::path_graph(5);
  EXPECT_THROW(DynamicBc(g, {.engine = EngineKind::kGpuEdge,
                             .approx = {.num_sources = 0, .seed = 1},
                             .num_devices = 0}),
               std::invalid_argument);
  EXPECT_THROW(DynamicGpuBc(0, sim::DeviceSpec::tesla_c2075(),
                            Parallelism::kEdge),
               std::invalid_argument);
}

/// Randomized differential sweep: a longer random stream must stay
/// bit-identical between one device and three, for both fine-grained
/// mappings, checking scores after every operation.
TEST(ShardedBc, FuzzStreamBitIdenticalOneVsThreeDevices) {
  for (const auto& [mode, policy] :
       {std::pair{Parallelism::kEdge, ShardPolicy::kRoundRobin},
        std::pair{Parallelism::kNode, ShardPolicy::kLptTouched}}) {
    const auto g0 = test::gnp_graph(36, 0.07, 101);
    const ApproxConfig cfg{.num_sources = 8, .seed = 9};
    CSRGraph g = g0;
    BcStore store_one(g.num_vertices(), cfg);
    BcStore store_three(g.num_vertices(), cfg);
    DynamicGpuBc one(1, sim::DeviceSpec::tesla_c2075(), mode, {}, false,
                     policy);
    DynamicGpuBc three(3, sim::DeviceSpec::tesla_c2075(), mode, {}, false,
                       policy);
    one.compute(g, store_one);
    three.compute(g, store_three);
    expect_stores_identical(store_one, store_three, "after compute");

    BCDYN_SEEDED_RNG(rng, 555);
    std::vector<std::pair<VertexId, VertexId>> present;
    for (int step = 0; step < 10; ++step) {
      const bool removal = !present.empty() && rng.next_below(4) == 0;
      if (removal) {
        const auto [u, v] = present.back();
        present.pop_back();
        g = g.without_edge(u, v);
        one.edge_update(/*removal=*/true, g, store_one, u, v);
        three.edge_update(/*removal=*/true, g, store_three, u, v);
      } else {
        const auto [u, v] = test::random_absent_edge(g, rng);
        if (u == kNoVertex) break;
        g = g.with_edge(u, v);
        present.emplace_back(u, v);
        one.edge_update(/*removal=*/false, g, store_one, u, v);
        three.edge_update(/*removal=*/false, g, store_three, u, v);
      }
      expect_stores_identical(store_one, store_three, "mid-stream");
    }
    BcStore fresh(g.num_vertices(), cfg);
    brandes_all(g, fresh);
    test::expect_near_spans(store_one.bc(), fresh.bc(), 1e-7, "bc");
  }
}

}  // namespace
}  // namespace bcdyn
