// Randomized differential fuzz harness: for every generator in the
// gen/suite, drive a seeded random insertion stream through all four
// update paths - sequential CPU, GPU edge-parallel, GPU node-parallel, and
// the batched path - and a mixed insert/remove stream through the
// single-edge paths, and after EVERY step compare the full store (d,
// sigma, delta, BC) against a fresh brandes_all on the current graph. Any
// divergence pinpoints the step, source and vertex that first disagreed.
//
// Built as its own executable (bcdyn_fuzz_tests, ctest label "fuzz") so
// the heavier randomized sweep can be filtered in or out:
//   ctest -L fuzz              # just the fuzzers
//   ctest -LE fuzz             # everything else
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bc/adaptive_policy.hpp"
#include "bc/batch_update.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/dynamic_gpu.hpp"
#include "gpusim/fault_injector.hpp"
#include "gen/suite.hpp"
#include "test_helpers.hpp"
#include "trace/metrics.hpp"

namespace bcdyn {
namespace {

/// Sum of the per-source scenario counters the engines bump on every
/// analytic update (the registry is per-thread, so invariants are
/// asserted on deltas).
std::uint64_t case_counter_total() {
  auto& m = trace::metrics();
  return m.counter_value("bc.case1.count") + m.counter_value("bc.case2.count") +
         m.counter_value("bc.case3.count");
}

constexpr int kSteps = 32;
constexpr int kBatchFlush = 5;  // batch path flushes every 5 pending edges
constexpr double kScale = 0.005;  // suite minimums kick in: ~256 vertices
constexpr int kNumSources = 8;

struct PathState {
  std::string name;
  BcStore store;

  PathState(std::string n, VertexId num_vertices, const ApproxConfig& cfg)
      : name(std::move(n)), store(num_vertices, cfg) {}
};

void expect_store_matches(const BcStore& got, const BcStore& want,
                          const std::string& path, int step) {
  for (int si = 0; si < got.num_sources(); ++si) {
    const auto d_g = got.dist_row(si);
    const auto d_w = want.dist_row(si);
    const auto sg_g = got.sigma_row(si);
    const auto sg_w = want.sigma_row(si);
    const auto dl_g = got.delta_row(si);
    const auto dl_w = want.delta_row(si);
    for (std::size_t v = 0; v < d_g.size(); ++v) {
      ASSERT_EQ(d_g[v], d_w[v])
          << path << " dist step=" << step << " si=" << si << " v=" << v;
      ASSERT_DOUBLE_EQ(sg_g[v], sg_w[v])
          << path << " sigma step=" << step << " si=" << si << " v=" << v;
      ASSERT_NEAR(dl_g[v], dl_w[v],
                  1e-7 * std::max(1.0, std::abs(dl_w[v])))
          << path << " delta step=" << step << " si=" << si << " v=" << v;
    }
  }
  const auto bc_g = got.bc();
  const auto bc_w = want.bc();
  for (std::size_t v = 0; v < bc_g.size(); ++v) {
    ASSERT_NEAR(bc_g[v], bc_w[v], 1e-6 * std::max(1.0, std::abs(bc_w[v])))
        << path << " bc step=" << step << " v=" << v;
  }
}

class DifferentialFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(DifferentialFuzz, AllPathsMatchFreshRecomputeAfterEveryStep) {
  // The whole randomized stream runs under the strict shadow-memory hazard
  // detector: any same-round data race inside a GPU-engine kernel throws
  // HazardError and fails the test at the offending step, on top of the
  // numeric differential checks below.
  test::HazardScope hazard_scope(/*strict=*/true);
  const std::string gen_name = GetParam();
  const auto entry = gen::build_suite_graph(gen_name, kScale, 977);
  CSRGraph g = entry.graph;
  const VertexId n = g.num_vertices();
  const ApproxConfig cfg{.num_sources = kNumSources, .seed = 31};

  PathState cpu("cpu", n, cfg);
  PathState edge("gpu-edge", n, cfg);
  PathState node("gpu-node", n, cfg);
  PathState batch("batch", n, cfg);
  for (auto* p : {&cpu, &edge, &node, &batch}) brandes_all(g, p->store);

  DynamicCpuEngine cpu_engine(n);
  DynamicGpuBc edge_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge);
  DynamicGpuBc node_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);
  DynamicGpuBc batch_engine(sim::DeviceSpec::tesla_c2075(),
                            Parallelism::kEdge);

  // The batch path lags: pending edges accumulate against batch_base and
  // are flushed through insert_edge_batch every kBatchFlush steps (and at
  // the end), after which its store must agree with everyone else's.
  CSRGraph batch_base = g;
  std::vector<std::pair<VertexId, VertexId>> pending;
  // Alternate a tight and a loose threshold between flushes so the fuzzer
  // exercises both the incremental path and the recompute fallback.
  int flushes = 0;

  BCDYN_SEEDED_RNG(rng, 978 + std::hash<std::string>{}(gen_name) % 1000);
  for (int step = 0; step < kSteps; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    if (u == kNoVertex) break;
    g = g.with_edge(u, v);

    const std::uint64_t cases_before = case_counter_total();
    for (int si = 0; si < cpu.store.num_sources(); ++si) {
      const VertexId s = cpu.store.sources()[static_cast<std::size_t>(si)];
      cpu_engine.source_update(/*removal=*/false, g, s, cpu.store.dist_row(si),
                               cpu.store.sigma_row(si), cpu.store.delta_row(si),
                               cpu.store.bc(), u, v);
    }
    edge_engine.edge_update(/*removal=*/false, g, edge.store, u, v);
    node_engine.edge_update(/*removal=*/false, g, node.store, u, v);
    pending.emplace_back(u, v);

    // Metric accounting invariant: three engines just classified this
    // insertion once per source, and every classification lands in exactly
    // one of the three case counters.
    ASSERT_EQ(case_counter_total() - cases_before,
              static_cast<std::uint64_t>(3 * kNumSources))
        << "case counters out of step at step=" << step;
    const auto touched = trace::metrics().histogram("bc.touched_fraction");
    EXPECT_LE(touched.max, 1.0)
        << "a source update claimed to touch more vertices than exist";

    BcStore fresh(n, cfg);
    brandes_all(g, fresh);
    expect_store_matches(cpu.store, fresh, cpu.name, step);
    expect_store_matches(edge.store, fresh, edge.name, step);
    expect_store_matches(node.store, fresh, node.name, step);

    const bool last = step + 1 == kSteps;
    if (static_cast<int>(pending.size()) == kBatchFlush || last) {
      const auto snapshots = build_batch_snapshots(batch_base, pending);
      ASSERT_EQ(snapshots.edges.size(), pending.size());
      const double flush_threshold = flushes % 2 == 0 ? 0.25 : 0.02;
      batch_engine.insert_edge_batch(snapshots, batch.store, flush_threshold);
      batch_base = g;
      pending.clear();
      ++flushes;
      expect_store_matches(batch.store, fresh, batch.name, step);
    }
  }
  EXPECT_GT(flushes, 0);
  EXPECT_EQ(sim::hazards().violations(), 0u)
      << "GPU engines flagged data hazards during the fuzz stream";
  EXPECT_GT(sim::hazards().tracked_accesses(), 0u)
      << "hazard detector saw no addressed accesses - kernels not converted?";
}

/// Next step of a mixed stream: insert a random absent edge, remove a
/// random earlier insertion (undoing a shortcut grows distances, so these
/// drive the removal Case 3 repair), or remove a random existing edge.
struct MixedStep {
  bool insert = true;
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
};

MixedStep next_mixed_step(const CSRGraph& g,
                          std::vector<std::pair<VertexId, VertexId>>& inserted,
                          util::Rng& rng) {
  const std::uint64_t pick = rng.next_below(3);
  if (pick == 1 && !inserted.empty()) {
    const auto i = static_cast<std::size_t>(rng.next_below(inserted.size()));
    const auto [u, v] = inserted[i];
    inserted.erase(inserted.begin() + static_cast<std::ptrdiff_t>(i));
    return {false, u, v};
  }
  if (pick == 2 && g.num_edges() > 0) {
    const COOGraph coo = g.to_coo();
    const auto [u, v] =
        coo.edges[static_cast<std::size_t>(rng.next_below(coo.edges.size()))];
    std::erase(inserted, std::pair{u, v});
    std::erase(inserted, std::pair{v, u});
    return {false, u, v};
  }
  const auto [u, v] = test::random_absent_edge(g, rng);
  if (u != kNoVertex) inserted.emplace_back(u, v);
  return {true, u, v};
}

TEST_P(DifferentialFuzz, MixedInsertRemoveStreamMatchesFreshRecompute) {
  // Removals run the decremental kernels: negative-increment Case 2 and the
  // distance-growing Case 3 repair on the GPU engines, the recompute oracle
  // on the CPU engine. Strict hazard detection stays on throughout.
  test::HazardScope hazard_scope(/*strict=*/true);
  const std::string gen_name = GetParam();
  const auto entry = gen::build_suite_graph(gen_name, kScale, 977);
  CSRGraph g = entry.graph;
  const VertexId n = g.num_vertices();
  const ApproxConfig cfg{.num_sources = kNumSources, .seed = 31};

  PathState cpu("cpu", n, cfg);
  PathState edge("gpu-edge", n, cfg);
  PathState node("gpu-node", n, cfg);
  for (auto* p : {&cpu, &edge, &node}) brandes_all(g, p->store);
  DynamicCpuEngine cpu_engine(n);
  DynamicGpuBc edge_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge);
  DynamicGpuBc node_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);

  std::vector<std::pair<VertexId, VertexId>> inserted;
  int removals = 0;
  int case3_removals = 0;
  BCDYN_SEEDED_RNG(rng, 980 + std::hash<std::string>{}(gen_name) % 1000);
  for (int step = 0; step < kSteps; ++step) {
    const MixedStep op = next_mixed_step(g, inserted, rng);
    if (op.u == kNoVertex) break;
    g = op.insert ? g.with_edge(op.u, op.v) : g.without_edge(op.u, op.v);
    for (int si = 0; si < cpu.store.num_sources(); ++si) {
      const VertexId s = cpu.store.sources()[static_cast<std::size_t>(si)];
      const auto d = cpu.store.dist_row(si);
      const auto sg = cpu.store.sigma_row(si);
      const auto dl = cpu.store.delta_row(si);
      cpu_engine.source_update(!op.insert, g, s, d, sg, dl, cpu.store.bc(),
                               op.u, op.v);
    }
    for (const auto& [engine, path] :
         {std::pair{&edge_engine, &edge}, std::pair{&node_engine, &node}}) {
      if (op.insert) {
        engine->edge_update(/*removal=*/false, g, path->store, op.u, op.v);
        continue;
      }
      const GpuUpdateResult r =
          engine->edge_update(/*removal=*/true, g, path->store, op.u, op.v);
      for (const SourceUpdateOutcome& o : r.outcomes) {
        if (o.update_case == UpdateCase::kFar) ++case3_removals;
      }
    }
    if (!op.insert) ++removals;

    BcStore fresh(n, cfg);
    brandes_all(g, fresh);
    expect_store_matches(cpu.store, fresh, cpu.name, step);
    expect_store_matches(edge.store, fresh, edge.name, step);
    expect_store_matches(node.store, fresh, node.name, step);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(removals, 0);
  EXPECT_GT(case3_removals, 0)
      << "no distance-growing removal: the Case 3 repair never ran";
  EXPECT_EQ(sim::hazards().violations(), 0u)
      << "GPU engines flagged data hazards during the mixed stream";
}

// --- sparse versus explicit sweeps ------------------------------------------
// The edge-parallel sweeps charge every arc but the host runs only the live
// ones (BlockContext::parallel_for_live), and the init and finalize kernels
// of either mode charge every vertex but run only the special or touched
// ones; with the hazard detector on, every item runs. Both paths must
// leave the same stores and the same modeled KernelStats, bit for bit.

/// One engine's record of a stream: the stats of every launch (the static
/// pass first) and the final store.
struct SweepRun {
  std::vector<sim::KernelStats> stats;
  BcStore store;
  int case2_removals = 0;
  int case3_removals = 0;
};

SweepRun run_sweep_stream(DynamicGpuBc& engine, const CSRGraph& g0,
                          const std::vector<MixedStep>& ops,
                          const ApproxConfig& cfg) {
  SweepRun run{{}, BcStore(g0.num_vertices(), cfg)};
  CSRGraph g = g0;
  run.stats.push_back(engine.compute(g, run.store));
  for (const MixedStep& op : ops) {
    g = op.insert ? g.with_edge(op.u, op.v) : g.without_edge(op.u, op.v);
    const auto r = engine.edge_update(!op.insert, g, run.store, op.u, op.v);
    run.stats.push_back(r.stats);
    if (op.insert) continue;
    for (const SourceUpdateOutcome& o : r.outcomes) {
      run.case2_removals += o.update_case == UpdateCase::kAdjacent ? 1 : 0;
      run.case3_removals += o.update_case == UpdateCase::kFar ? 1 : 0;
    }
  }
  return run;
}

void expect_same_stats(const sim::KernelStats& got,
                       const sim::KernelStats& want) {
  EXPECT_EQ(got.total.rounds, want.total.rounds);
  EXPECT_EQ(got.total.items, want.total.items);
  EXPECT_EQ(got.total.instrs, want.total.instrs);
  EXPECT_EQ(got.total.global_reads, want.total.global_reads);
  EXPECT_EQ(got.total.global_writes, want.total.global_writes);
  EXPECT_EQ(got.total.atomics, want.total.atomics);
  EXPECT_EQ(got.total.atomic_conflicts, want.total.atomic_conflicts);
  EXPECT_EQ(got.total.barriers, want.total.barriers);
  EXPECT_EQ(got.total.cycles, want.total.cycles);
  EXPECT_EQ(got.max_block_cycles, want.max_block_cycles);
  EXPECT_EQ(got.makespan_cycles, want.makespan_cycles);
  EXPECT_EQ(got.seconds, want.seconds);
  EXPECT_EQ(got.num_blocks, want.num_blocks);
  EXPECT_EQ(got.launches, want.launches);
}

template <typename Row>
bool same_bits(Row a, Row b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST_P(DifferentialFuzz, SparseSweepsMatchExplicitSweepsBitForBit) {
  const std::string gen_name = GetParam();
  const auto entry = gen::build_suite_graph(gen_name, kScale, 977);
  // Half the sources: the explicit runs pay for the hazard shadow.
  const ApproxConfig cfg{.num_sources = kNumSources / 2, .seed = 31};
  const auto spec = sim::DeviceSpec::tesla_c2075();

  // The stream, drawn once: insertions and removals of both kinds.
  std::vector<MixedStep> ops;
  CSRGraph g = entry.graph;
  {
    std::vector<std::pair<VertexId, VertexId>> inserted;
    BCDYN_SEEDED_RNG(rng, 980 + std::hash<std::string>{}(gen_name) % 1000);
    for (int step = 0; step < kSteps; ++step) {
      const MixedStep op = next_mixed_step(g, inserted, rng);
      if (op.u == kNoVertex) break;
      g = op.insert ? g.with_edge(op.u, op.v) : g.without_edge(op.u, op.v);
      ops.push_back(op);
    }
  }
  // Both paths share the kernels' bulk stores, so a store the bulk pass
  // misses shows only against a fresh recompute of the final graph.
  BcStore fresh(g.num_vertices(), cfg);
  brandes_all(g, fresh);

  // Conflict tracking stays on: the sparse path then has to reproduce the
  // per-warp conflict windows too (gpusim tests cover it off).
  constexpr bool kTracking = true;
  int case2_removals = 0;
  int case3_removals = 0;
  struct Arm {
    const char* name;
    Parallelism mode;
    bool adaptive;
  };
  for (const Arm arm : {Arm{"gpu-edge", Parallelism::kEdge, false},
                        Arm{"gpu-node", Parallelism::kNode, false},
                        Arm{"gpu-adaptive", Parallelism::kNode, true}}) {
    for (const int devices : {1, 2}) {
      {
        SCOPED_TRACE(std::string(arm.name) +
                     " devices=" + std::to_string(devices));
        const auto run = [&](bool explicit_sweeps) {
          std::optional<test::HazardScope> shadow;
          if (explicit_sweeps) shadow.emplace(/*strict=*/false);
          ParallelismPolicy policy;
          // One device block-strides; two shard across a group.
          DynamicGpuBc engine =
              devices == 1
                  ? DynamicGpuBc(spec, arm.mode, {}, kTracking)
                  : DynamicGpuBc(devices, spec, arm.mode, {}, kTracking);
          if (arm.adaptive) engine.set_policy(&policy);
          return run_sweep_stream(engine, entry.graph, ops, cfg);
        };
        const SweepRun sparse = run(false);
        const SweepRun full = run(true);

        for (int si = 0; si < sparse.store.num_sources(); ++si) {
          ASSERT_TRUE(same_bits(sparse.store.dist_row(si),
                                full.store.dist_row(si)))
              << "d si=" << si;
          ASSERT_TRUE(same_bits(sparse.store.sigma_row(si),
                                full.store.sigma_row(si)))
              << "sigma si=" << si;
          ASSERT_TRUE(same_bits(sparse.store.delta_row(si),
                                full.store.delta_row(si)))
              << "delta si=" << si;
        }
        ASSERT_TRUE(same_bits(sparse.store.bc(), full.store.bc()));
        expect_store_matches(sparse.store, fresh, arm.name,
                             static_cast<int>(ops.size()));

        ASSERT_EQ(sparse.stats.size(), full.stats.size());
        std::uint64_t items = 0;
        std::uint64_t sparse_host = 0;
        std::uint64_t full_host = 0;
        for (std::size_t i = 0; i < sparse.stats.size(); ++i) {
          SCOPED_TRACE("launch " + std::to_string(i));
          expect_same_stats(sparse.stats[i], full.stats[i]);
          items += full.stats[i].total.items;
          sparse_host += sparse.stats[i].total.host_items;
          full_host += full.stats[i].total.host_items;
        }
        // Every update's init and finalize run sparsely on the host, in
        // either mode, so no arm runs every modeled item.
        EXPECT_LT(sparse_host, items);
        EXPECT_EQ(full_host, items);
        case2_removals += sparse.case2_removals;
        case3_removals += sparse.case3_removals;
      }
    }
  }
  EXPECT_GT(case2_removals, 0) << "no Case 2 removal in the stream";
  EXPECT_GT(case3_removals, 0) << "no Case 3 removal in the stream";
}

INSTANTIATE_TEST_SUITE_P(Suite, DifferentialFuzz,
                         ::testing::ValuesIn(gen::suite_names()),
                         [](const auto& info) { return info.param; });

// --- fault-injecting mode -------------------------------------------------
// The same differential idea with the deterministic fault injector live
// (gpusim/fault_injector.hpp): a GPU-engine DynamicBc rides a seeded
// mixed insert/remove stream while kernel aborts, stalls, and device-loss
// polls fire per its plan, recovering through bounded retries. The CPU-engine
// DynamicBc never touches the simulated runtime and is the fault-free
// reference; after every step the recovered GPU scores must stay in
// numeric parity with it. Strict hazard detection stays on throughout, so
// a retried launch that replayed into dirty state would be flagged as a
// hazard or a divergence at the exact step.

class FaultedDifferentialFuzz : public ::testing::TestWithParam<std::string> {
};

TEST_P(FaultedDifferentialFuzz, RecoveredGpuMatchesCpuReferenceEveryStep) {
  test::HazardScope hazard_scope(/*strict=*/true);
  const std::string gen_name = GetParam();
  const auto entry = gen::build_suite_graph(gen_name, kScale, 977);
  const ApproxConfig cfg{.num_sources = kNumSources, .seed = 31};

  DynamicBc cpu(entry.graph, {.engine = EngineKind::kCpu, .approx = cfg});
  DynamicBc gpu(entry.graph,
                {.engine = EngineKind::kGpuEdge,
                 .approx = cfg,
                 .num_devices = 2,
                 .recovery = {.max_retries = 10,
                              .fallback_recompute = false}});
  cpu.compute();

  // RAII so a failed assertion cannot leak an armed injector into the
  // other fuzz cases.
  struct FaultScope {
    explicit FaultScope(const sim::FaultPlan& plan) {
      sim::faults().configure(plan);
      sim::faults().set_enabled(true);
    }
    ~FaultScope() { sim::faults().set_enabled(false); }
  };
  // No device loss here: the seed mixes std::hash, which varies across
  // standard libraries, and losing BOTH devices is unrecoverable by
  // design - an all_lost throw would be a platform-dependent flake, not a
  // parity failure. Loss/resharding has its own deterministic fixtures in
  // the chaos suite (test_fault_injection.cpp).
  sim::FaultPlan plan;
  plan.seed = 0xD1FF ^ std::hash<std::string>{}(gen_name);
  plan.kernel_abort_rate = 0.2;
  plan.stall_rate = 0.2;
  const FaultScope fault_scope(plan);

  gpu.compute();
  BCDYN_SEEDED_RNG(rng, 979 + std::hash<std::string>{}(gen_name) % 1000);
  // Sixteen insertions, then sixteen mixed steps: removals go through the
  // same retried launches, including the distance-growing Case 3 repair.
  std::vector<std::pair<VertexId, VertexId>> inserted;
  int case3_removals = 0;
  for (int step = 0; step < 32; ++step) {
    MixedStep op;
    if (step < 16) {
      const auto [u, v] = test::random_absent_edge(cpu.graph(), rng);
      op = {true, u, v};
      if (u != kNoVertex) inserted.emplace_back(u, v);
    } else {
      op = next_mixed_step(cpu.graph(), inserted, rng);
    }
    if (op.u == kNoVertex) break;
    if (op.insert) {
      cpu.insert_edge(op.u, op.v);
      gpu.insert_edge(op.u, op.v);
    } else {
      cpu.remove_edge(op.u, op.v);
      case3_removals += gpu.remove_edge(op.u, op.v).case3;
    }
    const auto want = cpu.scores();
    const auto got = gpu.scores();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t x = 0; x < got.size(); ++x) {
      ASSERT_NEAR(got[x], want[x], 1e-6 * std::max(1.0, std::abs(want[x])))
          << "recovered GPU scores diverged from the CPU reference at step "
          << step << " vertex " << x;
    }
  }
  EXPECT_GT(sim::faults().injected(), 0u)
      << "fault plan fired nothing - the mode tested a plain run";
  EXPECT_GT(case3_removals, 0)
      << "no distance-growing removal: the Case 3 repair never ran";
  EXPECT_EQ(sim::hazards().violations(), 0u)
      << "recovery replayed a launch into inconsistent shadow state";
}

INSTANTIATE_TEST_SUITE_P(Suite, FaultedDifferentialFuzz,
                         ::testing::ValuesIn(gen::suite_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace bcdyn
