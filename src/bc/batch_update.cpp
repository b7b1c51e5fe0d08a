#include "bc/batch_update.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "bc/adaptive_policy.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/dynamic_cpu_parallel.hpp"
#include "bc/dynamic_gpu.hpp"
#include "gpusim/cost_model.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"
#include "util/stopwatch.hpp"

namespace bcdyn {

namespace {

/// Modeled operation cost of one host-side Brandes iteration (the CPU
/// fallback's recompute). An estimate at the same granularity as the
/// engine's counters: init + BC fold touch every vertex, the BFS and the
/// dependency stage each touch every directed arc once with a distance
/// check and a sigma/delta accumulation.
CpuOpCounters brandes_pass_cost(const CSRGraph& g) {
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  const auto arcs = static_cast<std::uint64_t>(g.num_arcs());
  CpuOpCounters c;
  c.instrs = 2 * arcs + 2 * n;
  c.reads = 5 * arcs + 2 * n;
  c.writes = 2 * arcs / 3 + 4 * n;
  return c;
}

}  // namespace

namespace detail {

std::int64_t batch_job_weight(std::span<const Dist> dist,
                              const BatchSnapshots& batch) {
  std::int64_t weight = 0;
  for (const auto& [u, v] : batch.edges) {
    const CaseInfo info = classify_insertion(dist, u, v);
    if (info.update_case == UpdateCase::kAdjacent) weight += 1;
    if (info.update_case == UpdateCase::kFar) weight += 4;
  }
  return weight;
}

SourceBatchOutcome gpu_source_batch(sim::BlockContext& ctx, GpuWorkspace& ws,
                                    Parallelism mode,
                                    const BatchSnapshots& batch,
                                    const BatchConfig& config, BcStore& store,
                                    int si, std::vector<VertexId>& bfs_order,
                                    std::vector<std::size_t>& level_offsets) {
  const CSRGraph& final_g = batch.final_graph();
  const VertexId s = store.sources()[static_cast<std::size_t>(si)];
  auto d = store.dist_row(si);
  auto sigma = store.sigma_row(si);
  auto delta = store.delta_row(si);
  return run_source_batch(
      batch.edges.size(), final_g.num_vertices(), config,
      [&](std::size_t i) {
        const auto [u, v] = batch.edges[i];
        return gpu_insert_source_update(ctx, ws, mode, batch.graphs[i], s, d,
                                        sigma, delta, store.bc(), u, v);
      },
      [&] {
        gpu_recompute_source(ctx, ws, mode, final_g, s, d, sigma, delta,
                             store.bc(), bfs_order, level_offsets);
      });
}

}  // namespace detail

BatchSnapshots build_batch_snapshots(
    const CSRGraph& base,
    std::span<const std::pair<VertexId, VertexId>> edges) {
  BatchSnapshots out;
  out.edges.reserve(edges.size());
  out.graphs.reserve(edges.size());  // keeps back() pointers stable below
  const CSRGraph* cur = &base;
  for (const auto& [u, v] : edges) {
    const bool valid = u != v && u >= 0 && v >= 0 &&
                       u < base.num_vertices() && v < base.num_vertices() &&
                       !cur->has_edge(u, v);
    if (!valid) {
      out.skipped.emplace_back(u, v);
      continue;
    }
    out.graphs.push_back(cur->with_edge(u, v));
    out.edges.emplace_back(u, v);
    cur = &out.graphs.back();
  }
  return out;
}

CpuBatchResult batch_insert_update(DynamicCpuEngine& engine,
                                   const BatchSnapshots& batch, BcStore& store,
                                   const BatchConfig& config) {
  CpuBatchResult result;
  result.outcomes.resize(static_cast<std::size_t>(store.num_sources()));
  if (batch.empty()) return result;
  const CpuOpCounters before = engine.counters();
  const CSRGraph& final_g = batch.final_graph();
  const VertexId n = final_g.num_vertices();
  std::vector<double> old_delta;

  for (int si = 0; si < store.num_sources(); ++si) {
    const VertexId s = store.sources()[static_cast<std::size_t>(si)];
    auto d = store.dist_row(si);
    auto sigma = store.sigma_row(si);
    auto delta = store.delta_row(si);
    result.outcomes[static_cast<std::size_t>(si)] = detail::run_source_batch(
        batch.edges.size(), n, config,
        [&](std::size_t i) {
          const auto [u, v] = batch.edges[i];
          return engine.update_source(batch.graphs[i], s, d, sigma, delta,
                                      store.bc(), u, v);
        },
        [&] {
          old_delta.assign(delta.begin(), delta.end());
          brandes_source(final_g, s, d, sigma, delta, {});
          auto bc = store.bc();
          for (std::size_t v = 0; v < bc.size(); ++v) {
            if (v == static_cast<std::size_t>(s)) continue;
            bc[v] += delta[v] - old_delta[v];
          }
          result.ops += brandes_pass_cost(final_g);
        });
  }

  const CpuOpCounters after = engine.counters();
  result.ops.instrs += after.instrs - before.instrs;
  result.ops.reads += after.reads - before.reads;
  result.ops.writes += after.writes - before.writes;
  return result;
}

std::vector<SourceBatchOutcome> DynamicCpuParallelEngine::insert_edge_batch(
    const BatchSnapshots& batch, BcStore& store, const BatchConfig& config) {
  const int k = store.num_sources();
  std::vector<SourceBatchOutcome> outcomes(static_cast<std::size_t>(k));
  if (batch.empty() || k == 0) return outcomes;
  const CSRGraph& final_g = batch.final_graph();
  const VertexId n = final_g.num_vertices();

  // Same lane decomposition as run(): contiguous source chunks, private BC
  // buffers folded in lane order afterwards for determinism.
  const auto lanes = engines_.size();
  const int chunk =
      static_cast<int>((static_cast<std::size_t>(k) + lanes - 1) / lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const int begin = static_cast<int>(lane) * chunk;
    const int end = std::min(k, begin + chunk);
    if (begin >= end) break;
    std::fill(bc_deltas_[lane].begin(), bc_deltas_[lane].end(), 0.0);
    pool_.submit([&, lane, begin, end] {
      DynamicCpuEngine& engine = *engines_[lane];
      std::span<double> bc_delta(bc_deltas_[lane]);
      std::vector<double> old_delta;
      for (int si = begin; si < end; ++si) {
        const VertexId s = store.sources()[static_cast<std::size_t>(si)];
        auto d = store.dist_row(si);
        auto sigma = store.sigma_row(si);
        auto delta = store.delta_row(si);
        outcomes[static_cast<std::size_t>(si)] = detail::run_source_batch(
            batch.edges.size(), n, config,
            [&](std::size_t i) {
              const auto [u, v] = batch.edges[i];
              return engine.update_source(batch.graphs[i], s, d, sigma, delta,
                                          bc_delta, u, v);
            },
            [&] {
              old_delta.assign(delta.begin(), delta.end());
              brandes_source(final_g, s, d, sigma, delta, {});
              for (std::size_t v = 0; v < bc_delta.size(); ++v) {
                if (v == static_cast<std::size_t>(s)) continue;
                bc_delta[v] += delta[v] - old_delta[v];
              }
            });
      }
    });
  }
  pool_.wait_idle();

  auto bc = store.bc();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const auto& delta = bc_deltas_[lane];
    for (std::size_t v = 0; v < bc.size(); ++v) {
      bc[v] += delta[v];
    }
  }
  return outcomes;
}

GpuBatchResult DynamicGpuBc::insert_edge_batch(const BatchSnapshots& batch,
                                               BcStore& store,
                                               const BatchConfig& config) {
  const int k = store.num_sources();
  GpuBatchResult result;
  result.outcomes.resize(static_cast<std::size_t>(k));
  if (batch.empty() || k == 0) return result;
  for (auto& ws : workspaces_) ws.ensure(batch.final_graph().num_vertices());

  // Queue order: provisional batch weight per source, heaviest first (the
  // host-side sort a driver performs before enqueueing jobs; it changes
  // only the schedule, never the per-source results). The policy decides
  // per-job modes but never the queue order: job order is the order BC
  // deltas fold in, so reordering would perturb the float sums the forced
  // modes must reproduce bit-identically - and the classification-based
  // weight schedules at least as well as the cycle estimate.
  PlannedLaunch launch(SourceLaunchKind::kBatch, policy_, mode_,
                       [&](ParallelismPolicy& p) {
                         return p.plan_batch(batch.final_graph(), store,
                                             batch);
                       });
  auto& order = result.job_sources;
  order.resize(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::int64_t> weight(static_cast<std::size_t>(k), 0);
  for (int si = 0; si < k; ++si) {
    weight[static_cast<std::size_t>(si)] =
        detail::batch_job_weight(store.dist_row(si), batch);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return weight[static_cast<std::size_t>(a)] >
           weight[static_cast<std::size_t>(b)];
  });

  result.stats = device_.launch_queue(
      k,
      [&](sim::BlockContext& ctx, int job) {
        const int si = order[static_cast<std::size_t>(job)];
        GpuWorkspace& ws =
            workspaces_[static_cast<std::size_t>(ctx.block_id())];
        std::vector<VertexId> bfs_order;
        std::vector<std::size_t> level_offsets;
        launch.run(ctx, si, [&](Parallelism m) {
          result.outcomes[static_cast<std::size_t>(si)] =
              detail::gpu_source_batch(ctx, ws, m, batch, config, store, si,
                                       bfs_order, level_offsets);
        });
      },
      &result.job_stats, launch.name());
  launch.feedback(result.outcomes, &SourceBatchOutcome::touched_total);
  return result;
}

BatchSnapshots DynamicBc::stage_batch(
    std::span<const std::pair<VertexId, VertexId>> edges,
    UpdateOutcome& outcome) {
  util::Stopwatch structure_clock;
  BatchSnapshots batch = build_batch_snapshots(csr_, edges);
  outcome.inserted = static_cast<int>(batch.edges.size());
  outcome.skipped = static_cast<int>(batch.skipped.size());
  if (!batch.empty()) csr_ = batch.final_graph();
  outcome.structure_wall_seconds = structure_clock.elapsed_s();
  return batch;
}

void DynamicBc::run_batch_kernels(const BatchSnapshots& batch,
                                  const BatchConfig& config,
                                  UpdateOutcome& outcome) {
  util::Stopwatch clock;
  const auto fold = [&outcome](std::span<const SourceBatchOutcome> per_source) {
    for (const SourceBatchOutcome& o : per_source) {
      outcome.case1 += o.case1;
      outcome.case2 += o.case2;
      outcome.case3 += o.case3;
      if (o.recomputed) ++outcome.recomputed_sources;
      outcome.max_touched = std::max(outcome.max_touched, o.touched_total);
    }
  };
  if (engine() == EngineKind::kCpu) {
    cpu_engine_->reset_counters();
    const CpuBatchResult cpu_result =
        batch_insert_update(*cpu_engine_, batch, store_, config);
    fold(cpu_result.outcomes);
    outcome.modeled_seconds =
        sim::cpu_seconds(cost_model_, cpu_result.ops.instrs,
                         cpu_result.ops.reads, cpu_result.ops.writes);
  } else {
    // Results are folded inside the attempt: a faulted attempt throws at
    // launch entry, before any per-source outcome exists, so a retry never
    // double-counts.
    run_recovered(
        "bc.batch",
        [&] {
          if (sharded_) {
            const ShardedBatchResult sharded_result =
                sharded_->insert_edge_batch(batch, store_, config);
            fold(sharded_result.outcomes);
            outcome.modeled_seconds = sharded_result.launch.group.seconds;
          } else {
            const GpuBatchResult gpu_result =
                gpu_engine_->insert_edge_batch(batch, store_, config);
            fold(gpu_result.outcomes);
            outcome.modeled_seconds = gpu_result.stats.seconds;
          }
        },
        outcome);
  }
  outcome.update_wall_seconds = clock.elapsed_s();
}

UpdateOutcome DynamicBc::insert_edge_batch(
    std::span<const std::pair<VertexId, VertexId>> edges,
    const BatchConfig& config) {
  if (!computed_) {
    throw std::logic_error(
        "DynamicBc::compute() must run before insert_edge_batch");
  }
  trace::Span span("bc.insert_edge_batch", "bc",
                   {{"edges", static_cast<double>(edges.size())},
                    {"threshold", config.recompute_threshold}});
  UpdateOutcome outcome;
  const BatchSnapshots batch = stage_batch(edges, outcome);
  if (batch.empty()) return outcome;
  run_batch_kernels(batch, config, outcome);
  record_telemetry(trace::UpdateKind::kBatch, outcome);
  return outcome;
}

UpdateOutcome DynamicBc::insert_edge_batch(
    std::span<const std::pair<VertexId, VertexId>> edges) {
  return insert_edge_batch(
      edges,
      BatchConfig{.recompute_threshold = options().batch_recompute_threshold});
}

}  // namespace bcdyn
