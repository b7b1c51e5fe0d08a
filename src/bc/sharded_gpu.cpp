#include "bc/sharded_gpu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "bc/adaptive_policy.hpp"
#include "bc/case_classify.hpp"
#include "bc/static_kernels.hpp"

namespace bcdyn {

namespace {

/// Greedy LPT: heaviest job first, each to the least-loaded device (ties
/// toward the lowest device id). Equal weights degrade to round-robin.
std::vector<int> lpt_assign(const std::vector<std::int64_t>& weights,
                            int num_devices) {
  const int k = static_cast<int>(weights.size());
  std::vector<int> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return weights[static_cast<std::size_t>(a)] >
           weights[static_cast<std::size_t>(b)];
  });
  std::vector<int> device(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> load(static_cast<std::size_t>(num_devices), 0);
  for (int si : order) {
    int target = 0;
    for (int d = 1; d < num_devices; ++d) {
      if (load[static_cast<std::size_t>(d)] <
          load[static_cast<std::size_t>(target)]) {
        target = d;
      }
    }
    device[static_cast<std::size_t>(si)] = target;
    // Weightless jobs still occupy a queue slot; count them as 1 so the
    // first launch (no history) spreads sources instead of piling them
    // onto device 0.
    load[static_cast<std::size_t>(target)] +=
        std::max<std::int64_t>(weights[static_cast<std::size_t>(si)], 1);
  }
  return device;
}

std::vector<int> round_robin_assign(int k, int num_devices) {
  std::vector<int> device(static_cast<std::size_t>(k));
  for (int si = 0; si < k; ++si) device[static_cast<std::size_t>(si)] = si % num_devices;
  return device;
}

/// Predicted relative cost of one source's single-edge update, readable
/// from the store's dist row before launching (the same host-side
/// information a real multi-GPU driver has): same-level edges are
/// classification-only, adjacent ones pay for their touched subtree, and
/// distance-changing ones run the Case 3 repair - the heavy tail LPT must
/// spread. Same scale as batch_job_weight. An existing edge's endpoints
/// differ by at most one level, so removals classify to kNoWork or
/// kAdjacent only; an adjacent removal can escalate to the distance-growing
/// Case 3 repair (no surviving parent), so it gets the heavy weight.
std::int64_t update_job_weight(std::span<const Dist> dist, VertexId u,
                               VertexId v, bool removal) {
  switch (classify_insertion(dist, u, v).update_case) {
    case UpdateCase::kNoWork:
      return 0;
    case UpdateCase::kAdjacent:
      return removal ? 4 : 1;
    case UpdateCase::kFar:
      return 4;
  }
  return 0;
}

}  // namespace

const char* to_string(ShardPolicy policy) {
  return policy == ShardPolicy::kRoundRobin ? "round-robin" : "lpt";
}

ShardedGpuBc::ShardedGpuBc(int num_devices, sim::DeviceSpec spec,
                           Parallelism mode, sim::CostModel cost,
                           bool track_atomic_conflicts, ShardPolicy policy)
    : group_(num_devices, std::move(spec), cost, track_atomic_conflicts),
      mode_(mode),
      policy_(policy) {}

std::vector<int> ShardedGpuBc::shard_sources(int k) const {
  if (policy_ == ShardPolicy::kRoundRobin) {
    return round_robin_assign(k, num_devices());
  }
  std::vector<std::int64_t> weights(static_cast<std::size_t>(k), 0);
  if (last_cycles_.size() == weights.size()) weights = last_cycles_;
  return lpt_assign(weights, num_devices());
}

void ShardedGpuBc::remember_weights(const sim::GroupLaunchResult& result) {
  last_cycles_.resize(result.placements.size());
  for (std::size_t j = 0; j < result.placements.size(); ++j) {
    const auto& p = result.placements[j];
    last_cycles_[j] = std::llround(p.end_cycles - p.start_cycles);
  }
}

std::vector<std::int64_t> ShardedGpuBc::planned_weights(
    const LaunchPlan& plan, int k) const {
  std::vector<std::int64_t> weights(static_cast<std::size_t>(k), 0);
  for (int si = 0; si < k; ++si) {
    weights[static_cast<std::size_t>(si)] = adaptive_->planned_weight(plan, si);
  }
  return weights;
}

sim::GroupLaunchResult ShardedGpuBc::compute(const CSRGraph& g,
                                             BcStore& store) {
  std::fill(store.bc().begin(), store.bc().end(), 0.0);
  const int k = store.num_sources();
  ws_.ensure(g.num_vertices());

  LaunchPlan plan;
  std::vector<double> cycles;
  std::vector<std::int64_t> weights;
  if (adaptive_ != nullptr) {
    plan = adaptive_->plan_static(g, store);
    cycles.assign(static_cast<std::size_t>(k), 0.0);
    weights = planned_weights(plan, k);
  }

  std::vector<int> shard;
  std::span<const std::int64_t> priority;
  if (adaptive_ != nullptr && policy_ == ShardPolicy::kLptTouched) {
    // The policy's cycle estimates beat the previous launch's cycles: they
    // already reflect this launch's per-source mode decisions.
    shard = lpt_assign(weights, num_devices());
    priority = weights;
  } else {
    shard = shard_sources(k);
    if (policy_ == ShardPolicy::kLptTouched &&
        last_cycles_.size() == static_cast<std::size_t>(k)) {
      priority = last_cycles_;
    }
  }
  std::vector<VertexId> order;
  std::vector<std::size_t> level_offsets;
  const Parallelism mode = mode_;
  const char* name = adaptive_ != nullptr      ? "static_bc.adaptive"
                     : mode == Parallelism::kEdge ? "static_bc.edge"
                                                  : "static_bc.node";
  sim::GroupLaunchResult result = group_.launch_sharded(
      k, shard, priority,
      [&, mode](sim::BlockContext& ctx, int si) {
        const VertexId s = store.sources()[static_cast<std::size_t>(si)];
        const Parallelism m = plan.mode_or(si, mode);
        const double c0 = ctx.cycles();
        if (m == Parallelism::kEdge) {
          detail::static_source_edge(ctx, g, s, store.dist_row(si),
                                     store.sigma_row(si), store.delta_row(si),
                                     store.bc());
        } else {
          detail::static_source_node(ctx, g, s, store.dist_row(si),
                                     store.sigma_row(si), store.delta_row(si),
                                     store.bc(), order, level_offsets);
        }
        if (!cycles.empty()) {
          cycles[static_cast<std::size_t>(si)] = ctx.cycles() - c0;
        }
      },
      /*per_job=*/nullptr, name);
  if (adaptive_ != nullptr) adaptive_->apply_feedback(plan, cycles, {});
  remember_weights(result);
  return result;
}

ShardedUpdateResult ShardedGpuBc::insert_edge_update(const CSRGraph& g,
                                                     BcStore& store,
                                                     VertexId u, VertexId v) {
  const int k = store.num_sources();
  ShardedUpdateResult result;
  result.outcomes.resize(static_cast<std::size_t>(k));
  ws_.ensure(g.num_vertices());

  LaunchPlan plan;
  std::vector<double> cycles;
  if (adaptive_ != nullptr) {
    plan = adaptive_->plan_insert(g, store, u, v);
    cycles.assign(static_cast<std::size_t>(k), 0.0);
  }

  // Single-edge updates carry an edge-specific cost prediction (the case
  // each source will take, read off its dist row), which beats the
  // previous launch's cycles: the heavy tail moves with the edge. With an
  // adaptive policy, the prediction is its per-job cycle estimate.
  std::vector<int> shard;
  std::vector<std::int64_t> weights;
  std::span<const std::int64_t> priority;
  if (policy_ == ShardPolicy::kLptTouched) {
    if (adaptive_ != nullptr) {
      weights = planned_weights(plan, k);
    } else {
      weights.resize(static_cast<std::size_t>(k));
      for (int si = 0; si < k; ++si) {
        weights[static_cast<std::size_t>(si)] =
            update_job_weight(store.dist_row(si), u, v, /*removal=*/false);
      }
    }
    shard = lpt_assign(weights, num_devices());
    priority = weights;
  } else {
    shard = round_robin_assign(k, num_devices());
  }
  auto& outcomes = result.outcomes;
  const Parallelism mode = mode_;
  const char* name = adaptive_ != nullptr      ? "insert.adaptive"
                     : mode == Parallelism::kEdge ? "insert.edge"
                                                  : "insert.node";
  result.launch = group_.launch_sharded(
      k, shard, priority,
      [&, mode, u, v](sim::BlockContext& ctx, int si) {
        const VertexId s = store.sources()[static_cast<std::size_t>(si)];
        const double c0 = ctx.cycles();
        outcomes[static_cast<std::size_t>(si)] =
            detail::gpu_insert_source_update(ctx, ws_, plan.mode_or(si, mode),
                                             g, s, store.dist_row(si),
                                             store.sigma_row(si),
                                             store.delta_row(si), store.bc(),
                                             u, v);
        if (!cycles.empty()) {
          cycles[static_cast<std::size_t>(si)] = ctx.cycles() - c0;
        }
      },
      /*per_job=*/nullptr, name);
  if (adaptive_ != nullptr) {
    std::vector<VertexId> touched(static_cast<std::size_t>(k), 0);
    for (int si = 0; si < k; ++si) {
      touched[static_cast<std::size_t>(si)] =
          outcomes[static_cast<std::size_t>(si)].touched;
    }
    adaptive_->apply_feedback(plan, cycles, touched);
  }
  remember_weights(result.launch);
  return result;
}

ShardedUpdateResult ShardedGpuBc::remove_edge_update(const CSRGraph& g,
                                                     BcStore& store,
                                                     VertexId u, VertexId v) {
  const int k = store.num_sources();
  ShardedUpdateResult result;
  result.outcomes.resize(static_cast<std::size_t>(k));
  ws_.ensure(g.num_vertices());

  LaunchPlan plan;
  std::vector<double> cycles;
  if (adaptive_ != nullptr) {
    plan = adaptive_->plan_remove(g, store, u, v);
    cycles.assign(static_cast<std::size_t>(k), 0.0);
  }

  std::vector<int> shard;
  std::vector<std::int64_t> weights;
  std::span<const std::int64_t> priority;
  if (policy_ == ShardPolicy::kLptTouched) {
    if (adaptive_ != nullptr) {
      weights = planned_weights(plan, k);
    } else {
      weights.resize(static_cast<std::size_t>(k));
      for (int si = 0; si < k; ++si) {
        weights[static_cast<std::size_t>(si)] =
            update_job_weight(store.dist_row(si), u, v, /*removal=*/true);
      }
    }
    shard = lpt_assign(weights, num_devices());
    priority = weights;
  } else {
    shard = round_robin_assign(k, num_devices());
  }
  auto& outcomes = result.outcomes;
  const Parallelism mode = mode_;
  const char* name = adaptive_ != nullptr      ? "remove.adaptive"
                     : mode == Parallelism::kEdge ? "remove.edge"
                                                  : "remove.node";
  result.launch = group_.launch_sharded(
      k, shard, priority,
      [&, mode, u, v](sim::BlockContext& ctx, int si) {
        const VertexId s = store.sources()[static_cast<std::size_t>(si)];
        const double c0 = ctx.cycles();
        outcomes[static_cast<std::size_t>(si)] =
            detail::gpu_remove_source_update(
                ctx, ws_, plan.mode_or(si, mode), g, s, store.dist_row(si),
                store.sigma_row(si), store.delta_row(si), store.bc(), u, v);
        if (!cycles.empty()) {
          cycles[static_cast<std::size_t>(si)] = ctx.cycles() - c0;
        }
      },
      /*per_job=*/nullptr, name);
  if (adaptive_ != nullptr) {
    std::vector<VertexId> touched(static_cast<std::size_t>(k), 0);
    for (int si = 0; si < k; ++si) {
      touched[static_cast<std::size_t>(si)] =
          outcomes[static_cast<std::size_t>(si)].touched;
    }
    adaptive_->apply_feedback(plan, cycles, touched);
  }
  remember_weights(result.launch);
  return result;
}

ShardedBatchResult ShardedGpuBc::insert_edge_batch(const BatchSnapshots& batch,
                                                   BcStore& store,
                                                   const BatchConfig& config) {
  const int k = store.num_sources();
  ShardedBatchResult result;
  result.outcomes.resize(static_cast<std::size_t>(k));
  if (batch.empty() || k == 0) return result;
  const CSRGraph& final_g = batch.final_graph();
  const VertexId n = final_g.num_vertices();
  ws_.ensure(n);

  LaunchPlan plan;
  std::vector<double> cycles;
  if (adaptive_ != nullptr) {
    plan = adaptive_->plan_batch(final_g, store, batch);
    cycles.assign(static_cast<std::size_t>(k), 0.0);
  }

  // Batch jobs carry a usable work prediction of their own (the provisional
  // per-source batch weight - or, with an adaptive policy, its per-job
  // cycle estimate), so both policies shard AND order the queues by it -
  // fresher than the previous launch's cycles.
  std::vector<std::int64_t> weights;
  if (adaptive_ != nullptr) {
    weights = planned_weights(plan, k);
  } else {
    weights.assign(static_cast<std::size_t>(k), 0);
    for (int si = 0; si < k; ++si) {
      weights[static_cast<std::size_t>(si)] =
          detail::batch_job_weight(store.dist_row(si), batch);
    }
  }
  const std::vector<int> shard = policy_ == ShardPolicy::kRoundRobin
                                     ? round_robin_assign(k, num_devices())
                                     : lpt_assign(weights, num_devices());

  std::vector<VertexId> bfs_order;
  std::vector<std::size_t> level_offsets;
  auto& outcomes = result.outcomes;
  const Parallelism mode = mode_;
  const char* name = adaptive_ != nullptr      ? "batch.adaptive"
                     : mode == Parallelism::kEdge ? "batch.edge"
                                                  : "batch.node";
  result.launch = group_.launch_sharded(
      k, shard, weights,
      [&, mode](sim::BlockContext& ctx, int si) {
        const VertexId s = store.sources()[static_cast<std::size_t>(si)];
        const Parallelism m = plan.mode_or(si, mode);
        auto d = store.dist_row(si);
        auto sigma = store.sigma_row(si);
        auto delta = store.delta_row(si);
        const double c0 = ctx.cycles();
        outcomes[static_cast<std::size_t>(si)] = detail::run_source_batch(
            batch.edges.size(), n, config,
            [&](std::size_t i) {
              const auto [u, v] = batch.edges[i];
              return detail::gpu_insert_source_update(ctx, ws_, m,
                                                      batch.graphs[i], s, d,
                                                      sigma, delta,
                                                      store.bc(), u, v);
            },
            [&] {
              detail::gpu_recompute_source(ctx, ws_, m, final_g, s, d,
                                           sigma, delta, store.bc(),
                                           bfs_order, level_offsets);
            });
        if (!cycles.empty()) {
          cycles[static_cast<std::size_t>(si)] = ctx.cycles() - c0;
        }
      },
      /*per_job=*/nullptr, name);
  if (adaptive_ != nullptr) {
    std::vector<VertexId> touched(static_cast<std::size_t>(k), 0);
    for (int si = 0; si < k; ++si) {
      touched[static_cast<std::size_t>(si)] =
          outcomes[static_cast<std::size_t>(si)].touched_total;
    }
    adaptive_->apply_feedback(plan, cycles, touched);
  }
  remember_weights(result.launch);
  return result;
}

}  // namespace bcdyn
