#include "bc/batch_update.hpp"

#include <algorithm>
#include <stdexcept>

#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
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
                                    double recompute_threshold, BcStore& store,
                                    int si, std::vector<VertexId>& bfs_order,
                                    std::vector<std::size_t>& level_offsets) {
  const CSRGraph& final_g = batch.final_graph();
  const VertexId s = store.sources()[static_cast<std::size_t>(si)];
  auto d = store.dist_row(si);
  auto sigma = store.sigma_row(si);
  auto delta = store.delta_row(si);
  return run_source_batch(
      batch.edges.size(), final_g.num_vertices(), recompute_threshold,
      [&](std::size_t i) {
        const auto [u, v] = batch.edges[i];
        return gpu_source_update(ctx, ws, mode, /*removal=*/false,
                                 batch.graphs[i], s, d, sigma, delta,
                                 store.bc(), u, v);
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
                                   double recompute_threshold) {
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
        batch.edges.size(), n, recompute_threshold,
        [&](std::size_t i) {
          const auto [u, v] = batch.edges[i];
          return engine.source_update(/*removal=*/false, batch.graphs[i], s,
                                      d, sigma, delta, store.bc(), u, v);
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

BatchSnapshots DynamicBc::stage_batch(
    std::span<const std::pair<VertexId, VertexId>> edges,
    UpdateOutcome& outcome) {
  trace::Span span("bc.structure", "bc");
  util::Stopwatch structure_clock;
  BatchSnapshots batch = build_batch_snapshots(csr_, edges);
  outcome.inserted = static_cast<int>(batch.edges.size());
  outcome.skipped = static_cast<int>(batch.skipped.size());
  if (!batch.empty()) csr_ = batch.final_graph();
  outcome.structure_wall_seconds = structure_clock.elapsed_s();
  return batch;
}

void DynamicBc::run_batch_kernels(const BatchSnapshots& batch,
                                  double recompute_threshold,
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
        batch_insert_update(*cpu_engine_, batch, store_, recompute_threshold);
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
          const GpuBatchResult r =
              gpu_->insert_edge_batch(batch, store_, recompute_threshold);
          fold(r.outcomes);
          outcome.modeled_seconds = r.stats.seconds;
        },
        outcome);
  }
  outcome.update_wall_seconds = clock.elapsed_s();
}

UpdateOutcome DynamicBc::insert_edge_batch(
    std::span<const std::pair<VertexId, VertexId>> edges) {
  if (!computed_) {
    throw std::logic_error(
        "DynamicBc::compute() must run before insert_edge_batch");
  }
  const double threshold = options_.batch_recompute_threshold;
  trace::Span span("bc.insert_edge_batch", "bc",
                   {{"edges", static_cast<double>(edges.size())},
                    {"threshold", threshold}});
  UpdateOutcome outcome;
  const BatchSnapshots batch = stage_batch(edges, outcome);
  if (batch.empty()) return outcome;
  run_batch_kernels(batch, threshold, outcome);
  record_telemetry(trace::UpdateKind::kBatch, outcome);
  return outcome;
}

}  // namespace bcdyn
