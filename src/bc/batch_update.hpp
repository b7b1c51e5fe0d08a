// Batched edge-insertion updates (Kourtellis et al., Bergamini et al.:
// amortizing dynamic-BC work across a batch is where streaming deployments
// get their speedup).
//
// A batch is preprocessed once into incremental CSR snapshots - graphs[i]
// is the base graph plus edges[0..i] - and then every (source, batch) pair
// becomes ONE job: the job replays the batch's insertions against its
// source row in sequence, each edge classified with case_classify against
// the row's current distances and updated with the paper's case-2/case-3
// kernels. On the simulated GPU all jobs run in a single work-queue launch
// (Device::launch_queue) instead of one launch per edge, so a batch of k
// insertions pays one kernel-launch overhead rather than k and the greedy
// next-free-SM schedule balances skewed per-source work.
//
// Fallback (paper §V: recomputation wins once most of the graph is
// touched): each job tracks its cumulative touched fraction; when it
// exceeds BatchConfig::recompute_threshold with edges still pending, the
// job abandons the incremental path and statically recomputes its row
// against the batch's final graph - one Brandes iteration subsumes all
// remaining insertions for that source.
//
// Batch semantics: the final state equals applying the batch's edges one
// at a time, in any order. Every path is exact (it reproduces a fresh
// static recomputation on the final graph up to floating-point rounding of
// the BC folds), and the final graph does not depend on insertion order,
// so results are order-independent within a batch; tests assert this.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "bc/bc_store.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/update_outcome.hpp"
#include "gpusim/kernel_stats.hpp"
#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace bcdyn {

namespace sim {
class BlockContext;  // gpusim/block_context.hpp
}
struct GpuWorkspace;     // bc/dynamic_gpu.hpp
enum class Parallelism;  // bc/static_gpu.hpp

struct BatchConfig {
  /// Cumulative touched fraction (summed per-edge |touched| over n) above
  /// which a source's job falls back to one static recomputation against
  /// the batch's final graph. >= 1.0 effectively disables the fallback for
  /// small batches; 0.0 recomputes any source with non-case-1 work.
  double recompute_threshold = 0.25;
};

/// A deduplicated batch of insertions plus the incremental snapshots the
/// per-edge kernels run against: graphs[i] contains edges[0..i], so edge i
/// is updated against exactly the graph it was inserted into. Rejected
/// entries (self loops, out-of-range endpoints, edges already present or
/// repeated within the batch) are recorded in `skipped`.
struct BatchSnapshots {
  std::vector<std::pair<VertexId, VertexId>> edges;    // applied, in order
  std::vector<std::pair<VertexId, VertexId>> skipped;  // rejected entries
  std::vector<CSRGraph> graphs;                        // one per applied edge

  bool empty() const { return edges.empty(); }
  /// The post-batch graph. Requires at least one applied edge.
  const CSRGraph& final_graph() const { return graphs.back(); }
};

BatchSnapshots build_batch_snapshots(
    const CSRGraph& base, std::span<const std::pair<VertexId, VertexId>> edges);

/// Per-source outcome of one batch.
struct SourceBatchOutcome {
  int case1 = 0;  // per-edge classifications, as applied in sequence
  int case2 = 0;
  int case3 = 0;
  int edges_applied = 0;      // incremental updates actually run
  VertexId touched_total = 0;  // summed per-edge |touched|
  bool recomputed = false;     // hit the touched-fraction fallback
};

struct CpuBatchResult {
  std::vector<SourceBatchOutcome> outcomes;  // indexed by source index
  CpuOpCounters ops;  // engine counters plus modeled fallback-recompute cost
};

struct GpuBatchResult {
  sim::KernelStats stats;                    // the single work-queue launch
  std::vector<SourceBatchOutcome> outcomes;  // indexed by source index
  std::vector<int> job_sources;       // queue position -> source index
  std::vector<sim::BlockCounters> job_stats;  // per queue position
};

/// Sequential-CPU batch update: every source row of `store` plus the BC
/// scores are advanced from the batch's base graph to its final graph.
CpuBatchResult batch_insert_update(DynamicCpuEngine& engine,
                                   const BatchSnapshots& batch, BcStore& store,
                                   const BatchConfig& config = {});

// DynamicBc::insert_edge_batch reports its aggregate as an UpdateOutcome
// (bc/update_outcome.hpp).

namespace detail {

/// Provisional per-source batch weight from the pre-batch distance row:
/// the scheduling priority of a (source, batch) job. Case-3 edges move
/// distances and dominate, case-2 edges cost a frontier walk, case-1 edges
/// are free. A heuristic, not a semantic input - it only orders (and, for
/// the sharded engine, shards) the work queue. Shared by the single-device
/// work-queue launch and the multi-device sharded path.
std::int64_t batch_job_weight(std::span<const Dist> dist,
                              const BatchSnapshots& batch);

/// One (source, batch) job on the simulated device: applies the batch's
/// insertions to source si's row in order, each against the snapshot it
/// was inserted into, with the touched-fraction recompute fallback against
/// the final graph. Shared by the single-device work-queue launch and the
/// sharded group launch; `bfs_order`/`level_offsets` are the fallback's
/// node-parallel frontier scratch.
SourceBatchOutcome gpu_source_batch(sim::BlockContext& ctx, GpuWorkspace& ws,
                                    Parallelism mode,
                                    const BatchSnapshots& batch,
                                    const BatchConfig& config, BcStore& store,
                                    int si, std::vector<VertexId>& bfs_order,
                                    std::vector<std::size_t>& level_offsets);

/// The per-source batch driver shared by every engine: applies edge i via
/// `update(i)` (which returns that edge's SourceUpdateOutcome) and, when
/// the cumulative touched fraction crosses the threshold with edges still
/// pending, calls `recompute()` once and stops. Being the single funnel
/// for every engine's batch jobs, this is also where the batch.* metrics
/// are recorded (batch.touched_fraction is cumulative over the job's
/// edges, so samples above 1.0 are legitimate).
template <typename UpdateFn, typename RecomputeFn>
SourceBatchOutcome run_source_batch(std::size_t num_edges, VertexId n,
                                    const BatchConfig& config,
                                    UpdateFn&& update,
                                    RecomputeFn&& recompute) {
  SourceBatchOutcome out;
  const double limit =
      config.recompute_threshold * static_cast<double>(n);
  for (std::size_t i = 0; i < num_edges; ++i) {
    const SourceUpdateOutcome r = update(i);
    ++out.edges_applied;
    switch (r.update_case) {
      case UpdateCase::kNoWork:
        ++out.case1;
        break;
      case UpdateCase::kAdjacent:
        ++out.case2;
        break;
      case UpdateCase::kFar:
        ++out.case3;
        break;
    }
    out.touched_total += r.touched;
    if (static_cast<double>(out.touched_total) > limit &&
        i + 1 < num_edges) {
      recompute();
      out.recomputed = true;
      break;
    }
  }
  auto& reg = trace::metrics();
  reg.add("batch.jobs.count");
  if (out.recomputed) reg.add("batch.fallback_recompute.count");
  reg.observe("batch.touched_fraction",
              n > 0 ? static_cast<double>(out.touched_total) /
                          static_cast<double>(n)
                    : 0.0);
  return out;
}

}  // namespace detail

}  // namespace bcdyn
