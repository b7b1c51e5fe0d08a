// Multi-device source sharding for the simulated-GPU BC engines.
//
// The paper's coarse-grained decomposition (one source per thread block,
// §III) makes per-source jobs independent, so the same analytic scales past
// one device: partition the k sources across N devices, give every device
// its own work queue, and let devices that drain their queue steal from the
// longest remaining peer queue (sim::DeviceGroup). ShardedGpuBc drives the
// static pass, single-edge insertions/removals, and batched insertions
// through one group launch each.
//
// Scores are bit-identical to the single-device engines for every device
// count and shard policy: jobs execute on the host sequentially in source
// order, folding their BC deltas into the shared store, while the group
// models the parallel schedule separately (see gpusim/device_group.hpp).
// Only the modeled makespans, placements, and steal counts change with N.
#pragma once

#include <cstdint>
#include <vector>

#include "bc/bc_store.hpp"
#include "bc/batch_update.hpp"
#include "bc/dynamic_gpu.hpp"
#include "bc/static_kernels.hpp"
#include "gpusim/device_group.hpp"
#include "graph/csr_graph.hpp"

namespace bcdyn {

/// How sources are partitioned across the group's home queues. Stealing
/// rebalances either policy at runtime; the policy decides how much
/// stealing is needed.
enum class ShardPolicy {
  /// Source index si homes on device si % N. Oblivious to per-source cost,
  /// so skewed sources lean on work stealing.
  kRoundRobin,
  /// Longest-processing-time-first: heaviest source to the least-loaded
  /// device, and each queue ordered heaviest-first. Weights come from the
  /// best host-side prediction available per launch kind: the previous
  /// launch's modeled cycles for the static pass, the per-source case
  /// classification (read off the dist rows) for single-edge updates, and
  /// the provisional batch weight for batches. No prediction (first static
  /// pass) degrades to round-robin.
  kLptTouched,
};

const char* to_string(ShardPolicy policy);

/// Per-source outcomes plus the group launch behind them.
struct ShardedUpdateResult {
  sim::GroupLaunchResult launch;
  std::vector<SourceUpdateOutcome> outcomes;  // indexed by source index
};

struct ShardedBatchResult {
  sim::GroupLaunchResult launch;
  std::vector<SourceBatchOutcome> outcomes;  // indexed by source index
};

class ShardedGpuBc {
 public:
  ShardedGpuBc(int num_devices, sim::DeviceSpec spec, Parallelism mode,
               sim::CostModel cost = {}, bool track_atomic_conflicts = false,
               ShardPolicy policy = ShardPolicy::kRoundRobin);

  /// Static pass: recomputes every row + BC from scratch, one job per
  /// source, sharded across the group. Zeroes BC first.
  sim::GroupLaunchResult compute(const CSRGraph& g, BcStore& store);

  /// Incremental insertion of {u, v} (g must already contain the edge; the
  /// store holds pre-insertion state). One job per source.
  ShardedUpdateResult insert_edge_update(const CSRGraph& g, BcStore& store,
                                         VertexId u, VertexId v);

  /// Decremental counterpart (g must no longer contain the edge).
  ShardedUpdateResult remove_edge_update(const CSRGraph& g, BcStore& store,
                                         VertexId u, VertexId v);

  /// Batched insertions: one (source, batch) job per source, each replaying
  /// the batch's edges against its row with the touched-fraction recompute
  /// fallback, exactly like DynamicGpuBc::insert_edge_batch.
  ShardedBatchResult insert_edge_batch(const BatchSnapshots& batch,
                                       BcStore& store,
                                       const BatchConfig& config);

  /// Home-queue assignment the current policy would produce for k sources
  /// from the previous launch's cycles (the static pass's shard; exposed
  /// for tests). Updates and batches re-shard per launch from edge-aware
  /// cost predictions instead.
  std::vector<int> shard_sources(int k) const;

  sim::DeviceGroup& group() { return group_; }
  const sim::DeviceGroup& group() const { return group_; }
  int num_devices() const { return group_.num_devices(); }
  Parallelism mode() const { return mode_; }
  ShardPolicy policy() const { return policy_; }

  /// Adaptive parallelism: when set, every launch plans a per-source
  /// edge/node decision through the policy (and feeds measured modeled
  /// cycles back), and kLptTouched shards by the policy's per-job cycle
  /// estimates. Null restores the fixed `mode` behavior. Not owned.
  void set_policy(ParallelismPolicy* policy) { adaptive_ = policy; }

 private:
  /// The one insert/remove body: plans, shards, launches and feeds back
  /// one single-edge update of `kind` (kInsert or kRemove).
  ShardedUpdateResult edge_update(SourceLaunchKind kind, const CSRGraph& g,
                                  BcStore& store, VertexId u, VertexId v);

  /// Records per-job modeled cycles as the next launch's LPT weights.
  void remember_weights(const sim::GroupLaunchResult& result);

  sim::DeviceGroup group_;
  Parallelism mode_;
  ShardPolicy policy_;
  ParallelismPolicy* adaptive_ = nullptr;
  GpuWorkspace ws_;  // host execution is sequential: one workspace suffices
  std::vector<std::int64_t> last_cycles_;  // per source index, from the
                                           // previous launch (LPT input)
};

}  // namespace bcdyn
