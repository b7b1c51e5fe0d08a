// Dynamic betweenness centrality on the simulated GPU (paper §III).
//
// One launch per edge insertion; the launch runs `num_sms` thread blocks
// and block b handles source indices b, b+nblocks, ... (the paper's
// coarse-grained decomposition, Fig. 3). Per source the block classifies
// the insertion (§II.D.1) and runs the matching update kernels:
//
//   Case 1  nothing to do beyond the two distance reads - this is what
//           makes the paper's "fastest" updates ~constant time.
//   Case 2  the paper's Algorithms 3-8. Edge-parallel scans the whole
//           directed-arc list every BFS/dependency level (Algorithms 4, 6);
//           node-parallel keeps explicit frontier queues with the bitonic
//           sort + scan duplicate-removal pipeline and a flat multi-level
//           queue QQ (Algorithms 5, 7).
//   Case 3  the generalized repair of DESIGN.md §7 expressed in the same
//           two fine-grained mappings (the paper notes its techniques
//           "generalize and can be applied to Case 3").
//
// Removals classify the same way: Case 2 runs with negative increments,
// and a distance-growing removal runs Case 3 behind a decremental Phase 0
// that finds and relevels the vertices whose every shortest path used the
// removed edge.
//
// Every kernel charges its BlockContext for the memory traffic and atomics
// a CUDA implementation would issue; modeled time comes from those counters
// (gpusim/cost_model.hpp). Results are exact and are cross-checked against
// the sequential engine and static recomputation in the test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "bc/bc_store.hpp"
#include "bc/case_classify.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/static_gpu.hpp"
#include "gpusim/device.hpp"
#include "graph/csr_graph.hpp"

namespace bcdyn {

/// Per-block scratch state (the sigma-hat/delta-hat/t arrays of Algorithm 3
/// plus the queues of Algorithm 5). One instance per thread block, reused
/// across sources and insertions.
struct GpuWorkspace {
  std::vector<std::uint8_t> t;
  std::vector<std::uint8_t> moved;
  std::vector<std::uint8_t> reset;
  std::vector<Sigma> sigma_hat;
  std::vector<double> delta_hat;
  std::vector<Dist> d_new;
  std::vector<VertexId> q;
  std::vector<VertexId> q2;
  std::vector<VertexId> qq;
  std::vector<VertexId> moved_list;
  std::vector<VertexId> orphans;    // removal Phase 0: relevelled orphans
  std::vector<VertexId> premarked;  // removal Phase 0: orphans' other children
  std::vector<VertexId> scratch;
  std::vector<std::uint32_t> flags;

  void ensure(VertexId n);
};

struct GpuUpdateResult {
  sim::KernelStats stats;
  std::vector<SourceUpdateOutcome> outcomes;  // indexed by source index
};

enum class SourceLaunchKind;  // bc/adaptive_policy.hpp

// Batch-update types (bc/batch_update.hpp).
struct BatchConfig;
struct BatchSnapshots;
struct GpuBatchResult;

class DynamicGpuBc {
 public:
  /// `track_atomic_conflicts` turns on the device's per-address atomic
  /// conflict accounting (sim.atomic_conflicts.* metrics).
  DynamicGpuBc(sim::DeviceSpec spec, Parallelism mode,
               sim::CostModel cost = {}, bool track_atomic_conflicts = false);

  /// Updates every source row of `store` plus the BC scores for the
  /// insertion of {u, v}. `g` must already contain the edge; the store
  /// holds pre-insertion state.
  GpuUpdateResult insert_edge_update(const CSRGraph& g, BcStore& store,
                                     VertexId u, VertexId v);

  /// Decremental counterpart: `g` must no longer contain {u, v}; the store
  /// holds pre-removal state. Same-level removals are free; adjacent-level
  /// removals with a surviving parent run the negative-increment Case 2
  /// kernels; distance-growing removals run the decremental Case 3 repair
  /// (reported as UpdateCase::kFar with the repaired region as touched).
  GpuUpdateResult remove_edge_update(const CSRGraph& g, BcStore& store,
                                     VertexId u, VertexId v);

  /// Batched counterpart: one work-queue launch processes every (source,
  /// batch) job, applying the batch's insertions per source in sequence
  /// against the batch's incremental snapshots, with a static-recompute
  /// fallback for sources whose touched fraction exceeds the configured
  /// threshold. Declared here, defined in bc/batch_update.cpp alongside
  /// the rest of the batch API.
  GpuBatchResult insert_edge_batch(const BatchSnapshots& batch, BcStore& store,
                                   const BatchConfig& config);

  const sim::DeviceSpec& spec() const { return device_.spec(); }
  Parallelism mode() const { return mode_; }
  /// The simulated device the engine launches on (the pipelined batch
  /// driver issues its transfers against this device's copy engine).
  sim::Device& device() { return device_; }

  /// Adaptive parallelism: when set, every launch plans a per-source
  /// edge/node decision through the policy (and feeds measured modeled
  /// cycles back). Null restores the fixed `mode` behavior. Not owned.
  void set_policy(ParallelismPolicy* policy) { policy_ = policy; }

 private:
  /// The one insert/remove body: plans, launches and feeds back one
  /// single-edge update of `kind` (kInsert or kRemove).
  GpuUpdateResult edge_update(SourceLaunchKind kind, const CSRGraph& g,
                              BcStore& store, VertexId u, VertexId v);

  sim::Device device_;
  Parallelism mode_;
  ParallelismPolicy* policy_ = nullptr;
  std::vector<GpuWorkspace> workspaces_;  // one per block
};

namespace detail {

/// One insertion applied to one source row inside an existing block:
/// classify, run the matching case kernels, fold BC deltas. Shared by the
/// per-edge launch loop and the batch path.
SourceUpdateOutcome gpu_insert_source_update(sim::BlockContext& ctx,
                                             GpuWorkspace& ws,
                                             Parallelism mode,
                                             const CSRGraph& g, VertexId s,
                                             std::span<Dist> d,
                                             std::span<Sigma> sigma,
                                             std::span<double> delta,
                                             std::span<double> bc, VertexId u,
                                             VertexId v);

/// One removal applied to one source row inside an existing block:
/// classify (same-level removals are free), run the negative-increment
/// Case 2 kernels when u_low keeps another parent, otherwise the
/// decremental Case 3 repair (Phase 0 relevels the vertices whose every
/// shortest path used the edge, then the generalized repair runs). Shared
/// by the per-edge launch loop and the sharded multi-device path.
SourceUpdateOutcome gpu_remove_source_update(
    sim::BlockContext& ctx, GpuWorkspace& ws, Parallelism mode,
    const CSRGraph& g, VertexId s, std::span<Dist> d, std::span<Sigma> sigma,
    std::span<double> delta, std::span<double> bc, VertexId u, VertexId v);

/// Recomputes source s's row from scratch on the device and folds the
/// dependency differences into `bc`: the batch path's touched-fraction
/// fallback. `order` and `level_offsets` are node-parallel frontier
/// scratch.
void gpu_recompute_source(sim::BlockContext& ctx, GpuWorkspace& ws,
                          Parallelism mode, const CSRGraph& g, VertexId s,
                          std::span<Dist> d, std::span<Sigma> sigma,
                          std::span<double> delta, std::span<double> bc,
                          std::vector<VertexId>& order,
                          std::vector<std::size_t>& level_offsets);

}  // namespace detail

}  // namespace bcdyn
