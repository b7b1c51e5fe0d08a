// Dynamic betweenness centrality on the simulated GPU (paper §III).
//
// The engine also owns the static pass every update starts from (Jia et
// al. [13], bc/static_kernels.hpp): the paper runs the recomputation
// baseline and the dynamic updates on the same device with the same
// coarse-grained decomposition, and so does this engine.
//
// One launch per edge insertion. On one simulated device the launch runs
// `num_sms` thread blocks and block b handles source indices b,
// b+nblocks, ... (the paper's coarse-grained decomposition, Fig. 3). On a
// group of devices (sim::DeviceGroup) the same per-source jobs shard one
// level up: every device gets its own work queue and steals from the
// longest peer queue once its own drains. Per source the block classifies
// the insertion (§II.D.1) and runs the matching update kernels:
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
// the sequential engine and static recomputation in the test suite. Only
// the launch step differs by hardware, and the jobs run on the host one
// after another either way, so a group's scores are bit-identical for
// every device count and shard policy; only the modeled makespans,
// placements and steal counts change with the number of devices.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "bc/bc_store.hpp"
#include "bc/case_classify.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/static_kernels.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_group.hpp"
#include "graph/csr_graph.hpp"

namespace bcdyn {

/// Vertices bucketed by distance: a stable counting sort of one distance
/// row, so each level lists its vertices in ascending order. Host-side
/// only - the edge-parallel sweeps read it to find their live items.
struct LevelIndex {
  std::vector<VertexId> vertices;
  std::vector<VertexId> starts;  // bucket b is [starts[b], starts[b + 1])

  void build(std::span<const Dist> d);
  /// Level l's vertices, ascending; kInfDist gives the unreachable ones.
  std::span<const VertexId> level(Dist l) const;
};

/// Bucket sort for arc indices: one bit per arc plus one summary bit per
/// 64-arc word, so reading k arcs back in order costs O(k + arcs / 4096).
/// Host-side only; empty between uses.
struct ArcBitmap {
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> summary;

  /// Sizes the set for `arcs` arcs; it must be empty.
  void resize(std::size_t arcs);
  void insert(std::size_t arc);
  /// Appends the arcs to `out` in ascending order and empties the set.
  void drain(std::vector<EdgeId>& out);
};

/// Per-block scratch state (the sigma-hat/delta-hat/t arrays of Algorithm 3
/// plus the queues of Algorithm 5), reused across sources and insertions.
/// A device holds one per thread block; the host runs blocks one after
/// another and every source update resets what it reads, so the engines
/// keep a single instance.
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
  // Host-side live sets of the sparse sweeps (not device state): the
  // source row's levels, one sweep's live vertices (finalize's touched
  // vertices included) and, for sweeps keyed by the arc's head, its live
  // arcs - all ascending.
  LevelIndex levels;
  std::vector<VertexId> live;
  std::vector<EdgeId> live_arcs;
  ArcBitmap arc_bits;

  void ensure(VertexId n);
};

/// How a device group partitions sources across its home queues. Stealing
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

/// The launch behind an engine call, read the same way on any hardware.
struct GpuLaunch {
  /// Counters and modeled time; on a group, counters summed over the
  /// devices and the makespan the max.
  sim::KernelStats stats;
  /// Group launches only (empty on a single device): per-device stats,
  /// job placements, steals and fault reshards.
  sim::GroupLaunchResult group;
};

struct GpuUpdateResult : GpuLaunch {
  std::vector<SourceUpdateOutcome> outcomes;  // indexed by source index
};

class ParallelismPolicy;      // bc/adaptive_policy.hpp
class PlannedLaunch;          // bc/adaptive_policy.hpp
enum class SourceLaunchKind;  // bc/adaptive_policy.hpp

// Batch-update types (bc/batch_update.hpp).
struct BatchSnapshots;
struct GpuBatchResult;

class DynamicGpuBc {
 public:
  /// The engine on one simulated device (fault domain "dev").
  /// `track_atomic_conflicts` turns on the device's per-address atomic
  /// conflict accounting (sim.atomic_conflicts.* metrics).
  DynamicGpuBc(sim::DeviceSpec spec, Parallelism mode,
               sim::CostModel cost = {}, bool track_atomic_conflicts = false);

  /// The engine on a group of `num_devices` devices (fault domains "dev0",
  /// "dev1", ...): every launch shards its per-source jobs across the
  /// group by `shard_policy`, with cross-device work stealing. A group of
  /// one device is a different schedule from the single-device engine
  /// (one work queue rather than block-striding). Throws
  /// std::invalid_argument when num_devices < 1.
  DynamicGpuBc(int num_devices, sim::DeviceSpec spec, Parallelism mode,
               sim::CostModel cost = {}, bool track_atomic_conflicts = false,
               ShardPolicy shard_policy = ShardPolicy::kRoundRobin);

  /// Recomputes the store (all rows + BC) from scratch: one launch, one
  /// job per source. On a single device block b handles sources b,
  /// b+nblocks, ...; `num_blocks` <= 0 launches one block per SM (the
  /// paper's choice), and Fig. 1 passes explicit block counts. A group
  /// ignores `num_blocks`.
  sim::KernelStats compute(const CSRGraph& g, BcStore& store,
                           int num_blocks = 0);

  /// Updates every source row of `store` plus the BC scores for one
  /// single-edge update of {u, v}: an insertion, or a removal when
  /// `removal` is set. The store holds pre-update state and `g` is the
  /// post-update graph: with the edge for an insertion, without it for a
  /// removal. Same-level removals are free; adjacent-level removals with a
  /// surviving parent run the negative-increment Case 2 kernels;
  /// distance-growing removals run the decremental Case 3 repair (reported
  /// as UpdateCase::kFar with the repaired region as touched).
  GpuUpdateResult edge_update(bool removal, const CSRGraph& g, BcStore& store,
                              VertexId u, VertexId v);

  /// Batched counterpart: one launch processes every (source, batch) job,
  /// applying the batch's insertions per source in sequence against the
  /// batch's incremental snapshots, with a static-recompute fallback for
  /// sources whose touched fraction exceeds `recompute_threshold`
  /// (bc/batch_update.hpp).
  GpuBatchResult insert_edge_batch(const BatchSnapshots& batch, BcStore& store,
                                   double recompute_threshold);

  const sim::DeviceSpec& spec() const;
  Parallelism mode() const { return mode_; }
  int num_devices() const;
  /// Simulated devices the engine launches on: the one device, or the
  /// group's devices in order (the pipelined batch driver issues its
  /// transfers against their copy engines, the recovery layer charges
  /// their backoff).
  std::vector<sim::Device*> devices();

  /// Adaptive parallelism: when set, every launch plans a per-source
  /// edge/node decision through the policy (and feeds measured modeled
  /// cycles back), and a kLptTouched group shards by the policy's per-job
  /// cycle estimates. Null restores the fixed `mode` behavior. Not owned.
  void set_policy(ParallelismPolicy* policy) { policy_ = policy; }

 private:
  /// Runs one source's job (index si) inside a block.
  using SourceJob = sim::Device::JobKernel;
  /// Host-side cost prediction for one source's job: scheduling only.
  using Weigh = std::function<std::int64_t(int si)>;

  /// The one step that differs by hardware: runs `job` once per source of
  /// a k-source launch planned by `plan`. On a device, the static pass and
  /// single-edge updates launch `num_blocks` blocks (<= 0: one per SM),
  /// block-strided, and batches launch a work queue ordered heaviest
  /// `weigh` first. On a group, the launch shards by the shard policy and
  /// the best weights at hand - the plan's, then `weigh`'s, then the
  /// previous launch's cycles - and remembers its cycles.
  void launch(SourceLaunchKind kind, const PlannedLaunch& plan, int k,
              const Weigh& weigh, const SourceJob& job, GpuLaunch& out,
              int num_blocks = 0);

  /// Records per-job modeled cycles as the next launch's LPT weights.
  void remember_weights(const sim::GroupLaunchResult& result);

  std::optional<sim::Device> device_;      // exactly one of these two
  std::optional<sim::DeviceGroup> group_;  // is engaged
  Parallelism mode_;
  ShardPolicy shard_policy_ = ShardPolicy::kRoundRobin;
  ParallelismPolicy* policy_ = nullptr;
  GpuWorkspace ws_;  // host execution is sequential: one workspace suffices
  std::vector<std::int64_t> last_cycles_;  // group: per source index, from
                                           // the previous launch (LPT input)
};

namespace detail {

/// One update applied to one source row inside an existing block:
/// classify by direction, run the matching case kernels, fold BC deltas.
/// Shared by the per-edge launch loop and the batch path. A removal runs
/// the insertion's kernels with `removal` set: same-level removals are
/// free, the negative-increment Case 2 runs when u_low keeps another
/// parent, otherwise the decremental Case 3 repair (Phase 0 relevels the
/// vertices whose every shortest path used the edge, then the generalized
/// repair runs).
SourceUpdateOutcome gpu_source_update(sim::BlockContext& ctx,
                                      GpuWorkspace& ws, Parallelism mode,
                                      bool removal, const CSRGraph& g,
                                      VertexId s, std::span<Dist> d,
                                      std::span<Sigma> sigma,
                                      std::span<double> delta,
                                      std::span<double> bc, VertexId u,
                                      VertexId v);

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
