// The analytic: a dynamic betweenness-centrality engine over a streaming
// graph, and bc::Options, the one aggregate that configures it. The front
// door, bc::Session (bc/session.hpp), is a DynamicBc plus runtime wiring.
//
//   bcdyn::DynamicBc analytic(graph, {.engine = bcdyn::EngineKind::kGpuEdge,
//                                     .approx = {.num_sources = 256},
//                                     .num_devices = 2});
//   analytic.compute();                  // initial static pass
//   auto r = analytic.insert_edge(u, v); // incremental update
//   std::span<const double> bc = analytic.scores();
//
// The engine can be the sequential CPU algorithm (Green et al.) or either
// simulated-GPU variant (edge-/node-parallel); all produce identical
// scores. The GPU engine (bc/dynamic_gpu.hpp) runs on one simulated device
// or, with `num_devices` > 1, shards its per-source jobs across a group of
// devices with cross-device work stealing - scores agree with one device
// within rounding and are bit-identical across group sizes; only the
// modeled time scales. Graph-structure maintenance - validating an update
// and patching the analytic's CSR in place (graph/csr_graph.hpp), plus the
// per-edge snapshots of a batch - is timed separately from the analytic
// update as UpdateOutcome::structure_wall_seconds, the same way on every
// path, matching the paper's methodology (§IV cites STINGER [23] for the
// structure side). A single-edge patch is one O(m) shift of the arc arrays,
// no rebuild.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bc/adaptive_policy.hpp"
#include "bc/bc_store.hpp"
#include "bc/recovery.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/dynamic_gpu.hpp"
#include "bc/update_outcome.hpp"
#include "graph/csr_graph.hpp"
#include "trace/telemetry.hpp"

namespace bcdyn {

// Batch-update snapshots (bc/batch_update.hpp).
struct BatchSnapshots;
// Pipelined batch driver (bc/pipeline.hpp).
struct PipelineResult;

enum class EngineKind { kCpu, kGpuEdge, kGpuNode, kGpuAdaptive };

const char* to_string(EngineKind kind);

/// Parses the names to_string produces ("cpu", "gpu-edge", "gpu-node",
/// "gpu-adaptive"); nullopt for anything else. The single home for
/// engine-name parsing - tools and benches must not hand-roll their own.
std::optional<EngineKind> engine_from_string(std::string_view name);

/// engine_from_string for CLI flags: throws std::invalid_argument naming
/// the accepted values when `flag` is not an engine name.
EngineKind parse_engine_flag(std::string_view flag);

namespace bc {

/// Process-wide observability state a Session applies on construction and
/// restores on destruction. Defaults are all-off: a default Session runs
/// exactly like a bare DynamicBc (metrics are always on - they are the
/// system's counters, not a toggle).
struct Runtime {
  /// trace::tracer(): host spans + modeled device timelines.
  bool tracing = false;
  /// sim::hazards(): shadow-memory hazard detection on every launch.
  bool hazard_detection = false;
  /// Hazard strict mode: throw sim::HazardError on the first violation
  /// (implies nothing unless hazard_detection is on).
  bool strict_hazards = false;
  /// trace::telemetry(): windowed stream-latency aggregation. When turned
  /// on, `telemetry_config` replaces the registry's configuration.
  bool telemetry = false;
  trace::TelemetryConfig telemetry_config;
  /// sim::faults(): deterministic fault injection on the simulated runtime
  /// (gpusim/fault_injector.hpp). When turned on, `fault_plan` replaces
  /// the injector's plan. The analytic reacts through Options::recovery.
  bool fault_injection = false;
  sim::FaultPlan fault_plan;
};

/// Everything configurable about the analytic and its front door, in one
/// aggregate. DynamicBc reads every field but `runtime`, which only
/// Session applies.
struct Options {
  EngineKind engine = EngineKind::kCpu;
  ApproxConfig approx;  // source sampling (paper §II.B)
  /// GPU engines only: shard per-source jobs round-robin across this many
  /// simulated Tesla C2075s with cross-device work stealing. 1 = one
  /// device, no group.
  int num_devices = 1;
  /// Turns on the simulator's per-address atomic conflict accounting
  /// (observability only - it feeds the sim.atomic_conflicts.* metrics
  /// and the bcdyn_trace report, never the modeled results).
  bool track_atomic_conflicts = false;
  /// insert_edge_batch and insert_edge_batches: cumulative touched
  /// fraction (summed per-edge |touched| over n) above which a source's
  /// batch job falls back to one static recomputation against the batch's
  /// final graph. >= 1.0 effectively disables the fallback for small
  /// batches; 0.0 recomputes any source with non-case-1 work. Must be a
  /// number >= 0.
  double batch_recompute_threshold = 0.25;
  /// kGpuAdaptive only: the parallelism policy's configuration (the
  /// exploration probe's seed). Ignored by the fixed engines.
  AdaptiveConfig adaptive;
  /// Reaction to injected runtime faults (bc/recovery.hpp): bounded
  /// retries with deterministic modeled backoff, then an optional
  /// static-recompute fallback. Irrelevant unless sim::faults() is
  /// enabled (runtime.fault_injection; the CPU engine never faults - it
  /// has no simulated runtime).
  RecoveryPolicy recovery;

  /// insert_edge_batches staging buffers in flight: 1 = fully serialized
  /// (the synchronous chain); 2 = classic double buffering. Must be >= 1.
  int pipeline_depth = 2;

  Runtime runtime;
};

}  // namespace bc

class DynamicBc {
 public:
  /// Copies `g`; the analytic patches its own copy as edges change.
  /// Throws std::invalid_argument naming the field when num_devices or
  /// pipeline_depth is below 1, or batch_recompute_threshold is negative
  /// or NaN.
  DynamicBc(const CSRGraph& g, const bc::Options& options);

  /// Initial static computation (fills the per-source store and scores).
  /// Must be called (once) before insert_edge. Returns the modeled seconds
  /// of the static pass (0 for the CPU engine, whose static pass is not
  /// cost-modeled).
  double compute();

  /// Insert an undirected edge and incrementally update the analytic.
  UpdateOutcome insert_edge(VertexId u, VertexId v);

  /// Insert a batch of edges as ONE analytic update: the engine coalesces
  /// all of the batch's work per source (a single work-queue kernel launch
  /// on GPU engines) and falls back to static per-source recomputation when
  /// a source's touched fraction crosses Options::batch_recompute_threshold.
  /// Final scores equal applying the edges one at a time, in any order.
  /// Defined in bc/batch_update.cpp.
  UpdateOutcome insert_edge_batch(
      std::span<const std::pair<VertexId, VertexId>> edges);

  /// Pipelined stream of batches at Options::pipeline_depth: applies every
  /// batch exactly like insert_edge_batch (scores are bit-identical at
  /// every depth) while a modeled double-buffered schedule overlaps batch
  /// k+1's host staging and edge uploads with batch k's kernels on the
  /// simulated copy engine (gpusim/stream.hpp). Defined in
  /// bc/pipeline.cpp.
  PipelineResult insert_edge_batches(
      std::span<const std::vector<std::pair<VertexId, VertexId>>> batches);

  /// Remove an edge and incrementally update the analytic (same-level
  /// removals are free, adjacent-level ones run Case 2, distance-growing
  /// ones the Case 3 repair; the CPU engine recomputes those per affected
  /// source).
  UpdateOutcome remove_edge(VertexId u, VertexId v);

  std::span<const double> scores() const { return store_.bc(); }
  const BcStore& store() const { return store_; }
  BcStore& store() { return store_; }
  const CSRGraph& graph() const { return csr_; }
  bool computed() const { return computed_; }
  EngineKind engine() const { return options_.engine; }
  const bc::Options& options() const { return options_; }
  /// Simulated devices the GPU engines run on (1 for the CPU engine).
  int num_devices() const;
  /// The adaptive parallelism policy (kGpuAdaptive only; null otherwise).
  /// Exposes the decision log and decision counts.
  ParallelismPolicy* policy() { return policy_.get(); }
  const ParallelismPolicy* policy() const { return policy_.get(); }

  /// The `k` highest-scoring vertices, descending (ties by vertex id).
  std::vector<std::pair<VertexId, double>> top_k(int k) const;

  /// Debugging/validation aid: recomputes the analytic from scratch on the
  /// current graph and returns the maximum absolute difference against the
  /// incrementally-maintained scores (0 within rounding when healthy).
  /// O(k * (n + m)); intended for tests and periodic integrity checks.
  double verify_against_recompute() const;

 private:
  /// The single-edge update path behind insert_edge and remove_edge:
  /// validates and patches csr_, then runs the engine on every source.
  UpdateOutcome run_update(trace::UpdateKind kind, VertexId u, VertexId v);
  double recompute();
  /// The simulated devices the GPU engine runs on (empty for the CPU
  /// engine).
  std::vector<sim::Device*> devices() {
    return gpu_ ? gpu_->devices() : std::vector<sim::Device*>{};
  }
  /// Charges deterministic modeled backoff cycles to every device the GPU
  /// engines run on (no-op for the CPU engine).
  void charge_backoff(double cycles);
  /// Runs one engine pass under the RecoveryPolicy: bounded retries; when
  /// those exhaust and the policy allows it, falls back to a full static
  /// recompute (itself retried, with no further fallback), resetting
  /// `outcome`'s analytic fields to the recompute attribution. Every fault
  /// site fires before the pass mutates analytic state, so a retried pass
  /// folds deltas in the original order. Shared by run_update and
  /// run_batch_kernels.
  void run_recovered(const char* what,
                     const std::function<void()>& engine_pass,
                     UpdateOutcome& outcome);
  /// Structure phase of a batch insertion: builds the incremental
  /// snapshots (which reject invalid and duplicate edges) and advances
  /// csr_ to the batch's final graph. Fills outcome.inserted/skipped/
  /// structure_wall_seconds; the snapshots are empty when nothing was
  /// accepted. Shared by insert_edge_batch and the pipelined driver
  /// (bc/pipeline.cpp), which is what keeps their scores bit-identical.
  BatchSnapshots stage_batch(
      std::span<const std::pair<VertexId, VertexId>> edges,
      UpdateOutcome& outcome);
  /// Engine phase of a batch insertion: runs the (source, batch) jobs on
  /// the configured engine and folds per-source outcomes, modeled seconds,
  /// and update_wall_seconds into `outcome`. Defined in bc/batch_update.cpp.
  void run_batch_kernels(const BatchSnapshots& batch,
                         double recompute_threshold, UpdateOutcome& outcome);
  /// Folds a finished update into the opt-in stream telemetry
  /// (trace/telemetry.hpp). Every update path - single insert, removal,
  /// batch - reports through this one hook at the UpdateOutcome layer, so
  /// all engines (CPU, GPU variants, any device count) inherit the
  /// attribution.
  /// No-op while telemetry is disabled.
  void record_telemetry(trace::UpdateKind kind,
                        const UpdateOutcome& outcome) const;

  CSRGraph csr_;
  BcStore store_;
  bc::Options options_;
  bool computed_ = false;

  std::unique_ptr<DynamicCpuEngine> cpu_engine_;
  std::unique_ptr<DynamicGpuBc> gpu_;           // GPU engines only
  std::unique_ptr<ParallelismPolicy> policy_;  // kGpuAdaptive only
  sim::CostModel cost_model_;
};

}  // namespace bcdyn
