// The consolidated front door: one Session object instead of a DynamicBc
// plus three process-wide toggles.
//
//   bcdyn::bc::Session session(graph, {.engine = bcdyn::EngineKind::kGpuNode,
//                                      .num_devices = 2,
//                                      .pipeline_depth = 2,
//                                      .runtime = {.telemetry = true}});
//   session.compute();
//   session.insert_edge_batches(batches);   // pipelined, overlap-modeled
//   std::cout << session.report();
//
// Before Session, callers wired the analytic (DynamicBc::Options) and then
// separately flipped trace::tracer(), sim::hazards(), and
// trace::telemetry() - three singletons whose state silently leaked across
// phases of a tool. Session owns that wiring: Runtime names the
// observability surface declaratively, the constructor applies it, and the
// destructor restores every enable toggle to its pre-session state, so two
// sequential Sessions with different Runtime configs cannot contaminate
// each other. (The telemetry window configuration is the one exception:
// restoring it would clear the windows a caller reads after the session -
// see ~Session.)
//
// Session also carries the pipelined batch driver's knobs (pipeline depth,
// score download) so tools choose sync vs pipelined ingest per call, not
// per engine rebuild. DynamicBc stays available as the bare analytic for
// code that manages observability itself, and is re-exported here as the
// deprecated spelling of "the analytic object".
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bc/dynamic_bc.hpp"
#include "bc/pipeline.hpp"
#include "gpusim/fault_injector.hpp"
#include "trace/telemetry.hpp"

namespace bcdyn::bc {

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

/// Everything configurable about a Session, in one aggregate. The analytic
/// fields mirror DynamicBc::Options field for field (Session is the front
/// door, not a new engine); the pipeline/runtime fields are Session-only.
struct Options {
  EngineKind engine = EngineKind::kCpu;
  ApproxConfig approx;
  sim::DeviceSpec device_spec = sim::DeviceSpec::tesla_c2075();
  int num_devices = 1;
  ShardPolicy shard_policy = ShardPolicy::kRoundRobin;
  bool track_atomic_conflicts = false;
  double batch_recompute_threshold = 0.25;
  AdaptiveConfig adaptive;
  /// Reaction to injected faults (retries, modeled backoff, recompute
  /// fallback); only meaningful with runtime.fault_injection on.
  RecoveryPolicy recovery;

  /// insert_edge_batches staging depth (1 = synchronous chain; 2 = double
  /// buffering). Forwarded into PipelineConfig.
  int pipeline_depth = 2;
  /// Model the per-batch D2H score download in the pipeline.
  bool download_scores = true;

  Runtime runtime;

  /// The analytic subset, for constructing the wrapped DynamicBc.
  DynamicBc::Options analytic_options() const;
};

class Session {
 public:
  /// Applies `options.runtime` to the process-wide registries, then
  /// snapshots `g` into the analytic. The previous runtime state is
  /// restored when the Session is destroyed.
  Session(const CSRGraph& g, const Options& options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- the analytic surface (forwards to DynamicBc) ---------------------
  double compute() { return bc_->compute(); }
  UpdateOutcome insert_edge(VertexId u, VertexId v) {
    return bc_->insert_edge(u, v);
  }
  UpdateOutcome remove_edge(VertexId u, VertexId v) {
    return bc_->remove_edge(u, v);
  }
  UpdateOutcome insert_edges(
      std::span<const std::pair<VertexId, VertexId>> edges) {
    return bc_->insert_edges(edges);
  }
  UpdateOutcome insert_edge_batch(
      std::span<const std::pair<VertexId, VertexId>> edges) {
    return bc_->insert_edge_batch(edges);
  }
  /// Pipelined ingest at the session's configured depth.
  PipelineResult insert_edge_batches(
      std::span<const std::vector<std::pair<VertexId, VertexId>>> batches);

  std::span<const double> scores() const { return bc_->scores(); }
  std::vector<std::pair<VertexId, double>> top_k(int k) const {
    return bc_->top_k(k);
  }
  const CSRGraph& graph() const { return bc_->graph(); }
  bool computed() const { return bc_->computed(); }
  EngineKind engine() const { return bc_->engine(); }
  int num_devices() const { return bc_->num_devices(); }
  ParallelismPolicy* policy() { return bc_->policy(); }
  double verify_against_recompute() const {
    return bc_->verify_against_recompute();
  }

  const Options& options() const { return options_; }
  /// The wrapped analytic, for surface Session does not re-export.
  DynamicBc& analytic() { return *bc_; }
  const DynamicBc& analytic() const { return *bc_; }

  /// The run report (trace/report.hpp) over the current metric/trace
  /// state - what bcdyn_trace prints.
  std::string report() const;

 private:
  struct RuntimeSnapshot {
    bool tracing = false;
    bool hazards = false;
    bool strict = false;
    bool telemetry = false;
    bool faults = false;
  };

  /// Puts back every toggle saved_ recorded: the destructor's job, and the
  /// constructor's when building the analytic throws.
  void restore_runtime();

  Options options_;
  RuntimeSnapshot saved_;           // pre-session state, restored in dtor
  std::unique_ptr<DynamicBc> bc_;  // constructed after the runtime applies
};

}  // namespace bcdyn::bc
