// The consolidated front door: one Session object instead of a DynamicBc
// plus four per-thread toggles.
//
//   bcdyn::bc::Session session(graph, {.engine = bcdyn::EngineKind::kGpuNode,
//                                      .num_devices = 2,
//                                      .pipeline_depth = 2,
//                                      .runtime = {.telemetry = true}});
//   session.compute();
//   session.insert_edge_batches(batches);   // pipelined, overlap-modeled
//   std::cout << session.report();
//
// Without Session, callers wire the analytic and then separately flip
// trace::tracer(), sim::hazards(), trace::telemetry() and sim::faults() -
// per-thread singletons whose state silently leaks across phases of a
// tool. The library is single-threaded by contract: one Session (or
// Service) per thread, and each thread that runs one gets its own
// registries, so a second thread never sees the first one's counters,
// traces or toggles. Session
// owns that wiring: Runtime (bc/dynamic_bc.hpp, beside Options) names the
// observability surface declaratively, and Session's RuntimeScope base
// applies it before the analytic is built and restores every enable
// toggle to its pre-session state after the analytic is destroyed - or
// when building it throws - so two sequential Sessions with different
// Runtime configs cannot contaminate each other. (The telemetry window
// configuration and the fault plan are not restored: restoring them would
// clear what a caller reads after the session - see ~RuntimeScope.)
//
// A Session is a DynamicBc: the whole analytic surface, including
// insert_edge_batch and the pipelined insert_edge_batches, is the
// analytic's own, and both batch entries read their settings
// (batch_recompute_threshold, pipeline_depth) from Options. The bare
// DynamicBc stays available for code that manages observability itself.
#pragma once

#include <string>

#include "bc/dynamic_bc.hpp"
#include "bc/pipeline.hpp"

namespace bcdyn::bc {

/// Applies a Runtime to the calling thread's registries for its lifetime:
/// construction saves every enable toggle and applies `runtime`,
/// destruction puts the saved toggles back.
class RuntimeScope {
 public:
  explicit RuntimeScope(const Runtime& runtime);
  ~RuntimeScope();

  RuntimeScope(const RuntimeScope&) = delete;
  RuntimeScope& operator=(const RuntimeScope&) = delete;

 private:
  bool tracing_;
  bool hazards_;
  bool strict_;
  bool telemetry_;
  bool faults_;
};

/// Bases build in declaration order, so the runtime applies before the
/// analytic snapshots the graph, and is restored after the analytic is
/// destroyed (or when its construction throws).
class Session : private RuntimeScope, public DynamicBc {
 public:
  Session(const CSRGraph& g, const Options& options)
      : RuntimeScope(options.runtime), DynamicBc(g, options) {}

  /// The run report (trace/report.hpp) over the current metric/trace
  /// state - what bcdyn_trace prints.
  std::string report() const;
};

}  // namespace bcdyn::bc
