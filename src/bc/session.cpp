#include "bc/session.hpp"

#include "gpusim/fault_injector.hpp"
#include "gpusim/hazard_detector.hpp"
#include "trace/metrics.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"

namespace bcdyn::bc {

DynamicBc::Options Options::analytic_options() const {
  return DynamicBc::Options{
      .engine = engine,
      .approx = approx,
      .device_spec = device_spec,
      .num_devices = num_devices,
      .shard_policy = shard_policy,
      .track_atomic_conflicts = track_atomic_conflicts,
      .batch_recompute_threshold = batch_recompute_threshold,
      .adaptive = adaptive,
      .recovery = recovery,
  };
}

Session::Session(const CSRGraph& g, const Options& options)
    : options_(options) {
  saved_.tracing = trace::tracer().enabled();
  saved_.hazards = sim::hazards().enabled();
  saved_.strict = sim::hazards().strict();
  saved_.telemetry = trace::telemetry().enabled();
  saved_.faults = sim::faults().enabled();

  const Runtime& rt = options.runtime;
  trace::tracer().set_enabled(rt.tracing);
  sim::hazards().set_enabled(rt.hazard_detection);
  sim::hazards().set_strict(rt.strict_hazards);
  if (rt.telemetry) trace::telemetry().configure(rt.telemetry_config);
  trace::telemetry().set_enabled(rt.telemetry);
  if (rt.fault_injection) sim::faults().configure(rt.fault_plan);
  sim::faults().set_enabled(rt.fault_injection);

  try {
    bc_ = std::make_unique<DynamicBc>(g, options.analytic_options());
  } catch (...) {
    restore_runtime();
    throw;
  }
}

Session::~Session() { restore_runtime(); }

void Session::restore_runtime() {
  trace::tracer().set_enabled(saved_.tracing);
  sim::hazards().set_enabled(saved_.hazards);
  sim::hazards().set_strict(saved_.strict);
  // The telemetry *configuration* is deliberately not restored:
  // StreamTelemetry::configure clears the accumulated windows, and callers
  // read snapshots/exposition after the session ends. Any later session
  // that enables telemetry installs its own configuration first.
  trace::telemetry().set_enabled(saved_.telemetry);
  // Same deal for the fault plan: only the enable toggle is restored, so
  // the injector's record of what fired stays readable after the session.
  sim::faults().set_enabled(saved_.faults);
}

PipelineResult Session::insert_edge_batches(
    std::span<const std::vector<std::pair<VertexId, VertexId>>> batches) {
  return bc_->insert_edge_batches(
      batches, PipelineConfig{.depth = options_.pipeline_depth,
                              .batch = {.recompute_threshold =
                                            options_.batch_recompute_threshold},
                              .download_scores = options_.download_scores});
}

std::string Session::report() const {
  return trace::report_string(trace::tracer(), trace::metrics());
}

}  // namespace bcdyn::bc
