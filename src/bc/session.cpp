#include "bc/session.hpp"

#include "gpusim/fault_injector.hpp"
#include "gpusim/hazard_detector.hpp"
#include "trace/metrics.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"

namespace bcdyn::bc {

RuntimeScope::RuntimeScope(const Runtime& rt)
    : tracing_(trace::tracer().enabled()),
      hazards_(sim::hazards().enabled()),
      strict_(sim::hazards().strict()),
      telemetry_(trace::telemetry().enabled()),
      faults_(sim::faults().enabled()) {
  trace::tracer().set_enabled(rt.tracing);
  sim::hazards().set_enabled(rt.hazard_detection);
  sim::hazards().set_strict(rt.strict_hazards);
  if (rt.telemetry) trace::telemetry().configure(rt.telemetry_config);
  trace::telemetry().set_enabled(rt.telemetry);
  if (rt.fault_injection) sim::faults().configure(rt.fault_plan);
  sim::faults().set_enabled(rt.fault_injection);
}

RuntimeScope::~RuntimeScope() {
  trace::tracer().set_enabled(tracing_);
  sim::hazards().set_enabled(hazards_);
  sim::hazards().set_strict(strict_);
  // The telemetry *configuration* is deliberately not restored:
  // StreamTelemetry::configure clears the accumulated windows, and callers
  // read snapshots/exposition after the session ends. Any later session
  // that enables telemetry installs its own configuration first.
  trace::telemetry().set_enabled(telemetry_);
  // Same deal for the fault plan: only the enable toggle is restored, so
  // the injector's record of what fired stays readable after the session.
  sim::faults().set_enabled(faults_);
}

std::string Session::report() const {
  return trace::report_string(trace::tracer(), trace::metrics());
}

}  // namespace bcdyn::bc
