#include "bc/dynamic_bc.hpp"

#include <algorithm>
#include <stdexcept>

#include "bc/brandes.hpp"
#include "gpusim/cost_model.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"
#include "util/stopwatch.hpp"

namespace bcdyn {

namespace {

/// Folds per-source outcomes into the update-level aggregate (case counts
/// and the touched max). Shared by every engine branch.
void fold_outcomes(std::span<const SourceUpdateOutcome> outcomes,
                   UpdateOutcome& out) {
  for (const auto& o : outcomes) {
    switch (o.update_case) {
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
    out.max_touched = std::max(out.max_touched, o.touched);
  }
}

}  // namespace

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kCpu:
      return "cpu";
    case EngineKind::kGpuEdge:
      return "gpu-edge";
    case EngineKind::kGpuNode:
      return "gpu-node";
    case EngineKind::kGpuAdaptive:
      return "gpu-adaptive";
  }
  return "?";
}

std::optional<EngineKind> engine_from_string(std::string_view name) {
  if (name == "cpu") return EngineKind::kCpu;
  if (name == "gpu-edge") return EngineKind::kGpuEdge;
  if (name == "gpu-node") return EngineKind::kGpuNode;
  if (name == "gpu-adaptive") return EngineKind::kGpuAdaptive;
  return std::nullopt;
}

EngineKind parse_engine_flag(std::string_view flag) {
  if (const auto kind = engine_from_string(flag)) return *kind;
  throw std::invalid_argument("unknown engine '" + std::string(flag) +
                              "' (want cpu|gpu-edge|gpu-node|gpu-adaptive)");
}

DynamicBc::DynamicBc(const CSRGraph& g, const bc::Options& options)
    : csr_(g),
      store_(g.num_vertices(), options.approx),
      options_(options) {
  if (options_.num_devices < 1) {
    throw std::invalid_argument("DynamicBc: num_devices must be >= 1");
  }
  if (options_.pipeline_depth < 1) {
    throw std::invalid_argument("DynamicBc: pipeline_depth must be >= 1");
  }
  if (!(options_.batch_recompute_threshold >= 0.0)) {
    throw std::invalid_argument(
        "DynamicBc: batch_recompute_threshold must be a number >= 0");
  }
  switch (options_.engine) {
    case EngineKind::kCpu:
      cpu_engine_ = std::make_unique<DynamicCpuEngine>(g.num_vertices());
      break;
    case EngineKind::kGpuEdge:
    case EngineKind::kGpuNode:
    case EngineKind::kGpuAdaptive: {
      // kGpuAdaptive overrides the fixed mode per launch through the
      // policy; the nominal mode below only covers sources the policy
      // leaves undecided (launches that cannot use a mode).
      const Parallelism mode = options_.engine == EngineKind::kGpuEdge
                                   ? Parallelism::kEdge
                                   : Parallelism::kNode;
      // The paper's hardware: every analytic runs on the Tesla C2075, and
      // a group shards round-robin (DynamicGpuBc takes other specs and
      // policies directly).
      const sim::DeviceSpec spec = sim::DeviceSpec::tesla_c2075();
      gpu_ = options_.num_devices > 1
                 ? std::make_unique<DynamicGpuBc>(
                       options_.num_devices, spec, mode, cost_model_,
                       options_.track_atomic_conflicts)
                 : std::make_unique<DynamicGpuBc>(
                       spec, mode, cost_model_,
                       options_.track_atomic_conflicts);
      if (options_.engine == EngineKind::kGpuAdaptive) {
        policy_ = std::make_unique<ParallelismPolicy>(options_.adaptive, spec,
                                                      cost_model_);
        gpu_->set_policy(policy_.get());
      }
      break;
    }
  }
}

int DynamicBc::num_devices() const {
  return gpu_ ? gpu_->num_devices() : 1;
}

void DynamicBc::record_telemetry(trace::UpdateKind kind,
                                 const UpdateOutcome& outcome) const {
  auto& stream = trace::telemetry();
  if (!stream.enabled()) return;
  trace::UpdateSample sample;
  sample.kind = kind;
  sample.engine = to_string(options_.engine);
  sample.devices = num_devices();
  sample.case1 = outcome.case1;
  sample.case2 = outcome.case2;
  sample.case3 = outcome.case3;
  sample.recomputed_sources = outcome.recomputed_sources;
  sample.touched_fraction =
      csr_.num_vertices() > 0
          ? static_cast<double>(outcome.max_touched) /
                static_cast<double>(csr_.num_vertices())
          : 0.0;
  sample.modeled_seconds = outcome.modeled_seconds;
  sample.wall_seconds = outcome.update_wall_seconds;
  stream.record(sample);
}

double DynamicBc::compute() {
  trace::Span span("bc.compute", "bc",
                   {{"n", static_cast<double>(csr_.num_vertices())},
                    {"sources", static_cast<double>(store_.num_sources())}});
  const double modeled = recompute();
  computed_ = true;
  return modeled;
}

double DynamicBc::recompute() {
  if (options_.engine == EngineKind::kCpu) {
    brandes_all(csr_, store_);
    return 0.0;
  }
  // A faulted static pass retries whole (the engines reset the store at
  // entry, so a re-run is idempotent); exhaustion propagates - there is
  // nothing left to fall back to.
  double modeled = 0.0;
  detail::retry_faults(
      "bc.recompute", options_.recovery, num_devices(),
      [&] { modeled = gpu_->compute(csr_, store_).seconds; },
      [&](double cycles) { charge_backoff(cycles); });
  return modeled;
}

void DynamicBc::charge_backoff(double cycles) {
  for (sim::Device* d : devices()) d->charge_fault_backoff(cycles);
}

void DynamicBc::run_recovered(const char* what,
                              const std::function<void()>& engine_pass,
                              UpdateOutcome& outcome) {
  try {
    detail::retry_faults(what, options_.recovery, num_devices(), engine_pass,
                         [&](double cycles) { charge_backoff(cycles); });
  } catch (const sim::FaultError& error) {
    if (!options_.recovery.fallback_recompute) throw;
    detail::note_fault(what, error, "fallback_recompute", num_devices());
    trace::metrics().add("bc.fault.fallback_recompute.count");
    // The per-source patch is abandoned: recompute every source from
    // scratch (retried inside recompute(); a second exhaustion there
    // propagates, which is the hard-failure path tests exercise with
    // rate-1.0 plans). Case counts stay zero - every fault site fires
    // before the engine folds anything, so `outcome` still holds only the
    // structure-phase fields it entered with.
    outcome.modeled_seconds = recompute();
    outcome.recomputed_sources = store_.num_sources();
  }
}

UpdateOutcome DynamicBc::insert_edge(VertexId u, VertexId v) {
  return run_update(trace::UpdateKind::kInsert, u, v);
}

UpdateOutcome DynamicBc::remove_edge(VertexId u, VertexId v) {
  return run_update(trace::UpdateKind::kRemove, u, v);
}

double DynamicBc::verify_against_recompute() const {
  // Recompute scores over the store's exact source set with scratch rows.
  std::vector<Dist> dist(static_cast<std::size_t>(csr_.num_vertices()));
  std::vector<Sigma> sigma(dist.size());
  std::vector<double> delta(dist.size());
  std::vector<double> bc(dist.size(), 0.0);
  for (const VertexId s : store_.sources()) {
    brandes_source(csr_, s, dist, sigma, delta, bc);
  }
  double worst = 0.0;
  for (std::size_t v = 0; v < bc.size(); ++v) {
    worst = std::max(worst, std::abs(bc[v] - store_.bc()[v]));
  }
  return worst;
}

UpdateOutcome DynamicBc::run_update(trace::UpdateKind kind, VertexId u,
                                    VertexId v) {
  const bool insert = kind == trace::UpdateKind::kInsert;
  if (!computed_) {
    throw std::logic_error(std::string("DynamicBc::compute() must run before ") +
                           (insert ? "insert_edge" : "remove_edge"));
  }
  trace::Span span(insert ? "bc.insert_edge" : "bc.remove_edge", "bc",
                   {{"u", static_cast<double>(u)},
                    {"v", static_cast<double>(v)}});
  util::Stopwatch structure_clock;
  const bool applied = [&] {
    trace::Span structure_span("bc.structure", "bc");
    return insert ? csr_.insert_edge(u, v) : csr_.remove_edge(u, v);
  }();
  UpdateOutcome outcome{.structure_wall_seconds = structure_clock.elapsed_s()};
  // Self loop, out of range, or already present (insert) / absent (remove).
  if (!applied) return outcome;

  // Analytic phase. Removals mirror insertions case for case: same-level
  // edges are free, adjacent-level ones run Case 2 (negative increments
  // for a removal), distance-changing ones run the Case 3 repair - except
  // the CPU engine's removal, which recomputes the source as the oracle.
  trace::Span engine_span("bc.run_update", "bc");
  util::Stopwatch clock;
  if (options_.engine == EngineKind::kCpu) {
    cpu_engine_->reset_counters();
    fold_outcomes(cpu_engine_->store_update(!insert, csr_, store_, u, v),
                  outcome);
    const CpuOpCounters& ops = cpu_engine_->counters();
    outcome.modeled_seconds =
        sim::cpu_seconds(cost_model_, ops.instrs, ops.reads, ops.writes);
  } else {
    // The labels seed the fault decisions, so each kind keeps its own.
    run_recovered(insert ? "bc.insert" : "bc.remove", [&] {
      const GpuUpdateResult r =
          gpu_->edge_update(!insert, csr_, store_, u, v);
      fold_outcomes(r.outcomes, outcome);
      outcome.modeled_seconds = r.stats.seconds;
    }, outcome);
  }
  outcome.inserted = 1;
  outcome.update_wall_seconds = clock.elapsed_s();
  record_telemetry(kind, outcome);
  return outcome;
}

std::vector<std::pair<VertexId, double>> DynamicBc::top_k(int k) const {
  std::vector<std::pair<VertexId, double>> ranked;
  ranked.reserve(static_cast<std::size_t>(csr_.num_vertices()));
  for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
    ranked.emplace_back(v, store_.bc()[static_cast<std::size_t>(v)]);
  }
  const auto count = std::min<std::size_t>(static_cast<std::size_t>(std::max(k, 0)),
                                           ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(count),
                    ranked.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  ranked.resize(count);
  return ranked;
}

}  // namespace bcdyn
