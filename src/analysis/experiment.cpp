#include "analysis/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bc/brandes.hpp"
#include "bc/dynamic_cpu.hpp"
#include "bc/dynamic_gpu.hpp"
#include "gpusim/cost_model.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace bcdyn::analysis {

EdgeStream make_insertion_stream(const CSRGraph& g,
                                 const StreamConfig& config) {
  COOGraph coo = g.to_coo();
  util::Rng rng(config.seed ^ 0x57ea4);
  rng.shuffle(std::span(coo.edges));
  const auto count = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(config.num_insertions, 0)),
      coo.edges.size());

  EdgeStream stream;
  stream.insertions.assign(coo.edges.end() - static_cast<std::ptrdiff_t>(count),
                           coo.edges.end());
  coo.edges.resize(coo.edges.size() - count);
  stream.base = CSRGraph::from_coo(std::move(coo));
  return stream;
}

namespace {

void finish_run(DynamicRunResult& result,
                const std::vector<double>& per_insertion) {
  result.slowest_update = 0.0;
  result.fastest_update = std::numeric_limits<double>::max();
  double sum = 0.0;
  for (double t : per_insertion) {
    result.slowest_update = std::max(result.slowest_update, t);
    result.fastest_update = std::min(result.fastest_update, t);
    sum += t;
  }
  if (per_insertion.empty()) {
    result.fastest_update = 0.0;
  } else {
    result.average_update = sum / static_cast<double>(per_insertion.size());
  }
  result.modeled_seconds = sum;
}

}  // namespace

DynamicRunResult run_cpu_dynamic(const EdgeStream& stream,
                                 const ApproxConfig& config,
                                 TouchedRecorder* touched) {
  DynamicRunResult result;
  CSRGraph g = stream.base;
  BcStore store(g.num_vertices(), config);
  brandes_all(g, store);

  DynamicCpuEngine engine(g.num_vertices());
  sim::CostModel cm;
  std::vector<double> per_insertion;
  per_insertion.reserve(stream.insertions.size());
  util::Stopwatch clock;
  for (const auto& [u, v] : stream.insertions) {
    g.insert_edge(u, v);
    const CpuOpCounters before = engine.counters();
    for (const auto& r : engine.store_update(/*removal=*/false, g, store, u, v)) {
      result.scenarios.record(r.update_case);
      if (touched != nullptr && r.update_case == UpdateCase::kAdjacent) {
        touched->record(r.touched);
      }
    }
    const CpuOpCounters ops = engine.counters() - before;
    per_insertion.push_back(
        sim::cpu_seconds(cm, ops.instrs, ops.reads, ops.writes));
  }
  result.wall_seconds = clock.elapsed_s();
  finish_run(result, per_insertion);
  result.final_bc.assign(store.bc().begin(), store.bc().end());
  return result;
}

DynamicRunResult run_gpu_dynamic(const EdgeStream& stream,
                                 const ApproxConfig& config, Parallelism mode,
                                 const sim::DeviceSpec& spec,
                                 TouchedRecorder* touched) {
  DynamicRunResult result;
  CSRGraph g = stream.base;
  BcStore store(g.num_vertices(), config);
  brandes_all(g, store);  // identical initial state for every engine

  DynamicGpuBc engine(spec, mode);
  std::vector<double> per_insertion;
  per_insertion.reserve(stream.insertions.size());
  util::Stopwatch clock;
  for (const auto& [u, v] : stream.insertions) {
    g.insert_edge(u, v);
    const GpuUpdateResult r =
        engine.edge_update(/*removal=*/false, g, store, u, v);
    for (const auto& o : r.outcomes) {
      result.scenarios.record(o.update_case);
      if (touched != nullptr && o.update_case == UpdateCase::kAdjacent) {
        touched->record(o.touched);
      }
    }
    per_insertion.push_back(r.stats.seconds);
  }
  result.wall_seconds = clock.elapsed_s();
  finish_run(result, per_insertion);
  result.final_bc.assign(store.bc().begin(), store.bc().end());
  return result;
}

double run_gpu_static_recompute(const CSRGraph& g, const ApproxConfig& config,
                                Parallelism mode, const sim::DeviceSpec& spec,
                                std::vector<double>* bc_out) {
  BcStore store(g.num_vertices(), config);
  DynamicGpuBc engine(spec, mode);
  const sim::KernelStats stats = engine.compute(g, store);
  if (bc_out != nullptr) {
    bc_out->assign(store.bc().begin(), store.bc().end());
  }
  return stats.seconds;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  if (a.size() != b.size()) worst = std::numeric_limits<double>::infinity();
  return worst;
}

}  // namespace bcdyn::analysis
