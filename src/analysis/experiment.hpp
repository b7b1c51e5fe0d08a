// Shared experiment harness implementing the paper's protocol (§IV):
// remove `num_insertions` random edges from the input graph, then re-insert
// them one at a time, updating the analytic after each insertion. Used by
// every table/figure bench so the workload is identical across engines.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/scenario_stats.hpp"
#include "analysis/touched_recorder.hpp"
#include "bc/bc_store.hpp"
#include "bc/static_kernels.hpp"
#include "gpusim/device_spec.hpp"
#include "graph/csr_graph.hpp"

namespace bcdyn::analysis {

struct StreamConfig {
  int num_insertions = 100;
  std::uint64_t seed = 7;
};

/// The experiment workload: the reduced base graph plus the edges to
/// re-insert, in order.
struct EdgeStream {
  CSRGraph base;
  std::vector<std::pair<VertexId, VertexId>> insertions;
};

/// Removes `config.num_insertions` random edges (fewer if the graph is
/// smaller) and returns the reduced graph plus the re-insertion order.
EdgeStream make_insertion_stream(const CSRGraph& g, const StreamConfig& config);

/// Per-engine result of replaying an insertion stream.
struct DynamicRunResult {
  double wall_seconds = 0.0;     // measured host time of analytic updates
  double modeled_seconds = 0.0;  // cost-model total
  double slowest_update = 0.0;   // per-insertion modeled seconds
  double fastest_update = 0.0;
  double average_update = 0.0;
  ScenarioStats scenarios;
  std::vector<double> final_bc;  // scores after the full stream
};

/// Replays the stream with the sequential CPU engine (Green et al.).
/// The store is initialized with a static pass over the base graph.
DynamicRunResult run_cpu_dynamic(const EdgeStream& stream,
                                 const ApproxConfig& config,
                                 TouchedRecorder* touched = nullptr);

/// Replays the stream with a simulated-GPU engine.
DynamicRunResult run_gpu_dynamic(const EdgeStream& stream,
                                 const ApproxConfig& config, Parallelism mode,
                                 const sim::DeviceSpec& spec,
                                 TouchedRecorder* touched = nullptr);

/// Static GPU recomputation of the full (post-stream) graph: the Table III
/// baseline. Returns modeled seconds.
double run_gpu_static_recompute(const CSRGraph& g, const ApproxConfig& config,
                                Parallelism mode, const sim::DeviceSpec& spec,
                                std::vector<double>* bc_out = nullptr);

/// Max absolute element-wise difference between two score vectors
/// (engines must agree; used for the §IV cross-checks).
double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace bcdyn::analysis
