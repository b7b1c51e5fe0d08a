// Ablation: the adaptive edge/node parallelism policy (gpu-adaptive) vs
// both fixed engines on an identical full workload per graph - the static
// pass, a per-edge insertion stream, one batched insertion, and a removal
// stream. Times are the cost model's makespans (DESIGN.md §2).
//
// The acceptance gate for the policy (exit 1 on violation, relaxed under
// --smoke):
//   * per graph, adaptive total <= min(edge, node) * 1.05 plus a constant
//     cold-start allowance (kColdStartSeconds below);
//   * geometric-mean speedup vs each fixed engine >= 1.0 (same allowance);
//   * adaptive final scores match gpu-node within 1e-6.
//
// On the generator suite node-parallel dominates at bench scales, so a
// correct policy converges on "node everywhere" and the adaptive column
// reproduces gpu-node exactly; the gate catches estimator regressions that
// would make it pick the losing mapping anywhere. The last table column
// shows the decision mix so runs on edge-friendly graphs (--graph-file
// with a hub-and-spoke topology) are visible.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "analysis/experiment.hpp"
#include "bc/batch_update.hpp"
#include "bc/dynamic_bc.hpp"

using namespace bcdyn;

namespace {

// The policy calibrates its per-(kind, mode) cycle rates online, so the
// first launches on a fresh graph can mispredict before any feedback lands.
// That warm-up costs O(1) launches regardless of workload size, so the gate
// grants a constant absolute budget on top of the 5% relative bound: noise
// at the documented scales (totals are 10-1000x larger) but enough that
// millisecond-class quick runs (--scale=0.01..0.02) don't flag warm-up as a
// regression. Sized for ~3-4 mispredicted case-3 launches on the tiny-scale
// suite graphs; real estimator regressions show up as 2-30x slowdowns, far
// outside both terms.
constexpr double kColdStartSeconds = 4e-4;

struct WorkloadResult {
  double modeled_seconds = 0.0;  // static + inserts + batch + removals
  std::vector<double> final_bc;
  std::uint64_t edge_decisions = 0;
  std::uint64_t node_decisions = 0;
  std::uint64_t explored = 0;
};

/// Replays the identical workload on one engine and sums modeled time.
WorkloadResult run_workload(const analysis::EdgeStream& stream,
                            EngineKind engine,
                            const bench::CommonConfig& cfg) {
  DynamicBc bc(stream.base, {.engine = engine,
                             .approx = {.num_sources = cfg.sources,
                                        .seed = cfg.seed}});
  WorkloadResult r;
  r.modeled_seconds += bc.compute();

  // First half of the stream edge-at-a-time, second half as one batch.
  const std::size_t half = stream.insertions.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    const auto [u, v] = stream.insertions[i];
    r.modeled_seconds += bc.insert_edge(u, v).modeled_seconds;
  }
  if (half < stream.insertions.size()) {
    const std::span<const std::pair<VertexId, VertexId>> rest(
        stream.insertions.data() + half, stream.insertions.size() - half);
    r.modeled_seconds += bc.insert_edge_batch(rest).modeled_seconds;
  }
  // Remove a quarter of the re-inserted edges again (exercises the removal
  // prepass and the distance-growing Case 3 repair).
  const std::size_t removals = stream.insertions.size() / 4 + 1;
  for (std::size_t i = 0; i < removals && i < stream.insertions.size(); ++i) {
    const auto [u, v] = stream.insertions[i];
    r.modeled_seconds += bc.remove_edge(u, v).modeled_seconds;
  }

  r.final_bc.assign(bc.scores().begin(), bc.scores().end());
  if (const ParallelismPolicy* p = bc.policy()) {
    r.edge_decisions = p->decisions(Parallelism::kEdge);
    r.node_decisions = p->decisions(Parallelism::kNode);
    r.explored = p->explored();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bench::CommonConfig cfg = bench::parse_common(cli);
  bench::warn_unused(cli);
  const auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  util::Table table({"Graph", "Edge (s)", "Node (s)", "Adaptive (s)",
                     "vs edge", "vs node", "Decisions e/n", "Probes"});
  double geo_vs_edge = 0.0;
  double geo_vs_node = 0.0;
  double geo_gate_vs_edge = 0.0;  // as above, with the cold-start allowance
  double geo_gate_vs_node = 0.0;
  int count = 0;
  int violations = 0;

  for (const auto& entry : graphs) {
    const auto stream = analysis::make_insertion_stream(
        entry.graph, {.num_insertions = cfg.insertions, .seed = cfg.seed});
    std::cerr << "  " << entry.name << ": edge..." << std::flush;
    const auto edge = run_workload(stream, EngineKind::kGpuEdge, cfg);
    std::cerr << " node..." << std::flush;
    const auto node = run_workload(stream, EngineKind::kGpuNode, cfg);
    std::cerr << " adaptive..." << std::flush;
    const auto adaptive = run_workload(stream, EngineKind::kGpuAdaptive, cfg);
    std::cerr << " done\n";

    const double best =
        std::min(edge.modeled_seconds, node.modeled_seconds);
    const double vs_edge = edge.modeled_seconds / adaptive.modeled_seconds;
    const double vs_node = node.modeled_seconds / adaptive.modeled_seconds;
    geo_vs_edge += std::log(vs_edge);
    geo_vs_node += std::log(vs_node);
    const double gated =
        std::max(adaptive.modeled_seconds - kColdStartSeconds, 1e-12);
    geo_gate_vs_edge += std::log(edge.modeled_seconds / gated);
    geo_gate_vs_node += std::log(node.modeled_seconds / gated);
    ++count;

    if (adaptive.modeled_seconds > best * 1.05 + kColdStartSeconds) {
      std::cerr << "GATE FAILED on " << entry.name << ": adaptive "
                << adaptive.modeled_seconds << "s > best fixed " << best
                << "s + 5% + cold-start allowance\n";
      ++violations;
    }
    const double diff =
        analysis::max_abs_diff(adaptive.final_bc, node.final_bc);
    if (diff > 1e-6) {
      std::cerr << "GATE FAILED on " << entry.name
                << ": adaptive scores differ from gpu-node by " << diff
                << "\n";
      ++violations;
    }

    table.add_row({entry.name, util::Table::fmt(edge.modeled_seconds, 4),
                   util::Table::fmt(node.modeled_seconds, 4),
                   util::Table::fmt(adaptive.modeled_seconds, 4),
                   util::Table::fmt_speedup(vs_edge),
                   util::Table::fmt_speedup(vs_node),
                   std::to_string(adaptive.edge_decisions) + "/" +
                       std::to_string(adaptive.node_decisions),
                   std::to_string(adaptive.explored)});
    bench::record_result("ablation_adaptive", entry.name, "edge_seconds",
                         edge.modeled_seconds);
    bench::record_result("ablation_adaptive", entry.name, "node_seconds",
                         node.modeled_seconds);
    bench::record_result("ablation_adaptive", entry.name, "adaptive_seconds",
                         adaptive.modeled_seconds);
    bench::record_result("ablation_adaptive", entry.name, "speedup_vs_edge",
                         vs_edge);
    bench::record_result("ablation_adaptive", entry.name, "speedup_vs_node",
                         vs_node);
  }

  analysis::print_header(
      "Ablation: adaptive parallelism policy vs fixed engines");
  analysis::emit_table(table, bench::csv_path(cfg, "ablation_adaptive"));
  if (count > 0) {
    const double gm_edge = std::exp(geo_vs_edge / count);
    const double gm_node = std::exp(geo_vs_node / count);
    std::cout << "\nGeometric-mean speedup: vs edge "
              << util::Table::fmt_speedup(gm_edge) << ", vs node "
              << util::Table::fmt_speedup(gm_node) << "\n";
    bench::record_result("ablation_adaptive", "all", "geomean_vs_edge",
                         gm_edge);
    bench::record_result("ablation_adaptive", "all", "geomean_vs_node",
                         gm_node);
    const double gm_gate_edge = std::exp(geo_gate_vs_edge / count);
    const double gm_gate_node = std::exp(geo_gate_vs_node / count);
    if (gm_gate_edge < 1.0 - 1e-9 || gm_gate_node < 1.0 - 1e-9) {
      std::cerr << "GATE FAILED: geomean speedup below 1.0 vs a fixed "
                   "engine\n";
      ++violations;
    }
  }
  std::cout << "Gate: adaptive <= min(edge, node) + 5% per graph, geomean "
               ">= 1.0 vs both (modulo a constant cold-start allowance).\n";
  bench::emit_metrics(cfg);
  if (violations > 0 && !cfg.smoke) return 1;
  if (violations > 0) {
    std::cerr << "(--smoke: " << violations
              << " gate violations reported, not fatal at smoke sizes)\n";
  }
  return 0;
}
