// Power-grid contingency analysis (paper §I cites betweenness for grid
// component-failure studies [1]): on a grid-like network, fail a line,
// recompute centrality, and report which corridors absorb the rerouted
// flow; then restore the line incrementally.
//
//   $ ./grid_contingency [--rows=R] [--cols=C] [--failures=F]
//
// Demonstrates: remove_edge (decremental repair), insert_edge (incremental
// restore), and interpreting BC deltas as load shift.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "bc/api.hpp"
#include "gen/generators.hpp"
#include "util/rng.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace bcdyn;
  util::Cli cli(argc, argv);
  const VertexId rows = cli.get_count("rows", 40);
  if (rows < 2) cli.reject("rows", "a count >= 2");
  const VertexId cols = cli.get_count("cols", 40);
  if (cols < 2) cli.reject("cols", "a count >= 2");
  if (rows > std::numeric_limits<VertexId>::max() / cols) {
    cli.reject("rows", "rows x cols to fit in a vertex id");
  }
  const int failures = cli.get_count("failures", 3);

  const CSRGraph grid = gen::triangulated_grid(rows, cols, 5);
  std::printf("grid: %dx%d = %d buses, %lld lines\n", rows, cols,
              grid.num_vertices(), static_cast<long long>(grid.num_edges()));

  bc::Session analytic(grid, {.engine = EngineKind::kGpuNode,
                              .approx = {.num_sources = 96, .seed = 3}});
  analytic.compute();

  const auto baseline =
      std::vector<double>(analytic.scores().begin(), analytic.scores().end());
  const auto top_before = analytic.top_k(5);
  std::printf("\nmost loaded buses (baseline):\n");
  for (const auto& [v, score] : top_before) {
    std::printf("  bus (%3d,%3d)  bc=%.0f\n", v / cols, v % cols, score);
  }

  util::Rng rng(17);
  for (int f = 0; f < failures; ++f) {
    // Fail a random line attached to a highly loaded bus: the interesting
    // contingency case.
    const VertexId hot = analytic.top_k(1)[0].first;
    const auto nbrs = analytic.graph().neighbors(hot);
    const VertexId other =
        nbrs[static_cast<std::size_t>(rng.next_below(nbrs.size()))];

    std::printf("\ncontingency %d: fail line (%d,%d)-(%d,%d)\n", f + 1,
                hot / cols, hot % cols, other / cols, other % cols);
    analytic.remove_edge(hot, other);

    // Which buses picked up the load?
    std::vector<std::pair<double, VertexId>> shift;
    for (VertexId v = 0; v < grid.num_vertices(); ++v) {
      const double delta = analytic.scores()[static_cast<std::size_t>(v)] -
                           baseline[static_cast<std::size_t>(v)];
      shift.emplace_back(delta, v);
    }
    std::sort(shift.rbegin(), shift.rend());
    std::printf("  largest load increases:\n");
    for (int i = 0; i < 3; ++i) {
      std::printf("    bus (%3d,%3d)  bc +%.0f\n", shift[static_cast<std::size_t>(i)].second / cols,
                  shift[static_cast<std::size_t>(i)].second % cols,
                  shift[static_cast<std::size_t>(i)].first);
    }

    // Restore the line: an incremental insertion, not a recompute.
    const auto restore = analytic.insert_edge(hot, other);
    std::printf(
        "  restore: incremental update, cases(1/2/3)=%d/%d/%d, "
        "modeled %.3fms (recompute avoided)\n",
        restore.case1, restore.case2, restore.case3,
        restore.modeled_seconds * 1e3);
  }

  // After every fail+restore pair the grid is back to baseline.
  double worst = 0.0;
  for (std::size_t v = 0; v < baseline.size(); ++v) {
    worst = std::max(worst, std::abs(analytic.scores()[v] - baseline[v]));
  }
  std::printf("\nmax |bc - baseline| after all restores: %.2e %s\n", worst,
              worst < 1e-6 ? "(restored exactly)" : "");
  return 0;
}
