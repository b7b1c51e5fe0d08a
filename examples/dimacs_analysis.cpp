// File-based analysis workflow: load a METIS/DIMACS-10 or edge-list graph
// (or generate and save one if no file is given), report structure and
// degree-1 folding reduction, compute centrality, and stream updates.
//
//   $ ./dimacs_analysis [--file=path/to/graph.metis] [--sources=K]
//
// Demonstrates: graph I/O, GraphStats, betweenness_exact_folded, and the
// analytic over a file-loaded graph.
#include <cstdio>
#include <fstream>
#include <string>

#include "bc/api.hpp"
#include "bc/degree1_folding.hpp"
#include "gen/generators.hpp"
#include "graph/degree_stats.hpp"
#include "graph/io.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace bcdyn;
  util::Cli cli(argc, argv);
  std::string path = cli.get("file", "");
  const int sources = cli.get_count("sources", 64);

  if (path.empty()) {
    // No input file: generate a router-level topology and save it in METIS
    // format, then proceed as if it had been downloaded.
    path = "/tmp/bcdyn_example_router.metis";
    const CSRGraph generated = gen::router_level(5000, 99);
    std::ofstream out(path);
    io::write_metis(out, generated);
    std::printf("no --file given; wrote a generated router graph to %s\n",
                path.c_str());
  }

  const CSRGraph g = io::load_graph(path);
  const GraphStats stats = compute_stats(g);
  std::printf("loaded %s\n  %s\n", path.c_str(), stats.to_string().c_str());

  // How much would degree-1 folding shrink a static computation?
  FoldingStats folding;
  betweenness_exact_folded(g, &folding);
  std::printf(
      "  degree-1 folding: %d of %d vertices fold away (%.1f%%), reduced "
      "graph has %lld edges\n",
      folding.removed, g.num_vertices(),
      100.0 * folding.removed / std::max(1, g.num_vertices()),
      static_cast<long long>(folding.remaining_edges));

  bc::Session analytic(g, {.engine = EngineKind::kGpuNode,
                           .approx = {.num_sources = sources, .seed = 12}});
  analytic.compute();
  std::printf("\ntop-5 central vertices (k=%d sources):\n", sources);
  for (const auto& [v, score] : analytic.top_k(5)) {
    std::printf("  vertex %6d  bc=%.0f\n", v, score);
  }

  std::printf("\nstreaming 5 random link insertions:\n");
  util::Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    VertexId u = 0;
    VertexId v = 0;
    do {
      u = static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
      v = static_cast<VertexId>(
          rng.next_below(static_cast<std::uint64_t>(g.num_vertices())));
    } while (u == v || analytic.graph().has_edge(u, v));
    const auto r = analytic.insert_edge(u, v);
    std::printf("  +(%5d,%5d): cases 1/2/3 = %d/%d/%d, modeled %.3fms\n", u,
                v, r.case1, r.case2, r.case3, r.modeled_seconds * 1e3);
  }
  std::printf("\nintegrity check vs full recompute: max |diff| = %.2e\n",
              analytic.verify_against_recompute());
  return 0;
}
