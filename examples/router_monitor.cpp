// Router-level monitoring: compare all three engines live on the same
// stream of link additions to an internet-like topology, printing per-edge
// timings and verifying they agree - a miniature of the paper's Table II
// experiment as an application.
//
//   $ ./router_monitor [--routers=N] [--links=L] [--sources=K]
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bc/api.hpp"
#include "gen/generators.hpp"
#include "util/rng.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace bcdyn;
  util::Cli cli(argc, argv);
  const VertexId routers = cli.get_count("routers", 3000);
  if (routers < 64) cli.reject("routers", "a count >= 64");
  const int links = cli.get_count("links", 8);
  const int sources = cli.get_count("sources", 48);

  const CSRGraph topo = gen::router_level(routers, 23);
  std::printf("router topology: %d routers, %lld links\n",
              topo.num_vertices(), static_cast<long long>(topo.num_edges()));

  const ApproxConfig cfg{.num_sources = sources, .seed = 4};
  struct Tracked {
    EngineKind kind;
    std::unique_ptr<bc::Session> analytic;
    double total_modeled = 0.0;
  };
  std::vector<Tracked> engines;
  for (EngineKind kind :
       {EngineKind::kCpu, EngineKind::kGpuEdge, EngineKind::kGpuNode}) {
    engines.push_back({kind, std::make_unique<bc::Session>(
                           topo, bc::Options{.engine = kind, .approx = cfg}), 0.0});
    engines.back().analytic->compute();
  }

  std::printf("\n%-14s", "new link");
  for (const auto& e : engines) std::printf("%12s", to_string(e.kind));
  std::printf("   (modeled ms per update)\n");

  util::Rng rng(31);
  for (int l = 0; l < links; ++l) {
    VertexId u = 0;
    VertexId v = 0;
    do {
      u = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(routers)));
      v = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(routers)));
    } while (u == v || engines[0].analytic->graph().has_edge(u, v));

    std::printf("(%5d,%5d) ", u, v);
    for (auto& e : engines) {
      const auto r = e.analytic->insert_edge(u, v);
      e.total_modeled += r.modeled_seconds;
      std::printf("%12.3f", r.modeled_seconds * 1e3);
    }
    std::printf("\n");
  }

  // Engines must agree on the final scores.
  double worst = 0.0;
  const auto ref = engines[0].analytic->scores();
  for (std::size_t i = 1; i < engines.size(); ++i) {
    const auto other = engines[i].analytic->scores();
    for (std::size_t v = 0; v < ref.size(); ++v) {
      worst = std::max(worst, std::abs(ref[v] - other[v]));
    }
  }
  std::printf("\nengine agreement: max |diff| = %.2e\n", worst);
  std::printf("totals: cpu %.2fms, edge %.2fms, node %.2fms -> node speedup "
              "%.1fx over cpu, %.1fx over edge\n",
              engines[0].total_modeled * 1e3, engines[1].total_modeled * 1e3,
              engines[2].total_modeled * 1e3,
              engines[0].total_modeled / engines[2].total_modeled,
              engines[1].total_modeled / engines[2].total_modeled);
  std::printf("\nmost central routers:\n");
  for (const auto& [v, score] : engines[2].analytic->top_k(5)) {
    std::printf("  router %5d  bc=%.0f\n", v, score);
  }
  return 0;
}
