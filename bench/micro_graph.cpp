// Microbenchmarks (google-benchmark, host wall time) for the graph
// substrate and the sequential BC building blocks.
#include <benchmark/benchmark.h>

#include "micro_smoke.hpp"

#include "bc/brandes.hpp"
#include "bc/dynamic_cpu.hpp"
#include "gen/generators.hpp"
#include "graph/bfs.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcdyn;

const CSRGraph& test_graph() {
  static const CSRGraph g = gen::small_world(20000, 5, 0.1, 7);
  return g;
}

void BM_CsrFromCoo(benchmark::State& state) {
  const COOGraph coo = test_graph().to_coo();
  for (auto _ : state) {
    COOGraph copy = coo;
    benchmark::DoNotOptimize(CSRGraph::from_coo(std::move(copy)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(coo.num_edges()));
}
BENCHMARK(BM_CsrFromCoo);

std::pair<VertexId, VertexId> absent_edge(const CSRGraph& g, util::Rng& rng) {
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  VertexId u = 0;
  VertexId v = 0;
  do {
    u = static_cast<VertexId>(rng.next_below(n));
    v = static_cast<VertexId>(rng.next_below(n));
  } while (u == v || g.has_edge(u, v));
  return {u, v};
}

// The in-place patch DynamicBc applies per single-edge update: insert an
// absent edge, then remove it again (two patches per iteration).
void BM_CsrInsertRemoveInPlace(benchmark::State& state) {
  CSRGraph g = test_graph();
  util::Rng rng(3);
  std::vector<std::pair<VertexId, VertexId>> edges;
  while (edges.size() < 256) edges.push_back(absent_edge(g, rng));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [u, v] = edges[i++ % edges.size()];
    benchmark::DoNotOptimize(g.insert_edge(u, v));
    benchmark::DoNotOptimize(g.remove_edge(u, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_CsrInsertRemoveInPlace);

// The exact-size copy a batch snapshot takes per applied edge.
void BM_CsrWithEdge(benchmark::State& state) {
  const auto& g = test_graph();
  util::Rng rng(4);
  const auto [u, v] = absent_edge(g, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.with_edge(u, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_edges());
}
BENCHMARK(BM_CsrWithEdge);

void BM_Bfs(benchmark::State& state) {
  const auto& g = test_graph();
  VertexId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs(g, s));
    s = (s + 97) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_arcs());
}
BENCHMARK(BM_Bfs);

void BM_BrandesSource(benchmark::State& state) {
  const auto& g = test_graph();
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<Dist> dist(n);
  std::vector<Sigma> sigma(n);
  std::vector<double> delta(n);
  VertexId s = 0;
  for (auto _ : state) {
    brandes_source(g, s, dist, sigma, delta, {});
    benchmark::DoNotOptimize(delta.data());
    s = (s + 211) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_arcs());
}
BENCHMARK(BM_BrandesSource);

void BM_DynamicCpuUpdate(benchmark::State& state) {
  // One full insertion update (all sources) on the small-world graph.
  const auto& g0 = test_graph();
  ApproxConfig cfg{.num_sources = 16, .seed = 2};
  BcStore store(g0.num_vertices(), cfg);
  brandes_all(g0, store);
  DynamicCpuEngine engine(g0.num_vertices());
  util::Rng rng(5);
  CSRGraph g = g0;
  for (auto _ : state) {
    state.PauseTiming();
    VertexId u = 0;
    VertexId v = 0;
    do {
      u = static_cast<VertexId>(rng.next_below(
          static_cast<std::uint64_t>(g.num_vertices())));
      v = static_cast<VertexId>(rng.next_below(
          static_cast<std::uint64_t>(g.num_vertices())));
    } while (u == v || g.has_edge(u, v));
    g.insert_edge(u, v);
    state.ResumeTiming();
    engine.store_update(/*removal=*/false, g, store, u, v);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          store.num_sources());
}
BENCHMARK(BM_DynamicCpuUpdate);

}  // namespace

int main(int argc, char** argv) {
  return bcdyn::bench::micro_main(argc, argv);
}
