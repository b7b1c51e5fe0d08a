// Shared fixtures and assertion helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/coo.hpp"
#include "graph/csr_graph.hpp"
#include "gpusim/hazard_detector.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

/// Seeded RNG for randomized tests: declares `name` and attaches a gtest
/// trace, so any assertion that fails while the RNG is in scope reports the
/// seed - the one fact needed to replay a randomized failure.
#define BCDYN_SEEDED_RNG(name, ...)                                    \
  const std::uint64_t name##_seed_ = (__VA_ARGS__);                    \
  const ::testing::ScopedTrace name##_trace_(                          \
      __FILE__, __LINE__,                                              \
      ::testing::Message() << "rng seed = " << name##_seed_);          \
  ::bcdyn::util::Rng name(name##_seed_)

namespace bcdyn::test {

/// RAII: turns the per-thread shadow-memory hazard detector on for a
/// scope (optionally strict, where any flagged race throws HazardError),
/// then restores the previous flags. Captured state is cleared on entry so
/// violation counts read inside the scope belong to this scope.
class HazardScope {
 public:
  explicit HazardScope(bool strict = false)
      : was_enabled_(sim::hazards().enabled()),
        was_strict_(sim::hazards().strict()) {
    sim::hazards().clear();
    sim::hazards().set_enabled(true);
    sim::hazards().set_strict(strict);
  }
  HazardScope(const HazardScope&) = delete;
  HazardScope& operator=(const HazardScope&) = delete;
  ~HazardScope() {
    sim::hazards().set_enabled(was_enabled_);
    sim::hazards().set_strict(was_strict_);
  }

 private:
  bool was_enabled_;
  bool was_strict_;
};

inline CSRGraph path_graph(VertexId n) {
  COOGraph coo;
  coo.num_vertices = n;
  for (VertexId v = 0; v + 1 < n; ++v) coo.add_edge(v, v + 1);
  return CSRGraph::from_coo(std::move(coo));
}

inline CSRGraph cycle_graph(VertexId n) {
  COOGraph coo;
  coo.num_vertices = n;
  for (VertexId v = 0; v < n; ++v) coo.add_edge(v, (v + 1) % n);
  return CSRGraph::from_coo(std::move(coo));
}

inline CSRGraph star_graph(VertexId n) {
  COOGraph coo;
  coo.num_vertices = n;
  for (VertexId v = 1; v < n; ++v) coo.add_edge(0, v);
  return CSRGraph::from_coo(std::move(coo));
}

inline CSRGraph complete_graph(VertexId n) {
  COOGraph coo;
  coo.num_vertices = n;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) coo.add_edge(u, v);
  }
  return CSRGraph::from_coo(std::move(coo));
}

/// G(n, p) with an optional extra component offset; may be disconnected.
inline CSRGraph gnp_graph(VertexId n, double p, std::uint64_t seed) {
  util::Rng rng(seed);
  COOGraph coo;
  coo.num_vertices = n;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.next_bool(p)) coo.add_edge(u, v);
    }
  }
  return CSRGraph::from_coo(std::move(coo));
}

/// Returns a uniformly random absent edge (u, v), or {-1, -1} if the graph
/// is complete.
inline std::pair<VertexId, VertexId> random_absent_edge(const CSRGraph& g,
                                                        util::Rng& rng) {
  const VertexId n = g.num_vertices();
  for (int attempt = 0; attempt < 10000; ++attempt) {
    const auto u = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u != v && !g.has_edge(u, v)) return {u, v};
  }
  return {kNoVertex, kNoVertex};
}

inline void expect_near_spans(std::span<const double> actual,
                              std::span<const double> expected, double tol,
                              const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double scale = std::max(1.0, std::abs(expected[i]));
    ASSERT_NEAR(actual[i], expected[i], tol * scale)
        << what << " mismatch at index " << i;
  }
}

}  // namespace bcdyn::test
