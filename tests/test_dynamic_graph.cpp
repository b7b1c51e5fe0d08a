// The dynamic graph: CSRGraph's in-place insert_edge / remove_edge and its
// exact-size with_edge / without_edge copies. Covers insertion, removal,
// rejection rules, the arc view, randomized differential testing against a
// reference set, and the layout invariant every patch must keep: the
// arrays are byte-identical to CSRGraph::from_coo of the same edge set.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "graph/csr_graph.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

using EdgeSet = std::set<std::pair<VertexId, VertexId>>;

CSRGraph empty_graph(VertexId n) {
  COOGraph coo;
  coo.num_vertices = n;
  return CSRGraph::from_coo(std::move(coo));
}

CSRGraph rebuilt(VertexId n, const EdgeSet& edges) {
  COOGraph coo;
  coo.num_vertices = n;
  coo.edges.assign(edges.begin(), edges.end());
  return CSRGraph::from_coo(std::move(coo));
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// `g` is laid out exactly as from_coo lays out `ref`.
void expect_same_layout(const CSRGraph& g, const CSRGraph& ref,
                        const std::string& where) {
  ASSERT_EQ(g.num_vertices(), ref.num_vertices()) << where;
  EXPECT_TRUE(same_bytes(g.row_offsets(), ref.row_offsets()))
      << where << ": row_offsets";
  EXPECT_TRUE(same_bytes(g.arc_src(), ref.arc_src())) << where << ": arc_src";
  EXPECT_TRUE(same_bytes(g.arc_dst(), ref.arc_dst())) << where << ": arc_dst";
}

TEST(DynamicGraph, InsertBasics) {
  CSRGraph g = empty_graph(5);
  EXPECT_TRUE(g.insert_edge(0, 1));
  EXPECT_FALSE(g.insert_edge(1, 0));   // duplicate
  EXPECT_FALSE(g.insert_edge(2, 2));   // self loop
  EXPECT_FALSE(g.insert_edge(0, 9));   // out of range
  EXPECT_FALSE(g.insert_edge(-1, 2));  // out of range
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.check_invariants());
  // The copying forms follow from_coo: a self loop or present edge is a
  // no-op, an out-of-range endpoint throws.
  expect_same_layout(g.with_edge(1, 0), g, "with present");
  expect_same_layout(g.with_edge(3, 3), g, "with self loop");
  EXPECT_THROW((void)g.with_edge(0, 9), std::invalid_argument);
}

TEST(DynamicGraph, RemoveBasics) {
  CSRGraph g = empty_graph(4);
  g.insert_edge(0, 1);
  g.insert_edge(0, 2);
  g.insert_edge(0, 3);
  EXPECT_TRUE(g.remove_edge(0, 2));
  EXPECT_FALSE(g.remove_edge(0, 2));   // already gone
  EXPECT_FALSE(g.remove_edge(1, 1));   // self loop
  EXPECT_FALSE(g.remove_edge(0, 4));   // out of range
  EXPECT_FALSE(g.remove_edge(-1, 0));  // out of range
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_TRUE(g.check_invariants());
  expect_same_layout(g.without_edge(0, 2), g, "without absent");
  expect_same_layout(g.without_edge(0, 4), g, "without out of range");
}

TEST(DynamicGraph, HighDegreeRowsStaySorted) {
  // A hub whose row grows and shrinks by splicing at interior slots.
  const VertexId n = 200;
  CSRGraph g = empty_graph(n);
  for (VertexId v = n - 1; v >= 1; --v) EXPECT_TRUE(g.insert_edge(v, 0));
  EXPECT_EQ(g.degree(0), n - 1);
  const auto full = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(full.begin(), full.end()));
  EXPECT_EQ(std::set<VertexId>(full.begin(), full.end()).size(),
            static_cast<std::size_t>(n - 1));
  EXPECT_TRUE(g.check_invariants());

  // Remove half; the survivors stay sorted and contiguous.
  for (VertexId v = 1; v < n; v += 2) EXPECT_TRUE(g.remove_edge(0, v));
  EXPECT_EQ(g.degree(0), (n - 1) / 2);
  const auto half = g.neighbors(0);
  const std::set<VertexId> seen(half.begin(), half.end());
  for (VertexId v = 1; v < n; ++v) {
    EXPECT_EQ(seen.count(v), static_cast<std::size_t>(v % 2 == 0)) << v;
  }
  EXPECT_TRUE(std::is_sorted(half.begin(), half.end()));
  EXPECT_TRUE(g.check_invariants());
}

TEST(DynamicGraph, SnapshotMatchesCsrRoundTrip) {
  // Inserting every edge of a built graph, in reverse order, into an empty
  // one rebuilds it byte for byte; the with_edge/without_edge snapshots of
  // one more edge round-trip to the same layout.
  const auto g0 = test::gnp_graph(80, 0.05, 12);
  CSRGraph g = empty_graph(g0.num_vertices());
  const COOGraph coo = g0.to_coo();
  for (auto it = coo.edges.rbegin(); it != coo.edges.rend(); ++it) {
    ASSERT_TRUE(g.insert_edge(it->second, it->first));
  }
  EXPECT_EQ(g.num_edges(), g0.num_edges());
  expect_same_layout(g, g0, "rebuilt by insert_edge");
  BCDYN_SEEDED_RNG(rng, 12);
  const auto [u, v] = test::random_absent_edge(g0, rng);
  const CSRGraph plus = g0.with_edge(u, v);
  EXPECT_EQ(plus.num_edges(), g0.num_edges() + 1);
  EXPECT_TRUE(plus.check_invariants());
  expect_same_layout(plus.without_edge(v, u), g0, "with then without");
}

TEST(DynamicGraph, ArcIterationVisitsEachDirectedArcOnce) {
  CSRGraph g = empty_graph(4);
  g.insert_edge(0, 1);
  g.insert_edge(1, 2);
  std::multiset<std::pair<VertexId, VertexId>> arcs;
  for (std::size_t a = 0; a < g.arc_src().size(); ++a) {
    arcs.insert({g.arc_src()[a], g.arc_dst()[a]});
  }
  EXPECT_EQ(arcs.size(), 4u);
  EXPECT_EQ(arcs.count({0, 1}), 1u);
  EXPECT_EQ(arcs.count({1, 0}), 1u);
  EXPECT_EQ(arcs.count({2, 1}), 1u);
}

TEST(DynamicGraph, RandomizedDifferentialAgainstSet) {
  BCDYN_SEEDED_RNG(rng, 2024);
  const VertexId n = 50;
  CSRGraph g = empty_graph(n);
  EdgeSet ref;
  for (int op = 0; op < 4000; ++op) {
    auto u = static_cast<VertexId>(rng.next_below(n));
    auto v = static_cast<VertexId>(rng.next_below(n));
    if (u > v) std::swap(u, v);
    if (rng.next_bool(0.6)) {
      const bool inserted = g.insert_edge(u, v);
      EXPECT_EQ(inserted, u != v && ref.insert({u, v}).second);
    } else {
      const bool removed = g.remove_edge(u, v);
      EXPECT_EQ(removed, ref.erase({u, v}) > 0);
    }
  }
  EXPECT_EQ(g.num_edges(), static_cast<EdgeId>(ref.size()));
  EXPECT_TRUE(g.check_invariants());
  for (const auto& [u, v] : ref) {
    EXPECT_TRUE(g.has_edge(u, v)) << u << "," << v;
  }
  expect_same_layout(g, rebuilt(n, ref), "after 4000 ops");
}

TEST(DynamicGraph, CopyMutatesIndependently) {
  const auto g0 = test::cycle_graph(30);
  CSRGraph g = g0;
  EXPECT_TRUE(g.check_invariants());
  for (VertexId v = 0; v < 30; ++v) {
    EXPECT_EQ(g.degree(v), 2);
  }
  EXPECT_TRUE(g.insert_edge(0, 15));
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g0.degree(0), 2);
  EXPECT_FALSE(g0.has_edge(0, 15));
}

TEST(DynamicGraph, LayoutMatchesFromCooAfterEveryStep) {
  // Every mutation form, accepted or rejected, leaves the arrays exactly
  // as from_coo builds them from the reference edge set.
  BCDYN_SEEDED_RNG(rng, 77);
  const VertexId n = 40;
  CSRGraph g = test::gnp_graph(n, 0.1, 5);
  EdgeSet ref;
  for (const auto& e : g.to_coo().edges) ref.insert(e);
  for (int step = 0; step < 600; ++step) {
    // Endpoints in [-1, n]: some calls are out of range or self loops.
    auto u = static_cast<VertexId>(rng.next_below(n + 2)) - 1;
    auto v = static_cast<VertexId>(rng.next_below(n + 2)) - 1;
    const bool valid = u != v && u >= 0 && v >= 0 && u < n && v < n;
    const std::pair<VertexId, VertexId> key{std::min(u, v), std::max(u, v)};
    const std::string where = "step " + std::to_string(step);
    switch (rng.next_below(4)) {
      case 0: {
        const bool fresh = valid && ref.insert(key).second;
        EXPECT_EQ(g.insert_edge(u, v), fresh) << where;
        break;
      }
      case 1: {
        const bool present = valid && ref.erase(key) > 0;
        EXPECT_EQ(g.remove_edge(u, v), present) << where;
        break;
      }
      case 2:
        if (u < 0 || v < 0 || u >= n || v >= n) {
          EXPECT_THROW((void)g.with_edge(u, v), std::invalid_argument);
          break;
        }
        if (valid) ref.insert(key);
        g = g.with_edge(u, v);
        break;
      default:
        if (valid) ref.erase(key);
        g = g.without_edge(u, v);
        break;
    }
    expect_same_layout(g, rebuilt(n, ref), where);
    ASSERT_TRUE(g.check_invariants()) << where;
  }
}

}  // namespace
}  // namespace bcdyn
