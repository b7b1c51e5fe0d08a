#include "graph/csr_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace bcdyn {

namespace {

// Edge {lo, hi} (lo < hi) owns two arcs: slot p in row lo and slot q in
// row hi, p <= q. The helpers below splice both into or out of one array
// in a single pass, so the result stays in from_coo's layout.

template <typename T>
auto at(T& v, std::size_t i) {
  return v.begin() + static_cast<std::ptrdiff_t>(i);
}

/// Inserts `a` before v[p] and `b` before v[q] (positions before the call).
template <typename T>
void insert_two(std::vector<T>& v, std::size_t p, T a, std::size_t q, T b) {
  v.resize(v.size() + 2);
  std::copy_backward(at(v, q), v.end() - 2, v.end());
  v[q + 1] = b;
  std::copy_backward(at(v, p), at(v, q), at(v, q + 1));
  v[p] = a;
}

/// Erases v[p] and v[q] (p < q).
template <typename T>
void erase_two(std::vector<T>& v, std::size_t p, std::size_t q) {
  std::copy(at(v, p + 1), at(v, q), at(v, p));
  std::copy(at(v, q + 1), v.end(), at(v, q - 1));
  v.resize(v.size() - 2);
}

/// insert_two into an exact-size copy of `src`.
template <typename T>
std::vector<T> copy_with_two(const std::vector<T>& src, std::size_t p, T a,
                             std::size_t q, T b) {
  std::vector<T> out;
  out.reserve(src.size() + 2);
  out.insert(out.end(), src.begin(), at(src, p));
  out.push_back(a);
  out.insert(out.end(), at(src, p), at(src, q));
  out.push_back(b);
  out.insert(out.end(), at(src, q), src.end());
  return out;
}

/// erase_two into an exact-size copy of `src`.
template <typename T>
std::vector<T> copy_without_two(const std::vector<T>& src, std::size_t p,
                                std::size_t q) {
  std::vector<T> out;
  out.reserve(src.size() - 2);
  out.insert(out.end(), src.begin(), at(src, p));
  out.insert(out.end(), at(src, p + 1), at(src, q));
  out.insert(out.end(), at(src, q + 1), src.end());
  return out;
}

/// Row offsets after adding (step 1) or removing (step -1) edge {lo, hi}:
/// rows after lo gain one arc's shift, rows after hi two.
void shift_rows(std::vector<EdgeId>& offsets, VertexId lo, VertexId hi,
                EdgeId step) {
  const auto n = offsets.size() - 1;
  for (auto r = static_cast<std::size_t>(lo) + 1;
       r <= static_cast<std::size_t>(hi); ++r) {
    offsets[r] += step;
  }
  for (auto r = static_cast<std::size_t>(hi) + 1; r <= n; ++r) {
    offsets[r] += 2 * step;
  }
}

}  // namespace

CSRGraph CSRGraph::from_coo(COOGraph coo) {
  if (!coo.endpoints_valid()) {
    throw std::invalid_argument("COOGraph has endpoints outside [0, n)");
  }
  coo.canonicalize();

  CSRGraph g;
  g.num_vertices_ = coo.num_vertices;
  const auto n = static_cast<std::size_t>(coo.num_vertices);
  const std::size_t num_arcs = coo.edges.size() * 2;

  std::vector<EdgeId> counts(n, 0);
  for (const auto& [u, v] : coo.edges) {
    ++counts[static_cast<std::size_t>(u)];
    ++counts[static_cast<std::size_t>(v)];
  }
  g.row_offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    g.row_offsets_[i + 1] = g.row_offsets_[i] + counts[i];
  }

  g.col_indices_.resize(num_arcs);
  std::vector<EdgeId> cursor(g.row_offsets_.begin(), g.row_offsets_.end() - 1);
  for (const auto& [u, v] : coo.edges) {
    g.col_indices_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
    g.col_indices_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(g.col_indices_.begin() + g.row_offsets_[v],
              g.col_indices_.begin() + g.row_offsets_[v + 1]);
  }

  g.arc_src_.resize(num_arcs);
  for (std::size_t v = 0; v < n; ++v) {
    for (EdgeId a = g.row_offsets_[v]; a < g.row_offsets_[v + 1]; ++a) {
      g.arc_src_[static_cast<std::size_t>(a)] = static_cast<VertexId>(v);
    }
  }
  return g;
}

bool CSRGraph::has_edge(VertexId u, VertexId v) const {
  assert(in_range(u) && in_range(v));
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::size_t CSRGraph::arc_slot(VertexId u, VertexId v) const {
  const auto nbrs = neighbors(u);
  return static_cast<std::size_t>(row_offsets_[u]) +
         static_cast<std::size_t>(
             std::lower_bound(nbrs.begin(), nbrs.end(), v) - nbrs.begin());
}

bool CSRGraph::insert_edge(VertexId u, VertexId v) {
  if (u == v || !in_range(u) || !in_range(v) || has_edge(u, v)) return false;
  if (u > v) std::swap(u, v);
  const std::size_t p = arc_slot(u, v);
  const std::size_t q = arc_slot(v, u);
  insert_two(col_indices_, p, v, q, u);
  insert_two(arc_src_, p, u, q, v);
  shift_rows(row_offsets_, u, v, 1);
  return true;
}

bool CSRGraph::remove_edge(VertexId u, VertexId v) {
  if (u == v || !in_range(u) || !in_range(v) || !has_edge(u, v)) return false;
  if (u > v) std::swap(u, v);
  const std::size_t p = arc_slot(u, v);
  const std::size_t q = arc_slot(v, u);
  erase_two(col_indices_, p, q);
  erase_two(arc_src_, p, q);
  shift_rows(row_offsets_, u, v, -1);
  return true;
}

CSRGraph CSRGraph::with_edge(VertexId u, VertexId v) const {
  if (!in_range(u) || !in_range(v)) {
    throw std::invalid_argument("CSRGraph::with_edge: endpoint outside [0, n)");
  }
  if (u == v || has_edge(u, v)) return *this;
  if (u > v) std::swap(u, v);
  const std::size_t p = arc_slot(u, v);
  const std::size_t q = arc_slot(v, u);
  CSRGraph g;
  g.num_vertices_ = num_vertices_;
  g.row_offsets_ = row_offsets_;
  shift_rows(g.row_offsets_, u, v, 1);
  g.col_indices_ = copy_with_two(col_indices_, p, v, q, u);
  g.arc_src_ = copy_with_two(arc_src_, p, u, q, v);
  return g;
}

CSRGraph CSRGraph::without_edge(VertexId u, VertexId v) const {
  if (u == v || !in_range(u) || !in_range(v) || !has_edge(u, v)) return *this;
  if (u > v) std::swap(u, v);
  const std::size_t p = arc_slot(u, v);
  const std::size_t q = arc_slot(v, u);
  CSRGraph g;
  g.num_vertices_ = num_vertices_;
  g.row_offsets_ = row_offsets_;
  shift_rows(g.row_offsets_, u, v, -1);
  g.col_indices_ = copy_without_two(col_indices_, p, q);
  g.arc_src_ = copy_without_two(arc_src_, p, q);
  return g;
}

COOGraph CSRGraph::to_coo() const {
  COOGraph coo;
  coo.num_vertices = num_vertices_;
  coo.edges.reserve(static_cast<std::size_t>(num_edges()));
  for (VertexId v = 0; v < num_vertices_; ++v) {
    for (VertexId w : neighbors(v)) {
      if (v < w) coo.add_edge(v, w);
    }
  }
  return coo;
}

bool CSRGraph::check_invariants() const {
  const auto n = static_cast<std::size_t>(num_vertices_);
  if (num_vertices_ < 0 || row_offsets_.size() != n + 1 ||
      row_offsets_.front() != 0 ||
      row_offsets_.back() != static_cast<EdgeId>(col_indices_.size()) ||
      arc_src_.size() != col_indices_.size() ||
      !std::is_sorted(row_offsets_.begin(), row_offsets_.end())) {
    return false;
  }
  for (VertexId v = 0; v < num_vertices_; ++v) {
    const auto nbrs = neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId w = nbrs[i];
      if (w == v || !in_range(w) || (i > 0 && nbrs[i - 1] >= w) ||
          !has_edge(w, v)) {
        return false;
      }
    }
    for (EdgeId a = row_offsets_[v]; a < row_offsets_[v + 1]; ++a) {
      if (arc_src_[static_cast<std::size_t>(a)] != v) return false;
    }
  }
  return true;
}

}  // namespace bcdyn
