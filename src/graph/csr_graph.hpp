// Compressed-sparse-row graph that patches itself under edge updates.
//
// Undirected graphs are stored with both arc directions so that
// neighbors(v) is a contiguous span. The arc list (the "edge-parallel
// view") is arc_src[a] -> arc_dst[a] for every directed arc, which is
// exactly the iteration space of the paper's edge-parallel kernels;
// arc_dst is col_indices itself, so only arc_src is stored beside it.
//
// Layout invariant: whatever sequence of insert_edge / remove_edge /
// with_edge / without_edge produced a graph, its row_offsets, col_indices
// and arc_src are byte-identical to CSRGraph::from_coo of the same edge
// set (rows sorted ascending, arcs in row order). The kernels' arc order,
// thread-to-item mapping and work counts are functions of that layout, so
// an incrementally patched graph yields bit-identical scores and modeled
// seconds to a rebuilt one. A patch splices the edge's two arcs into (or
// out of) their sorted slots with one shift of the arrays - O(m) memmove,
// no sort - instead of an O(m log d) rebuild.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/coo.hpp"
#include "util/types.hpp"

namespace bcdyn {

class CSRGraph {
 public:
  CSRGraph() = default;

  /// Builds from an undirected edge list. The input is canonicalized
  /// (self loops and duplicates dropped).
  static CSRGraph from_coo(COOGraph coo);

  VertexId num_vertices() const { return num_vertices_; }

  /// Number of undirected edges (m). The arc list has 2m entries.
  EdgeId num_edges() const { return num_arcs() / 2; }

  EdgeId num_arcs() const { return static_cast<EdgeId>(col_indices_.size()); }

  VertexId degree(VertexId v) const {
    return static_cast<VertexId>(row_offsets_[v + 1] - row_offsets_[v]);
  }

  std::span<const VertexId> neighbors(VertexId v) const {
    return {col_indices_.data() + row_offsets_[v],
            col_indices_.data() + row_offsets_[v + 1]};
  }

  /// Directed-arc view: arc a goes arc_src()[a] -> arc_dst()[a].
  std::span<const VertexId> arc_src() const { return arc_src_; }
  std::span<const VertexId> arc_dst() const { return col_indices_; }

  std::span<const EdgeId> row_offsets() const { return row_offsets_; }

  /// Binary search over u's sorted row. Both endpoints must be in range.
  bool has_edge(VertexId u, VertexId v) const;

  /// Inserts undirected edge {u, v} in place. Returns false, leaving the
  /// graph untouched, for self loops, out-of-range endpoints, and edges
  /// already present.
  bool insert_edge(VertexId u, VertexId v);

  /// Removes undirected edge {u, v} in place. Returns false, leaving the
  /// graph untouched, for self loops, out-of-range endpoints, and absent
  /// edges.
  bool remove_edge(VertexId u, VertexId v);

  /// A copy with {u, v} added, allocated at exact size. Self loops and
  /// present edges yield a plain copy; out-of-range endpoints throw
  /// std::invalid_argument (as from_coo does).
  CSRGraph with_edge(VertexId u, VertexId v) const;

  /// A copy with {u, v} removed, allocated at exact size; a plain copy
  /// when the edge is absent.
  CSRGraph without_edge(VertexId u, VertexId v) const;

  /// Convert back to a canonical undirected edge list.
  COOGraph to_coo() const;

  /// Structural consistency: row offsets monotone from 0 to num_arcs(),
  /// every row strictly increasing (sorted, no duplicates) with no self
  /// loops, every arc mirrored by its reverse, and arc_src()[a] the row
  /// that holds arc a. O(m log d); used by tests.
  bool check_invariants() const;

 private:
  bool in_range(VertexId v) const { return v >= 0 && v < num_vertices_; }
  /// Slot of arc u -> v in u's row: where it is, or where it would go.
  std::size_t arc_slot(VertexId u, VertexId v) const;

  VertexId num_vertices_ = 0;
  std::vector<EdgeId> row_offsets_;    // size n+1
  std::vector<VertexId> col_indices_;  // size 2m, sorted per row (= arc_dst)
  std::vector<VertexId> arc_src_;      // size 2m
};

}  // namespace bcdyn
