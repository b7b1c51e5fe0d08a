// Per-source static BC kernels on the simulated device (Jia et al. [13]),
// shared between the static passes (the paper's recomputation baseline,
// Table III, and Fig. 1's thread-block sweep; single-device and sharded)
// and the batch path's touched-fraction recompute fallback. Within a block
// the BFS + dependency stages use either edge-parallel (one thread per
// directed arc, whole arc list scanned per level) or node-parallel
// (explicit frontier queues) fine-grained mapping.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gpusim/block_context.hpp"
#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace bcdyn {

/// The paper's two fine-grained mappings of one source's work onto a block.
enum class Parallelism { kEdge, kNode };

inline const char* to_string(Parallelism p) {
  return p == Parallelism::kEdge ? "Edge" : "Node";
}

}  // namespace bcdyn

namespace bcdyn::detail {

/// Live ranges for BlockContext::parallel_for_live over the arc list: the
/// rows of `vertices` (ascending). Arcs are sorted by source, so these are
/// the live arcs of a sweep whose first test reads the arc's source.
inline auto row_ranges(const CSRGraph& g, std::span<const VertexId> vertices) {
  return [rows = g.row_offsets(), vertices](auto&& visit) {
    for (const VertexId v : vertices) {
      const auto i = static_cast<std::size_t>(v);
      visit(static_cast<std::size_t>(rows[i]),
            static_cast<std::size_t>(rows[i + 1]));
    }
  };
}

/// Live ranges of single items, from an ascending list of item indices.
template <typename Index>
auto item_ranges(std::span<const Index> items) {
  return [items](auto&& visit) {
    for (const Index i : items) {
      visit(static_cast<std::size_t>(i), static_cast<std::size_t>(i) + 1);
    }
  };
}

/// One edge-parallel Brandes iteration from s: fills d/sigma/delta and,
/// when bc_accum is non-empty, atomically adds the dependencies into it.
/// `order` and `level_offsets` receive the BFS levels, each ascending: the
/// host uses them to run only the arcs of the level a sweep works on.
void static_source_edge(sim::BlockContext& ctx, const CSRGraph& g, VertexId s,
                        std::span<Dist> d, std::span<Sigma> sigma,
                        std::span<double> delta, std::span<double> bc_accum,
                        std::vector<VertexId>& order,
                        std::vector<std::size_t>& level_offsets);

/// Node-parallel counterpart with caller-provided frontier scratch.
void static_source_node(sim::BlockContext& ctx, const CSRGraph& g, VertexId s,
                        std::span<Dist> d, std::span<Sigma> sigma,
                        std::span<double> delta, std::span<double> bc_accum,
                        std::vector<VertexId>& order,
                        std::vector<std::size_t>& level_offsets);

/// One Brandes iteration from s in `mode`; both kernels use the frontier
/// scratch.
void static_source(sim::BlockContext& ctx, Parallelism mode, const CSRGraph& g,
                   VertexId s, std::span<Dist> d, std::span<Sigma> sigma,
                   std::span<double> delta, std::span<double> bc_accum,
                   std::vector<VertexId>& order,
                   std::vector<std::size_t>& level_offsets);

}  // namespace bcdyn::detail
