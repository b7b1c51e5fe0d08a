// Per-source static BC kernels on the simulated device, shared between the
// static passes (Jia et al. recomputation baseline, single-device and
// sharded) and the batch path's touched-fraction recompute fallback.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "bc/static_gpu.hpp"
#include "gpusim/block_context.hpp"
#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace bcdyn::detail {

/// One edge-parallel Brandes iteration from s: fills d/sigma/delta and,
/// when bc_accum is non-empty, atomically adds the dependencies into it.
void static_source_edge(sim::BlockContext& ctx, const CSRGraph& g, VertexId s,
                        std::span<Dist> d, std::span<Sigma> sigma,
                        std::span<double> delta, std::span<double> bc_accum);

/// Node-parallel counterpart with caller-provided frontier scratch.
void static_source_node(sim::BlockContext& ctx, const CSRGraph& g, VertexId s,
                        std::span<Dist> d, std::span<Sigma> sigma,
                        std::span<double> delta, std::span<double> bc_accum,
                        std::vector<VertexId>& order,
                        std::vector<std::size_t>& level_offsets);

/// One Brandes iteration from s in `mode` (the node-parallel kernel uses
/// the frontier scratch; the edge-parallel one ignores it).
void static_source(sim::BlockContext& ctx, Parallelism mode, const CSRGraph& g,
                   VertexId s, std::span<Dist> d, std::span<Sigma> sigma,
                   std::span<double> delta, std::span<double> bc_accum,
                   std::vector<VertexId>& order,
                   std::vector<std::size_t>& level_offsets);

}  // namespace bcdyn::detail
