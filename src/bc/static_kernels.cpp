#include "bc/static_kernels.hpp"

#include <algorithm>

namespace bcdyn::detail {

namespace {

using sim::BlockContext;

/// Shared init (Algorithm 1 stage 1, parallel over V).
void init_source(BlockContext& ctx, std::span<Dist> d, std::span<Sigma> sigma,
                 std::span<double> delta, VertexId s) {
  ctx.parallel_for(d.size(), [&](std::size_t v) {
    ctx.charge_instr(1);
    ctx.charge_write(d, v);
    ctx.charge_write(sigma, v);
    ctx.charge_write(delta, v);
    d[v] = kInfDist;
    sigma[v] = 0.0;
    delta[v] = 0.0;
  });
  d[static_cast<std::size_t>(s)] = 0;
  sigma[static_cast<std::size_t>(s)] = 1.0;
}

/// Final BC accumulation: every reachable non-source vertex adds its
/// dependency into the global array (modeled as the paper's atomicAdd).
void accumulate_bc(BlockContext& ctx, std::span<const Dist> d,
                   std::span<const double> delta, std::span<double> bc,
                   VertexId s) {
  if (bc.empty()) return;  // caller handles BC (removal fallback)
  ctx.parallel_for(d.size(), [&](std::size_t v) {
    ctx.charge_instr(2);
    ctx.charge_read(d, v);
    if (v == static_cast<std::size_t>(s) || d[v] == kInfDist) return;
    ctx.charge_read(delta, v);
    ctx.charge_atomic(bc, v);
    bc[v] += delta[v];
  });
}

}  // namespace

/// Edge-parallel source iteration: every BFS/dependency level scans the
/// whole directed-arc list. The model charges every arc; the host runs the
/// rows of the level's vertices, which `order` collects level by level.
void static_source_edge(sim::BlockContext& ctx, const CSRGraph& g, VertexId s,
                        std::span<Dist> d, std::span<Sigma> sigma,
                        std::span<double> delta, std::span<double> bc,
                        std::vector<VertexId>& order,
                        std::vector<std::size_t>& level_offsets) {
  init_source(ctx, d, sigma, delta, s);
  const auto src = g.arc_src();
  const auto dst = g.arc_dst();
  const auto num_arcs = static_cast<std::size_t>(g.num_arcs());
  order.clear();
  // Every vertex enters once, so the appends below never reallocate the
  // level a sweep is reading.
  order.reserve(d.size());
  order.push_back(s);
  level_offsets.assign(1, 0);

  Dist depth = 0;
  bool done = false;
  while (!done) {
    done = true;
    const std::size_t begin = level_offsets.back();
    const std::size_t end = order.size();
    level_offsets.push_back(end);
    const std::span<const VertexId> level(order.data() + begin, end - begin);
    ctx.parallel_for_live(num_arcs, row_ranges(g, level), [&](std::size_t a) {
      ctx.charge_instr(2);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      const auto x = static_cast<std::size_t>(src[a]);
      const auto w = static_cast<std::size_t>(dst[a]);
      // The d[] accesses of the relaxation round stay unaddressed: arcs
      // sharing a head may read d[w] = inf while a sibling writes depth+1,
      // the classic benign race of level-synchronous BFS (paper SIII.A -
      // every racing write stores the same value). A hardware port keeps
      // the race; the detector is told nothing so it stays quiet here.
      ctx.charge_read(1);
      if (d[x] != depth) return;
      ctx.charge_read(1);
      if (d[w] == kInfDist) {
        d[w] = depth + 1;
        ctx.charge_write(1);
        done = false;
        order.push_back(dst[a]);
      }
      if (d[w] == depth + 1) {
        ctx.charge_read(sigma, w);
        ctx.charge_read(sigma, x);
        ctx.charge_atomic(sigma, w);
        sigma[w] += sigma[x];
      }
    });
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(end), order.end());
    ++depth;
  }
  const Dist max_depth = depth - 1;

  for (Dist dep = max_depth; dep >= 1; --dep) {
    const auto lev = static_cast<std::size_t>(dep);
    const std::span<const VertexId> level(
        order.data() + level_offsets[lev],
        level_offsets[lev + 1] - level_offsets[lev]);
    ctx.parallel_for_live(num_arcs, row_ranges(g, level), [&](std::size_t a) {
      ctx.charge_instr(2);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      const auto c = static_cast<std::size_t>(src[a]);
      const auto p = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(d, c);
      if (d[c] != dep) return;
      ctx.charge_read(d, p);
      if (d[p] != dep - 1) return;
      ctx.charge_read(sigma, p);
      ctx.charge_read(sigma, c);
      ctx.charge_read(delta, c);
      ctx.charge_read(delta, p);
      ctx.charge_atomic(delta, p);
      delta[p] += sigma[p] / sigma[c] * (1.0 + delta[c]);
    });
  }
  accumulate_bc(ctx, d, delta, bc, s);
}

/// Node-parallel source iteration: explicit level-segmented frontier.
void static_source_node(sim::BlockContext& ctx, const CSRGraph& g, VertexId s,
                        std::span<Dist> d, std::span<Sigma> sigma,
                        std::span<double> delta, std::span<double> bc,
                        std::vector<VertexId>& order,
                        std::vector<std::size_t>& level_offsets) {
  init_source(ctx, d, sigma, delta, s);
  order.clear();
  level_offsets.clear();
  order.push_back(s);
  level_offsets.push_back(0);

  std::size_t level_begin = 0;
  Dist depth = 0;
  while (level_begin < order.size()) {
    const std::size_t level_end = order.size();
    // level_offsets[lev] must be the START of level lev's frontier. The
    // current frontier is [level_begin, level_end), and level_offsets
    // already ends with level_begin, so record this level's end (= the
    // next level's start) BEFORE the scan appends the next frontier;
    // pushing order.size() after the scan would fuse the source's level
    // with level 1 and the dependency stage below would then skip level-1
    // vertices entirely, losing their contributions to delta[s].
    level_offsets.push_back(level_end);
    ctx.parallel_for(level_end - level_begin, [&](std::size_t i) {
      const auto v = static_cast<std::size_t>(order[level_begin + i]);
      // Unaddressed: the queue entry lives in `order`, which push_back may
      // reallocate mid-round, and the row offset has no span here.
      ctx.charge_read(2);
      for (VertexId wv : g.neighbors(static_cast<VertexId>(v))) {
        const auto w = static_cast<std::size_t>(wv);
        ctx.charge_instr(2);
        // Unaddressed: adjacency entry, plus the d[w] touch of the benign
        // BFS discovery race (paper SIII.A) - see static_source_edge.
        ctx.charge_read(2);
        if (d[w] == kInfDist) {
          d[w] = depth + 1;
          ctx.charge_write(1);
          ctx.charge_atomic_aggregated();  // queue-tail counter
          ctx.charge_write(1);  // unaddressed: order may reallocate
          order.push_back(wv);
        }
        if (d[w] == depth + 1) {
          ctx.charge_read(sigma, w);
          ctx.charge_read(sigma, v);
          ctx.charge_atomic(sigma, w);
          sigma[w] += sigma[v];
        }
      }
    });
    level_begin = level_end;
    ++depth;
  }

  // Dependency accumulation: levels in reverse, one thread per frontier
  // vertex, predecessors found by rescanning adjacency.
  const auto num_levels = level_offsets.size() - 1;
  for (std::size_t lev = num_levels; lev-- > 1;) {
    const std::size_t begin = level_offsets[lev];
    const std::size_t end = level_offsets[lev + 1];
    ctx.parallel_for(end - begin, [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(order[begin + i]);
      ctx.charge_read(order, begin + i);
      ctx.charge_read(1);  // row offset
      ctx.charge_read(delta, w);
      ctx.charge_read(sigma, w);
      const double coeff = (1.0 + delta[w]) / sigma[w];
      for (VertexId xv : g.neighbors(static_cast<VertexId>(w))) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry
        ctx.charge_read(d, x);
        if (d[x] + 1 != d[w]) continue;
        ctx.charge_read(sigma, x);
        ctx.charge_read(delta, x);
        ctx.charge_atomic(delta, x);
        delta[x] += sigma[x] * coeff;
      }
    });
  }
  accumulate_bc(ctx, d, delta, bc, s);
}


void static_source(sim::BlockContext& ctx, Parallelism mode, const CSRGraph& g,
                   VertexId s, std::span<Dist> d, std::span<Sigma> sigma,
                   std::span<double> delta, std::span<double> bc_accum,
                   std::vector<VertexId>& order,
                   std::vector<std::size_t>& level_offsets) {
  if (mode == Parallelism::kEdge) {
    static_source_edge(ctx, g, s, d, sigma, delta, bc_accum, order,
                       level_offsets);
  } else {
    static_source_node(ctx, g, s, d, sigma, delta, bc_accum, order,
                       level_offsets);
  }
}

}  // namespace bcdyn::detail
