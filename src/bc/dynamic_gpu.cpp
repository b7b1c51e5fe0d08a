#include "bc/dynamic_gpu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "bc/adaptive_policy.hpp"
#include "bc/batch_update.hpp"
#include "bc/static_kernels.hpp"
#include "gpusim/primitives.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace bcdyn {

namespace {

using sim::BlockContext;

/// Per-BFS-level frontier telemetry for the node-parallel kernels. Gated
/// on the tracer (not the always-on registry) because it fires once per
/// level per source and is only interesting when a trace is being taken.
inline void observe_frontier(std::size_t frontier_size) {
  if (trace::tracer().enabled()) {
    trace::metrics().observe("bc.frontier_size",
                             static_cast<double>(frontier_size));
  }
}

constexpr std::uint8_t kUntouched = 0;
constexpr std::uint8_t kDown = 1;
constexpr std::uint8_t kUp = 2;

/// Per-source read-only/updated rows bundled to keep kernel signatures sane.
struct Rows {
  std::span<Dist> d;
  std::span<Sigma> sigma;
  std::span<double> delta;
};

// ---------------------------------------------------------------------------
// Live sets of the edge-parallel sweeps. The model charges every arc (or
// vertex) of a sweep; the host runs only the items that can get past the
// body's first test (BlockContext::parallel_for_live): the vertices of one
// level, the rows of those vertices when the test reads an arc's source,
// or the arcs into them when it reads the head. Each sweep's set is taken
// before the sweep starts. d_new differs from d only at moved vertices, so
// a d_new level is the level's bucket in ws.levels, less the vertices that
// moved away, plus the arrivals on ws.moved_list.
// ---------------------------------------------------------------------------

constexpr auto any_vertex = [](VertexId) { return true; };

/// Appends the vertices with d_new == `level` that pass `keep` to ws.live,
/// in ascending order.
template <typename Keep>
void append_d_new_level(GpuWorkspace& ws, std::span<const Dist> d, Dist level,
                        Keep keep) {
  const auto stays = [&](VertexId v) {
    return ws.d_new[static_cast<std::size_t>(v)] == level && keep(v);
  };
  const auto begin = static_cast<std::ptrdiff_t>(ws.live.size());
  for (const VertexId v : ws.levels.level(level)) {
    if (stays(v)) ws.live.push_back(v);
  }
  const auto mid = static_cast<std::ptrdiff_t>(ws.live.size());
  for (const VertexId v : ws.moved_list) {
    if (stays(v) && d[static_cast<std::size_t>(v)] != level) {
      ws.live.push_back(v);
    }
  }
  std::sort(ws.live.begin() + mid, ws.live.end());
  std::inplace_merge(ws.live.begin() + begin, ws.live.begin() + mid,
                     ws.live.end());
}

/// Fills ws.live_arcs with every arc into a vertex of `heads`, ascending:
/// each is found by a binary search in its source's sorted row, and
/// ws.arc_bits puts them in order.
void arcs_into(const CSRGraph& g, std::span<const VertexId> heads,
               GpuWorkspace& ws) {
  const auto rows = g.row_offsets();
  ws.arc_bits.resize(static_cast<std::size_t>(g.num_arcs()));
  for (const VertexId w : heads) {
    for (const VertexId x : g.neighbors(w)) {
      const auto row = g.neighbors(x);
      const auto slot = std::lower_bound(row.begin(), row.end(), w);
      ws.arc_bits.insert(static_cast<std::size_t>(
          rows[static_cast<std::size_t>(x)] + (slot - row.begin())));
    }
  }
  ws.live_arcs.clear();
  ws.arc_bits.drain(ws.live_arcs);
}

/// Algorithm 3: parallel initialization of the block-local update state.
/// `case3` additionally snapshots distances and clears the moved/reset maps.
/// `sign` is +1 for insertions (u_low gains u_high's paths) and -1 for
/// removals (it loses them).
///
/// The host makes the uniform stores in bulk first; the charged loop then
/// runs only u_low, whose charges differ when !case3, and charges every
/// other vertex the uniform branch's cost (parallel_for_live).
///
/// Kept out of line, like finalize_kernel: inlined into its one caller,
/// the per-vertex body stops being inlined into the loop (measured 15-20%
/// slower node-parallel updates with GCC -O3 when these loops ran every
/// vertex on the host).
[[gnu::noinline]] void init_kernel(BlockContext& ctx, GpuWorkspace& ws,
                                   const Rows& rows, VertexId u_high,
                                   VertexId u_low, bool case3,
                                   double sign = 1.0) {
  const std::size_t n = rows.sigma.size();
  std::copy(rows.sigma.begin(), rows.sigma.end(), ws.sigma_hat.begin());
  std::fill_n(ws.t.begin(), n, kUntouched);
  std::fill_n(ws.delta_hat.begin(), n, 0.0);
  if (case3) {
    std::copy(rows.d.begin(), rows.d.end(), ws.d_new.begin());
    std::fill_n(ws.moved.begin(), n, 0);
    std::fill_n(ws.reset.begin(), n, 0);
  }
  const std::span<const VertexId> live(&u_low, case3 ? 0 : 1);
  ctx.parallel_for_live(n, detail::item_ranges(live), [&](std::size_t v) {
    ctx.charge_instr(1);
    if (v == static_cast<std::size_t>(u_low) && !case3) {
      ctx.charge_read(rows.sigma, v);
      ctx.charge_read(rows.sigma, static_cast<std::size_t>(u_high));
      ctx.charge_write(ws.t, v);
      ctx.charge_write(ws.sigma_hat, v);
      ctx.charge_write(ws.delta_hat, v);
      ws.t[v] = kDown;
      ws.sigma_hat[v] =
          rows.sigma[v] + sign * rows.sigma[static_cast<std::size_t>(u_high)];
    } else {
      ctx.charge_read(rows.sigma, v);
      ctx.charge_write(ws.t, v);
      ctx.charge_write(ws.sigma_hat, v);
      ctx.charge_write(ws.delta_hat, v);
    }
    if (case3) {
      ctx.charge_read(rows.d, v);
      ctx.charge_write(ws.d_new, v);
      ctx.charge_write(ws.moved, v);
      ctx.charge_write(ws.reset, v);
    }
  });
}

/// Algorithm 8: atomically fold BC deltas into the shared scores and copy
/// the hatted values back into the per-source rows. Returns |touched|.
/// The host copies the rows back in bulk; the charged loop runs only the
/// touched vertices, which it gathers in ascending order into ws.live, so
/// bc[] adds fold in vertex order, and charges every other vertex the
/// uniform exit's cost (parallel_for_live).
[[gnu::noinline]] VertexId finalize_kernel(BlockContext& ctx,
                                           GpuWorkspace& ws, const Rows& rows,
                                           std::span<double> bc, VertexId s,
                                           bool case3) {
  const std::size_t n = rows.sigma.size();
  std::copy_n(ws.sigma_hat.begin(), n, rows.sigma.begin());
  if (case3) std::copy_n(ws.d_new.begin(), n, rows.d.begin());
  ws.live.clear();
  for (std::size_t v = 0; v < n; ++v) {
    if (ws.t[v] != kUntouched) ws.live.push_back(static_cast<VertexId>(v));
  }
  VertexId touched = 0;
  const auto live = detail::item_ranges<VertexId>(ws.live);
  ctx.parallel_for_live(n, live, [&](std::size_t v) {
    ctx.charge_instr(2);
    ctx.charge_read(ws.sigma_hat, v);
    ctx.charge_read(ws.t, v);
    ctx.charge_write(rows.sigma, v);
    if (case3) {
      ctx.charge_read(ws.d_new, v);
      ctx.charge_write(rows.d, v);
    }
    if (ws.t[v] == kUntouched) return;
    ++touched;
    if (v != static_cast<std::size_t>(s)) {
      ctx.charge_read(ws.delta_hat, v);
      ctx.charge_read(rows.delta, v);
      ctx.charge_atomic(bc, v);
      bc[v] += ws.delta_hat[v] - rows.delta[v];
    }
    ctx.charge_read(ws.delta_hat, v);
    ctx.charge_write(rows.delta, v);
    rows.delta[v] = ws.delta_hat[v];
  });
  return touched;
}

void removal_prepass(BlockContext& ctx, GpuWorkspace& ws, const Rows& rows,
                     VertexId u_high, VertexId u_low, bool node_mode);

// ---------------------------------------------------------------------------
// Case 2, edge-parallel (Algorithms 4 and 6). With `removal`, the same
// level-synchronous machinery runs with negative sigma increments seeded by
// the init kernel, plus the decremental pre-pass for u_high.
// ---------------------------------------------------------------------------

void edge_case2(BlockContext& ctx, const CSRGraph& g, const Rows& rows,
                GpuWorkspace& ws, VertexId u_high, VertexId u_low,
                bool removal = false) {
  const auto src = g.arc_src();
  const auto dst = g.arc_dst();
  const auto num_arcs = static_cast<std::size_t>(g.num_arcs());
  const auto d = rows.d;
  ws.levels.build(d);  // Case 2 keeps every distance

  // Algorithm 4: level-synchronous sigma-hat propagation; every level scans
  // the entire arc list. Note this touches whole BFS levels below u_low
  // (any w one level below a current-depth v), which is exactly the futile
  // work the paper attributes to the edge-parallel mapping.
  Dist depth = d[static_cast<std::size_t>(u_low)];
  Dist last_touch_depth = depth;
  bool done = false;
  while (!done) {
    done = true;
    const auto live = detail::row_ranges(g, ws.levels.level(depth));
    ctx.parallel_for_live(num_arcs, live, [&](std::size_t a) {
      ctx.charge_instr(2);
      const auto v = static_cast<std::size_t>(src[a]);
      const auto w = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(d, v);
      if (d[v] != depth) return;
      ctx.charge_read(d, w);
      if (d[w] != depth + 1) return;
      // The t[w] touch test stays unaddressed: arcs sharing a head race on
      // it, benignly - every winner stores the same kDown (paper SIII.A).
      ctx.charge_read(1);
      if (ws.t[w] == kUntouched) {
        ws.t[w] = kDown;  // benign race on hardware (paper §III.A)
        ctx.charge_write(1);
        done = false;
      }
      ctx.charge_read(ws.sigma_hat, v);
      ctx.charge_read(rows.sigma, v);
      ctx.charge_atomic(ws.sigma_hat, w);
      ws.sigma_hat[w] += ws.sigma_hat[v] - rows.sigma[v];
    });
    if (!done) last_touch_depth = depth + 1;
    ++depth;
  }
  if (removal) removal_prepass(ctx, ws, rows, u_high, u_low, false);

  // Algorithm 6 (with the Brandes roles made explicit: arc (c, p) with c at
  // `dep` contributing to its predecessor p at dep-1).
  for (Dist dep = last_touch_depth; dep >= 1; --dep) {
    const auto live = detail::row_ranges(g, ws.levels.level(dep));
    ctx.parallel_for_live(num_arcs, live, [&](std::size_t a) {
      ctx.charge_instr(2);
      const auto c = static_cast<std::size_t>(src[a]);
      const auto p = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(d, c);
      if (d[c] != dep) return;
      ctx.charge_read(d, p);
      if (d[p] != dep - 1) return;
      ctx.charge_read(ws.t, c);
      if (ws.t[c] == kUntouched) return;  // c's contribution is unchanged
      double dsv = 0.0;
      ctx.charge_read(ws.t, p);
      ctx.charge_atomic(ws.t, p);  // atomicCAS on t[p]
      if (ws.t[p] == kUntouched) {
        ws.t[p] = kUp;  // the store is part of the CAS, charged above
        ctx.charge_read(rows.delta, p);
        dsv += rows.delta[p];
      }
      ctx.charge_read(ws.sigma_hat, p);
      ctx.charge_read(ws.sigma_hat, c);
      ctx.charge_read(ws.delta_hat, c);
      ctx.charge_read(ws.t, p);
      dsv += ws.sigma_hat[p] / ws.sigma_hat[c] * (1.0 + ws.delta_hat[c]);
      if (ws.t[p] == kUp &&
          !(p == static_cast<std::size_t>(u_high) &&
            c == static_cast<std::size_t>(u_low))) {
        ctx.charge_read(rows.sigma, p);
        ctx.charge_read(rows.sigma, c);
        ctx.charge_read(rows.delta, c);
        dsv -= rows.sigma[p] / rows.sigma[c] * (1.0 + rows.delta[c]);
      }
      ctx.charge_atomic(ws.delta_hat, p);
      ws.delta_hat[p] += dsv;
    });
  }
}

// ---------------------------------------------------------------------------
// Case 2, node-parallel (Algorithms 5 and 7).
// ---------------------------------------------------------------------------

void node_case2(BlockContext& ctx, const CSRGraph& g, const Rows& rows,
                GpuWorkspace& ws, VertexId u_high, VertexId u_low,
                bool removal = false) {
  const auto d = rows.d;
  ws.q.clear();
  ws.q2.clear();
  ws.qq.clear();
  ws.q.push_back(u_low);
  ws.qq.push_back(u_low);

  // Algorithm 5: frontier BFS with duplicate removal. (In the simulator a
  // block executes sequentially, so the first visiting parent wins the
  // touch test and Q2 is duplicate-free; the remove_duplicates pipeline is
  // still executed and charged because the algorithm cannot know that.)
  while (!ws.q.empty()) {
    observe_frontier(ws.q.size());
    ws.q2.clear();
    ctx.parallel_for(ws.q.size(), [&](std::size_t i) {
      const auto v = static_cast<std::size_t>(ws.q[i]);
      ctx.charge_read(ws.q, i);
      ctx.charge_read(1);  // row offset (no span here)
      ctx.charge_read(ws.sigma_hat, v);
      ctx.charge_read(rows.sigma, v);
      const Dist dv = d[v];
      const Sigma inc = ws.sigma_hat[v] - rows.sigma[v];
      for (VertexId wv : g.neighbors(static_cast<VertexId>(v))) {
        const auto w = static_cast<std::size_t>(wv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(d, w);
        if (d[w] != dv + 1) continue;
        // Unaddressed: the t[w] touch test is the paper's benign
        // first-parent-wins race (SIII.A), and the Q2 append may
        // reallocate the queue's storage mid-round.
        ctx.charge_read(1);
        if (ws.t[w] == kUntouched) {
          ws.t[w] = kDown;
          ctx.charge_write(1);
          ctx.charge_atomic_aggregated();  // Q2 tail counter (Algorithm 5 line 15)
          ctx.charge_write(1);
          ws.q2.push_back(wv);
        }
        ctx.charge_atomic(ws.sigma_hat, w);
        ws.sigma_hat[w] += inc;
      }
    });
    if (ws.q2.empty()) break;
    const std::size_t unique =
        sim::block_remove_duplicates(ctx, ws.q2, ws.q2.size(), ws.scratch,
                                     ws.flags);
    ws.q.assign(ws.q2.begin(), ws.q2.begin() + static_cast<std::ptrdiff_t>(unique));
    // Transfer to Q and append to QQ (Algorithm 5 lines 25-28). Queue
    // writes stay unaddressed: the appends may reallocate the storage.
    ctx.parallel_for(unique, [&](std::size_t i) {
      ctx.charge_read(ws.q, i);
      ctx.charge_write(1);
      ctx.charge_atomic_aggregated();  // QQ tail counter
      ctx.charge_write(1);
      ws.qq.push_back(ws.q[i]);
    });
  }

  if (removal) removal_prepass(ctx, ws, rows, u_high, u_low, true);

  // Starting depth for the dependency stage: deepest touched level
  // (Algorithm 5 lines 30-31, restricted to processed vertices).
  Dist max_depth = 0;
  {
    ws.scratch.resize(std::max(ws.scratch.size(), ws.qq.size()));
    std::vector<Dist> levels(ws.qq.size());
    for (std::size_t i = 0; i < ws.qq.size(); ++i) {
      levels[i] = d[static_cast<std::size_t>(ws.qq[i])];
    }
    max_depth = sim::block_reduce_max(ctx, levels, levels.size(), 0);
  }

  // Algorithm 7: level-filtered sweep over the flat multi-level queue.
  for (Dist dep = max_depth; dep >= 1; --dep) {
    const std::size_t qq_len = ws.qq.size();  // appends go to dep-1
    ctx.parallel_for(qq_len, [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.qq[i]);
      // Unaddressed: QQ entry - appends below may reallocate the storage.
      ctx.charge_read(1);
      ctx.charge_read(d, w);
      if (d[w] != dep) return;
      ctx.charge_read(ws.delta_hat, w);
      ctx.charge_read(ws.sigma_hat, w);
      ctx.charge_read(rows.delta, w);
      const double coeff_new =
          (1.0 + ws.delta_hat[w]) / ws.sigma_hat[w];
      const double coeff_old = (1.0 + rows.delta[w]) / rows.sigma[w];
      for (VertexId xv : g.neighbors(static_cast<VertexId>(w))) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(d, x);
        if (d[x] + 1 != d[w]) continue;
        double dsv = 0.0;
        ctx.charge_atomic(ws.t, x);  // atomicCAS on t[x] (Algorithm 7 line 9)
        if (ws.t[x] == kUntouched) {
          ws.t[x] = kUp;  // the store is part of the CAS, charged above
          ctx.charge_read(rows.delta, x);
          dsv += rows.delta[x];
          ctx.charge_atomic_aggregated();  // QQ tail counter
          ctx.charge_write(1);  // unaddressed: QQ may reallocate
          ws.qq.push_back(xv);
        }
        ctx.charge_read(ws.sigma_hat, x);
        ctx.charge_read(ws.t, x);
        dsv += ws.sigma_hat[x] * coeff_new;
        if (ws.t[x] == kUp &&
            !(x == static_cast<std::size_t>(u_high) &&
              w == static_cast<std::size_t>(u_low))) {
          ctx.charge_read(rows.sigma, x);
          dsv -= rows.sigma[x] * coeff_old;
        }
        ctx.charge_atomic(ws.delta_hat, x);
        ws.delta_hat[x] += dsv;
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Case 3 for removals, Phase 0 (DESIGN.md §7): the increasing-distance
// counterpart of Phase A's pull. u_low lost its only parent, so it is an
// orphan; walking the old levels downward, a child of an orphan is an
// orphan too when none of its old parents outside the orphan set survives.
// Every orphan then takes min(d[x] + 1) over its non-orphan neighbours x
// (infinity when there is none), and the orphans relax each other level by
// level. Every orphan ends moved with t = kDown, sigma-hat 0 and reset set
// (so one that stays unreachable drops out with zero dependency), and
// every other child of an orphan - which lost that parent's paths - is
// marked kDown at its unchanged level. Node-parallel runs these steps on
// explicit frontiers ahead of Phase A; edge-parallel fuses them with its
// Phase A into one arc sweep per level.
// ---------------------------------------------------------------------------

/// Marks w an orphan: new distance unknown (infinity until relevelled),
/// paths and dependency rebuilt from scratch. Appends it to ws.moved_list.
void mark_orphan(BlockContext& ctx, GpuWorkspace& ws, std::size_t w) {
  ctx.charge_write(ws.moved, w);
  ctx.charge_write(ws.t, w);
  ctx.charge_write(ws.d_new, w);
  ctx.charge_write(ws.sigma_hat, w);
  ctx.charge_write(ws.reset, w);
  ws.moved[w] = 1;
  ws.t[w] = kDown;
  ws.d_new[w] = kInfDist;
  ws.sigma_hat[w] = 0.0;
  ws.reset[w] = 1;
  ws.moved_list.push_back(static_cast<VertexId>(w));
}

/// Node-parallel Phase 0. Leaves ws.moved_list holding every orphan,
/// ws.orphans the ones that stay reachable in ascending new level, and
/// ws.premarked the other pre-marked children in ascending level.
void node_removal_phase0(BlockContext& ctx, const CSRGraph& g,
                         const Rows& rows, GpuWorkspace& ws, VertexId u_low) {
  const auto d = rows.d;
  const auto lo = static_cast<std::size_t>(u_low);
  ws.moved_list.clear();
  ws.orphans.clear();
  ws.premarked.clear();
  ws.q.clear();
  mark_orphan(ctx, ws, lo);
  ws.q.push_back(u_low);

  // Detection, one old level per step: q holds the previous level's
  // orphans, q2 collects their children, qq the children found orphaned.
  for (Dist level = d[lo] + 1; !ws.q.empty(); ++level) {
    ws.q2.clear();
    ctx.parallel_for(ws.q.size(), [&](std::size_t i) {
      ctx.charge_read(ws.q, i);
      ctx.charge_read(1);  // row offset (no span here)
      for (VertexId wv : g.neighbors(ws.q[i])) {
        const auto w = static_cast<std::size_t>(wv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(d, w);
        if (d[w] != level) continue;
        // Unaddressed: orphans sharing a child race on its mark, benignly
        // (every winner stores kDown), and the append may reallocate.
        ctx.charge_read(1);
        if (ws.t[w] != kUntouched) continue;
        ctx.charge_write(1);
        ws.t[w] = kDown;
        ctx.charge_atomic_aggregated();  // q2 tail counter
        ctx.charge_write(1);
        ws.q2.push_back(wv);
      }
    });
    ws.qq.clear();
    ctx.parallel_for(ws.q2.size(), [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.q2[i]);
      ctx.charge_read(ws.q2, i);
      ctx.charge_read(1);  // row offset (no span here)
      bool survives = false;
      for (VertexId xv : g.neighbors(ws.q2[i])) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(d, x);
        if (d[x] + 1 != level) continue;  // not an old parent
        ctx.charge_read(ws.moved, x);
        if (ws.moved[x] == 0) {
          survives = true;
          break;
        }
      }
      ctx.charge_atomic_aggregated();  // list tail counter
      ctx.charge_write(1);  // unaddressed: the append may reallocate
      if (survives) {
        ws.premarked.push_back(ws.q2[i]);
        return;
      }
      mark_orphan(ctx, ws, w);
      ws.qq.push_back(ws.q2[i]);
    });
    ws.q.swap(ws.qq);
  }

  // Relevel seeds: the best surviving neighbour of each orphan.
  Dist lo_seed = kInfDist;
  Dist hi_seed = -1;
  ctx.parallel_for(ws.moved_list.size(), [&](std::size_t i) {
    const auto w = static_cast<std::size_t>(ws.moved_list[i]);
    ctx.charge_read(ws.moved_list, i);
    ctx.charge_read(1);  // row offset (no span here)
    Dist best = kInfDist;
    for (VertexId xv : g.neighbors(ws.moved_list[i])) {
      const auto x = static_cast<std::size_t>(xv);
      ctx.charge_instr(2);
      ctx.charge_read(1);  // adjacency entry (no span here)
      ctx.charge_read(ws.moved, x);
      if (ws.moved[x] != 0) continue;
      ctx.charge_read(d, x);
      best = std::min(best, d[x] + 1);
    }
    ctx.charge_write(ws.d_new, w);
    ws.d_new[w] = std::min(best, kInfDist);
    if (ws.d_new[w] != kInfDist) {
      lo_seed = std::min(lo_seed, ws.d_new[w]);
      hi_seed = std::max(hi_seed, ws.d_new[w]);
    }
  });

  // Counting sort of the seeded orphans by level into qq; afterwards
  // flags[l - lo_seed] is the end offset of level l's bucket.
  ws.qq.clear();
  if (lo_seed <= hi_seed) {
    const auto buckets = static_cast<std::size_t>(hi_seed - lo_seed) + 1;
    ws.flags.assign(buckets, 0);
    ctx.parallel_for(ws.moved_list.size(), [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.moved_list[i]);
      ctx.charge_read(ws.moved_list, i);
      ctx.charge_read(ws.d_new, w);
      if (ws.d_new[w] == kInfDist) return;
      const auto b = static_cast<std::size_t>(ws.d_new[w] - lo_seed);
      ctx.charge_atomic(ws.flags, b);
      ++ws.flags[b];
    });
    ws.qq.resize(sim::block_exclusive_scan(ctx, ws.flags, buckets));
    ctx.parallel_for(ws.moved_list.size(), [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.moved_list[i]);
      ctx.charge_read(ws.moved_list, i);
      ctx.charge_read(ws.d_new, w);
      if (ws.d_new[w] == kInfDist) return;
      const auto b = static_cast<std::size_t>(ws.d_new[w] - lo_seed);
      ctx.charge_atomic(ws.flags, b);
      const std::uint32_t slot = ws.flags[b]++;
      ctx.charge_write(ws.qq, slot);
      ws.qq[slot] = ws.moved_list[i];
    });
  }

  // Level-synchronous relaxation among the orphans: the frontier at each
  // level is the orphans relaxed to it plus the seeds bucketed at it that
  // no relaxation lowered. Finalized frontiers accumulate in ws.orphans.
  std::size_t seed_cursor = 0;
  const auto admit_seeds = [&](Dist level, std::vector<VertexId>& out) {
    if (level < lo_seed || level > hi_seed) return;
    const std::size_t begin = seed_cursor;
    seed_cursor = ws.flags[static_cast<std::size_t>(level - lo_seed)];
    if (seed_cursor == begin) return;
    ctx.parallel_for(seed_cursor - begin, [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.qq[begin + i]);
      ctx.charge_read(ws.qq, begin + i);
      ctx.charge_read(ws.d_new, w);
      if (ws.d_new[w] != level) return;  // lowered: already admitted
      ctx.charge_atomic_aggregated();  // frontier tail counter
      ctx.charge_write(1);  // unaddressed: the append may reallocate
      out.push_back(ws.qq[begin + i]);
    });
  };
  ws.q.clear();
  Dist last = hi_seed;
  for (Dist level = lo_seed; level <= last; ++level) {
    admit_seeds(level, ws.q);
    if (ws.q.empty()) continue;  // a gap between seeded levels
    observe_frontier(ws.q.size());
    ws.q2.clear();
    ctx.parallel_for(ws.q.size(), [&](std::size_t i) {
      ctx.charge_read(ws.q, i);
      ctx.charge_read(1);  // row offset (no span here)
      for (VertexId xv : g.neighbors(ws.q[i])) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(ws.moved, x);
        if (ws.moved[x] == 0) continue;
        ctx.charge_atomic(ws.d_new, x);  // atomicMin: winners append once
        if (ws.d_new[x] <= level + 1) continue;
        ws.d_new[x] = level + 1;
        ctx.charge_atomic_aggregated();  // q2 tail counter
        ctx.charge_write(1);  // unaddressed: the append may reallocate
        ws.q2.push_back(xv);
      }
    });
    ctx.parallel_for(ws.q.size(), [&](std::size_t i) {
      ctx.charge_read(ws.q, i);
      ctx.charge_atomic_aggregated();  // orphan-list tail counter
      ctx.charge_write(1);  // unaddressed: the append may reallocate
      ws.orphans.push_back(ws.q[i]);
    });
    if (!ws.q2.empty()) last = std::max(last, level + 1);
    ws.q.swap(ws.q2);
  }
}

/// Edge-parallel Phases 0 and A of a removal, fused into one arc sweep
/// per level l (plus a vertex scan while orphans are still being found):
///   detection  old arcs into level l mark the children of level l-1's
///              orphans and, as the survivor bit in `reset`, the children
///              of non-orphans; the scan then turns every marked child
///              without a survivor bit into an orphan;
///   relevel    an orphan not placed yet that neighbours a vertex of new
///              level l-1 is placed at l: the BFS continues into the
///              orphaned region, so no separate seed or relax sweeps;
///   sigma      level l-1, whose distances are final by now, folds
///              increments into sigma-hat the way Algorithm 4 does for
///              Case 2, extended to parent sets that changed: an orphan
///              sums its new parents from zero, any other vertex adds each
///              changed parent's increment, drops a parent that moved away
///              and is marked kDown when its sigma moves.
/// The arc sweep's first test reads the head's d_new, so its live arcs are
/// those into the heads at new level l - 1, at l while detecting, and at
/// infinity (orphans not placed yet, and vertices never reached).
/// Returns the deepest level that holds a touched vertex.
Dist edge_removal_sweeps(BlockContext& ctx, const CSRGraph& g,
                         const Rows& rows, GpuWorkspace& ws, VertexId u_low) {
  const auto src = g.arc_src();
  const auto dst = g.arc_dst();
  const auto num_arcs = static_cast<std::size_t>(g.num_arcs());
  const std::size_t n = rows.sigma.size();
  const auto d = rows.d;
  const auto lo = static_cast<std::size_t>(u_low);
  mark_orphan(ctx, ws, lo);
  bool detecting = true;  // level l-1 holds orphans
  Dist deepest = -1;
  for (Dist level = d[lo] + 1;; ++level) {
    bool placed = false;   // relevel placed an orphan at level l
    bool kept = false;     // detection marked a child that kept a parent
    bool changed = false;  // sigma moved at level l-1
    ws.live.clear();
    append_d_new_level(ws, d, level - 1, any_vertex);
    if (detecting) append_d_new_level(ws, d, level, any_vertex);
    append_d_new_level(ws, d, kInfDist, any_vertex);
    arcs_into(g, ws.live, ws);
    const auto live = detail::item_ranges<EdgeId>(ws.live_arcs);
    ctx.parallel_for_live(num_arcs, live, [&](std::size_t a) {
      ctx.charge_instr(2);
      const auto x = static_cast<std::size_t>(src[a]);
      const auto w = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      // Unaddressed: d_new of either end races the relevel stores of
      // sibling arcs, benignly - every winner stores `level`, and no test
      // below gives a different answer for infinity and `level`.
      ctx.charge_read(1);
      const Dist dw = ws.d_new[w];
      if (dw == level) {  // detection
        if (!detecting) return;
        ctx.charge_read(d, w);
        if (d[w] != level) return;  // an orphan placed here this sweep
        ctx.charge_read(d, x);
        if (d[x] + 1 != level) return;
        ctx.charge_read(ws.moved, x);
        // Unaddressed: arcs sharing a head store the same mark (benign).
        ctx.charge_write(1);
        if (ws.moved[x] != 0) {
          ws.t[w] = kDown;
        } else {
          ws.reset[w] = 1;
        }
        return;
      }
      if (dw == kInfDist) {  // relevel
        ctx.charge_read(ws.moved, w);
        if (ws.moved[w] == 0) return;  // unreachable before the removal
        ctx.charge_read(1);  // d_new[x], racing as above
        if (ws.d_new[x] + 1 != level) return;
        ctx.charge_write(1);  // d_new[w], racing as above
        ws.d_new[w] = level;
        placed = true;
        return;
      }
      if (dw + 1 != level) return;  // sigma of level l-1
      ctx.charge_read(1);  // d_new[x], racing as above
      ctx.charge_read(ws.moved, w);
      const bool new_parent = ws.d_new[x] + 1 == dw;
      if (ws.moved[w] != 0) {
        if (!new_parent) return;
        ctx.charge_read(ws.sigma_hat, x);
        ctx.charge_atomic(ws.sigma_hat, w);
        ws.sigma_hat[w] += ws.sigma_hat[x];
        return;
      }
      ctx.charge_read(d, x);
      const bool old_parent = d[x] + 1 == dw;
      if (!new_parent && !old_parent) return;
      // x sits at level l-2, settled by the previous sweep.
      ctx.charge_read(ws.t, x);
      if (ws.t[x] == kUntouched) return;  // unchanged parent, zero increment
      ctx.charge_read(ws.sigma_hat, x);
      ctx.charge_read(rows.sigma, x);
      const Sigma inc = (new_parent ? ws.sigma_hat[x] : 0.0) -
                        (old_parent ? rows.sigma[x] : 0.0);
      if (inc == 0.0) return;
      ctx.charge_atomic(ws.sigma_hat, w);
      ws.sigma_hat[w] += inc;
      // Unaddressed: arcs sharing a head store the same mark (benign).
      ctx.charge_write(1);
      ws.t[w] = kDown;
      changed = true;
    });
    if (detecting) {
      bool found = false;
      const auto live = detail::item_ranges(ws.levels.level(level));
      ctx.parallel_for_live(n, live, [&](std::size_t v) {
        ctx.charge_instr(1);
        ctx.charge_read(d, v);
        if (d[v] != level) return;
        ctx.charge_read(ws.reset, v);
        ctx.charge_read(ws.t, v);
        const bool survives = ws.reset[v] != 0;
        if (survives) {
          ctx.charge_write(ws.reset, v);
          ws.reset[v] = 0;
        }
        if (ws.t[v] == kUntouched) return;
        if (survives) {
          kept = true;  // lost an orphan parent: touched at `level`
          return;
        }
        mark_orphan(ctx, ws, v);
        found = true;
      });
      detecting = found;
    }
    // Sweeps go on while a level changes. An orphan still unplaced when
    // they stop is unreachable: a non-orphan neighbour sits at its old
    // level, which detection still covers, or one level deeper as one of
    // its kept children, which keeps the sweeps going.
    const bool touched = placed || kept;
    if (touched) deepest = std::max(deepest, level);
    if (changed) deepest = std::max(deepest, level - 1);
    if (!touched && !changed && !detecting) break;
  }
  return deepest;
}

// ---------------------------------------------------------------------------
// Case 3, node-parallel (generalized repair; DESIGN.md §7). With `removal`,
// Phase 0 replaces the single moved u_low and Phase A admits its pre-marked
// vertices level by level.
// ---------------------------------------------------------------------------

void node_case3(BlockContext& ctx, const CSRGraph& g, const Rows& rows,
                GpuWorkspace& ws, VertexId u_high, VertexId u_low,
                bool removal = false) {
  const auto d = rows.d;
  const auto lo = static_cast<std::size_t>(u_low);
  ws.q.clear();
  ws.q2.clear();
  ws.qq.clear();
  ws.moved_list.clear();

  // Pre-marked vertices of a removal, consumed in ascending level: the
  // orphans' other children (premarked) and the reachable orphans.
  std::size_t premarked_cursor = 0;
  std::size_t orphan_cursor = 0;
  const auto next_premarked_level = [&] {
    Dist next = kInfDist;
    if (premarked_cursor < ws.premarked.size()) {
      next = ws.d_new[static_cast<std::size_t>(
          ws.premarked[premarked_cursor])];
    }
    if (orphan_cursor < ws.orphans.size()) {
      next = std::min(next, ws.d_new[static_cast<std::size_t>(
                                ws.orphans[orphan_cursor])]);
    }
    return next;
  };
  const auto admit_premarked = [&](Dist level, std::vector<VertexId>& out) {
    const auto take = [&](const std::vector<VertexId>& list,
                          std::size_t& cursor) {
      const std::size_t begin = cursor;
      while (cursor < list.size() &&
             ws.d_new[static_cast<std::size_t>(list[cursor])] == level) {
        ++cursor;
      }
      if (cursor == begin) return;
      ctx.parallel_for(cursor - begin, [&](std::size_t i) {
        ctx.charge_read(list, begin + i);
        ctx.charge_atomic_aggregated();  // frontier tail counter
        ctx.charge_write(1);  // unaddressed: the append may reallocate
        out.push_back(list[begin + i]);
      });
    };
    take(ws.premarked, premarked_cursor);
    take(ws.orphans, orphan_cursor);
  };

  Dist level = d[static_cast<std::size_t>(u_high)] + 1;
  if (removal) {
    node_removal_phase0(ctx, g, rows, ws, u_low);
    level = next_premarked_level();
    ws.q.clear();
    admit_premarked(level, ws.q);
    ws.qq = ws.q;
  } else {
    ws.d_new[lo] = level;
    ws.t[lo] = kDown;
    ws.moved[lo] = 1;
    ws.moved_list.push_back(u_low);
    ws.q.push_back(u_low);
    ws.qq.push_back(u_low);
  }

  // Phase A: ascending levels; two sub-kernels per level.
  while (!ws.q.empty()) {
    observe_frontier(ws.q.size());
    // A1: recompute sigma-hat of frontier vertices from their new parents
    // (single writer per vertex: no atomics needed). Also classifies
    // RESET = moved or sigma changed.
    ctx.parallel_for(ws.q.size(), [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.q[i]);
      ctx.charge_read(ws.q, i);
      ctx.charge_read(1);  // row offset (no span here)
      Sigma sum = 0.0;
      for (VertexId xv : g.neighbors(static_cast<VertexId>(w))) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(ws.d_new, x);
        if (ws.d_new[x] == level - 1) {
          // Reads parents one level up; the writes below hit this level
          // only, so the addressed accesses stay disjoint.
          ctx.charge_read(ws.sigma_hat, x);
          sum += ws.sigma_hat[x];
        }
      }
      ws.sigma_hat[w] = sum;
      ctx.charge_read(ws.moved, w);
      ctx.charge_read(rows.sigma, w);
      ctx.charge_write(ws.sigma_hat, w);
      ctx.charge_write(ws.reset, w);
      ws.reset[w] = (ws.moved[w] != 0 || sum != rows.sigma[w]) ? 1 : 0;
    });

    // A2: changed vertices pull far neighbors closer and mark same-level+1
    // neighbors for sigma recomputation.
    ws.q2.clear();
    ctx.parallel_for(ws.q.size(), [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.q[i]);
      ctx.charge_read(ws.q, i);
      ctx.charge_read(ws.reset, w);
      if (ws.reset[w] == 0) return;
      // The pull accesses below (d_new/t/moved reads and writes) stay
      // unaddressed: two frontier vertices sharing a far neighbor race on
      // them, benignly - every winner stores the same pulled level, kDown,
      // and moved bit (paper SIII.A generalized to the repair pre-pass).
      // Queue appends may also reallocate their storage mid-round.
      for (VertexId xv : g.neighbors(static_cast<VertexId>(w))) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(2);
        ctx.charge_read(2);
        const Dist dx = ws.d_new[x];
        if (dx > level + 1) {
          ctx.charge_write(3);
          ctx.charge_atomic_aggregated();  // moved-list tail counter
          ctx.charge_write(1);
          ws.d_new[x] = level + 1;
          ws.t[x] = kDown;
          ws.moved[x] = 1;
          ws.moved_list.push_back(xv);
          ctx.charge_atomic_aggregated();  // Q2 tail counter
          ctx.charge_write(1);
          ws.q2.push_back(xv);
        } else if (dx == level + 1 && ws.t[x] == kUntouched) {
          ctx.charge_read(1);
          ctx.charge_write(1);
          ws.t[x] = kDown;
          ctx.charge_atomic_aggregated();
          ctx.charge_write(1);
          ws.q2.push_back(xv);
        }
      }
    });
    ++level;
    if (removal) {
      // A removal's frontier also admits the vertices Phase 0 pre-marked
      // at the new level, and jumps ahead to the next pre-marked level
      // when the marked frontier dies out.
      if (ws.q2.empty()) level = next_premarked_level();
      admit_premarked(level, ws.q2);
    }
    if (ws.q2.empty()) break;
    const std::size_t unique = sim::block_remove_duplicates(
        ctx, ws.q2, ws.q2.size(), ws.scratch, ws.flags);
    ws.q.assign(ws.q2.begin(),
                ws.q2.begin() + static_cast<std::ptrdiff_t>(unique));
    ctx.parallel_for(unique, [&](std::size_t i) {
      ctx.charge_read(ws.q, i);
      ctx.charge_atomic_aggregated();
      ctx.charge_write(2);  // unaddressed: QQ append may reallocate
      ws.qq.push_back(ws.q[i]);
    });
  }

  // CARRY vertices (touched, but distance and sigma unchanged) keep their
  // old dependency as the base for differential corrections.
  ctx.parallel_for(ws.qq.size(), [&](std::size_t i) {
    const auto w = static_cast<std::size_t>(ws.qq[i]);
    ctx.charge_read(ws.qq, i);
    ctx.charge_read(ws.reset, w);
    if (ws.reset[w] == 0) {
      ctx.charge_read(rows.delta, w);
      ctx.charge_write(ws.delta_hat, w);
      ws.delta_hat[w] = rows.delta[w];
    }
  });
  // Phase B pre-pass. A removal's moved vertices are orphans, whose old
  // parents are orphans too (reset, so rebuilt from scratch) - all but
  // u_high, whose vanished arc removal_prepass settles instead.
  if (removal) {
    removal_prepass(ctx, ws, rows, u_high, u_low, true);
  } else {
    // Phase B pre-pass: moved vertices abandoned old parents; subtract their
    // stale contribution from CARRY parents that are no longer parents.
    const std::size_t num_moved = ws.moved_list.size();
    ctx.parallel_for(num_moved, [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.moved_list[i]);
      ctx.charge_read(ws.moved_list, i);
      ctx.charge_read(d, w);
      const Dist dw_old = d[w];
      if (dw_old == kInfDist) return;  // previously unreachable: no parents
      ctx.charge_read(rows.delta, w);
      ctx.charge_read(rows.sigma, w);
      const double coeff_old = (1.0 + rows.delta[w]) / rows.sigma[w];
      for (VertexId xv : g.neighbors(static_cast<VertexId>(w))) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(3);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(d, x);
        ctx.charge_read(ws.d_new, x);
        if (d[x] + 1 != dw_old) continue;            // not an old parent
        if (ws.d_new[x] + 1 == ws.d_new[w]) continue;  // still a parent
        ctx.charge_atomic(ws.t, x);  // CAS on t[x]
        if (ws.t[x] == kUntouched) {
          ws.t[x] = kUp;  // the store is part of the CAS, charged above
          ctx.charge_read(rows.delta, x);
          // Unaddressed: this CAS-winner seeding store genuinely races the
          // concurrent atomic subtractions on delta_hat[x] below on real
          // hardware - the untracked-access caveat documented in DESIGN.md.
          // A CUDA port must seed delta_hat before the pre-pass instead.
          ctx.charge_write(1);
          ws.delta_hat[x] = rows.delta[x];
          ctx.charge_atomic_aggregated();
          ctx.charge_write(1);  // unaddressed: QQ append may reallocate
          ws.qq.push_back(xv);
        }
        ctx.charge_read(ws.reset, x);
        if (ws.reset[x] == 0) {
          ctx.charge_read(rows.sigma, x);
          ctx.charge_atomic(ws.delta_hat, x);
          ws.delta_hat[x] -= rows.sigma[x] * coeff_old;
        }
      }
    });
  }

  // Phase B: descending dependency repair over the multi-level queue.
  Dist max_depth = 0;
  {
    std::vector<Dist> levels(ws.qq.size());
    for (std::size_t i = 0; i < ws.qq.size(); ++i) {
      levels[i] = ws.d_new[static_cast<std::size_t>(ws.qq[i])];
    }
    max_depth = sim::block_reduce_max(ctx, levels, levels.size(), 0);
  }
  for (Dist dep = max_depth; dep >= 1; --dep) {
    const std::size_t qq_len = ws.qq.size();
    ctx.parallel_for(qq_len, [&](std::size_t i) {
      const auto w = static_cast<std::size_t>(ws.qq[i]);
      // Unaddressed: QQ entry - appends below may reallocate the storage.
      ctx.charge_read(1);
      ctx.charge_read(ws.d_new, w);
      if (ws.d_new[w] != dep) return;
      ctx.charge_read(ws.delta_hat, w);
      ctx.charge_read(ws.sigma_hat, w);
      ctx.charge_read(rows.delta, w);
      ctx.charge_read(rows.sigma, w);
      const double coeff_new = (1.0 + ws.delta_hat[w]) / ws.sigma_hat[w];
      const bool w_had_old = d[w] != kInfDist;
      const double coeff_old =
          w_had_old ? (1.0 + rows.delta[w]) / rows.sigma[w] : 0.0;
      for (VertexId xv : g.neighbors(static_cast<VertexId>(w))) {
        const auto x = static_cast<std::size_t>(xv);
        ctx.charge_instr(2);
        ctx.charge_read(1);  // adjacency entry (no span here)
        ctx.charge_read(ws.d_new, x);
        if (ws.d_new[x] + 1 != ws.d_new[w]) continue;
        ctx.charge_atomic(ws.t, x);  // CAS on t[x]
        double dsv = 0.0;
        if (ws.t[x] == kUntouched) {
          ws.t[x] = kUp;  // the store is part of the CAS, charged above
          ctx.charge_read(rows.delta, x);
          dsv += rows.delta[x];
          ctx.charge_atomic_aggregated();
          ctx.charge_write(1);  // unaddressed: QQ may reallocate
          ws.qq.push_back(xv);
        }
        ctx.charge_read(ws.sigma_hat, x);
        ctx.charge_read(rows.d, x);
        dsv += ws.sigma_hat[x] * coeff_new;
        ctx.charge_read(ws.reset, x);
        ctx.charge_read(rows.d, w);
        if (ws.reset[x] == 0 && w_had_old && d[x] + 1 == d[w] &&
            !(x == static_cast<std::size_t>(u_high) && w == lo)) {
          ctx.charge_read(rows.sigma, x);
          dsv -= rows.sigma[x] * coeff_old;
        }
        ctx.charge_atomic(ws.delta_hat, x);
        ws.delta_hat[x] += dsv;
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Case 3, edge-parallel.
// ---------------------------------------------------------------------------

void edge_case3(BlockContext& ctx, const CSRGraph& g, const Rows& rows,
                GpuWorkspace& ws, VertexId u_high, VertexId u_low,
                bool removal = false) {
  const auto src = g.arc_src();
  const auto dst = g.arc_dst();
  const auto num_arcs = static_cast<std::size_t>(g.num_arcs());
  const std::size_t n = rows.sigma.size();
  const auto d = rows.d;
  const auto lo = static_cast<std::size_t>(u_low);
  ws.moved_list.clear();
  ws.levels.build(d);
  const auto touched = [&](VertexId v) {
    return ws.t[static_cast<std::size_t>(v)] != kUntouched;
  };

  Dist max_depth = 0;
  if (removal) {
    max_depth = std::max(edge_removal_sweeps(ctx, g, rows, ws, u_low),
                         d[static_cast<std::size_t>(u_high)]);
  }

  const Dist level0 = d[static_cast<std::size_t>(u_high)] + 1;
  Dist level = level0;
  bool progress = !removal;
  if (!removal) {
    max_depth = level0;
    ws.d_new[lo] = level0;
    ws.t[lo] = kDown;
    ws.moved[lo] = 1;
    ws.moved_list.push_back(u_low);
  }
  while (progress) {
    progress = false;
    // The touched vertices at this level: the live items of E1 and E3a,
    // the heads of E2's live arcs and the rows of E3b's.
    ws.live.clear();
    append_d_new_level(ws, d, level, touched);
    const std::span<const VertexId> frontier = ws.live;
    const auto frontier_items = detail::item_ranges(frontier);
    // E1: zero sigma-hat of touched vertices at this level.
    ctx.parallel_for_live(n, frontier_items, [&](std::size_t v) {
      ctx.charge_instr(1);
      ctx.charge_read(ws.t, v);
      ctx.charge_read(ws.d_new, v);
      if (ws.t[v] != kUntouched && ws.d_new[v] == level) {
        ctx.charge_write(ws.sigma_hat, v);
        ws.sigma_hat[v] = 0.0;
      }
    });
    // E2: accumulate sigma from parents over the whole arc list.
    arcs_into(g, frontier, ws);
    const auto into_frontier = detail::item_ranges<EdgeId>(ws.live_arcs);
    ctx.parallel_for_live(num_arcs, into_frontier, [&](std::size_t a) {
      ctx.charge_instr(2);
      const auto x = static_cast<std::size_t>(src[a]);
      const auto w = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(ws.t, w);
      ctx.charge_read(ws.d_new, w);
      if (ws.t[w] == kUntouched || ws.d_new[w] != level) return;
      if (ws.d_new[x] != level - 1) return;
      ctx.charge_read(ws.sigma_hat, x);
      ctx.charge_atomic(ws.sigma_hat, w);
      ws.sigma_hat[w] += ws.sigma_hat[x];
    });
    // E3a: classify RESET at this level.
    ctx.parallel_for_live(n, frontier_items, [&](std::size_t v) {
      ctx.charge_instr(1);
      ctx.charge_read(ws.t, v);
      ctx.charge_read(ws.d_new, v);
      if (ws.t[v] == kUntouched || ws.d_new[v] != level) return;
      ctx.charge_read(ws.moved, v);
      ctx.charge_read(ws.sigma_hat, v);
      ctx.charge_read(rows.sigma, v);
      ctx.charge_write(ws.reset, v);
      ws.reset[v] =
          (ws.moved[v] != 0 || ws.sigma_hat[v] != rows.sigma[v]) ? 1 : 0;
    });
    // E3b: changed vertices pull/mark neighbors at level+1. The t and
    // d_new accesses stay unaddressed here: every arc reads t/d_new of its
    // endpoints while sibling arcs pull shared far neighbors - the benign
    // same-value races of the repair pre-pass (paper SIII.A generalized);
    // the moved-list append may also reallocate its storage mid-round.
    const auto frontier_rows = detail::row_ranges(g, frontier);
    ctx.parallel_for_live(num_arcs, frontier_rows, [&](std::size_t a) {
      ctx.charge_instr(2);
      const auto w = static_cast<std::size_t>(src[a]);
      const auto x = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(2);  // t[w] + d_new[w], racing the pulls below
      if (ws.t[w] == kUntouched || ws.d_new[w] != level) return;
      ctx.charge_read(ws.reset, w);
      if (ws.reset[w] == 0) return;
      ctx.charge_read(1);  // d_new[x], racing the pulls below
      const Dist dx = ws.d_new[x];
      if (dx > level + 1) {
        ctx.charge_write(3);  // d_new[x] + t[x] + moved[x], benign race
        ctx.charge_atomic_aggregated();
        ctx.charge_write(1);  // unaddressed: moved-list may reallocate
        ws.d_new[x] = level + 1;
        ws.t[x] = kDown;
        ws.moved[x] = 1;
        ws.moved_list.push_back(dst[a]);
        progress = true;
      } else if (dx == level + 1 && ws.t[x] == kUntouched) {
        ctx.charge_write(1);  // t[x], benign race
        ws.t[x] = kDown;
        progress = true;
      }
    });
    if (progress) max_depth = level + 1;
    ++level;
  }

  // CARRY bases for phase-A touched vertices. A removal classifies RESET
  // here, once, instead of per level. Its live items are the vertices
  // phase A marked kDown: the moved ones, and the others at their levels
  // in [level0, max_depth].
  ws.live.clear();
  for (Dist l = level0; l <= max_depth; ++l) {
    for (const VertexId v : ws.levels.level(l)) {
      const auto i = static_cast<std::size_t>(v);
      if (ws.moved[i] == 0 && ws.t[i] == kDown) ws.live.push_back(v);
    }
  }
  ws.live.insert(ws.live.end(), ws.moved_list.begin(), ws.moved_list.end());
  std::sort(ws.live.begin(), ws.live.end());
  const auto marked = detail::item_ranges<VertexId>(ws.live);
  ctx.parallel_for_live(n, marked, [&](std::size_t v) {
    ctx.charge_instr(1);
    ctx.charge_read(ws.t, v);
    if (removal && ws.t[v] == kDown) {
      ctx.charge_read(ws.moved, v);
      ctx.charge_read(ws.sigma_hat, v);
      ctx.charge_read(rows.sigma, v);
      ctx.charge_write(ws.reset, v);
      ws.reset[v] =
          (ws.moved[v] != 0 || ws.sigma_hat[v] != rows.sigma[v]) ? 1 : 0;
    }
    ctx.charge_read(ws.reset, v);
    if (ws.t[v] == kDown && ws.reset[v] == 0) {
      ctx.charge_read(rows.delta, v);
      ctx.charge_write(ws.delta_hat, v);
      ws.delta_hat[v] = rows.delta[v];
    }
  });
  // Pre-pass; a removal needs only u_high's (see node_case3).
  if (removal) {
    removal_prepass(ctx, ws, rows, u_high, u_low, false);
  } else {
    // Pre-pass over arcs: (w moved, x old-parent no longer parent).
    ws.live.assign(ws.moved_list.begin(), ws.moved_list.end());
    std::sort(ws.live.begin(), ws.live.end());
    const auto moved_rows = detail::row_ranges(g, ws.live);
    ctx.parallel_for_live(num_arcs, moved_rows, [&](std::size_t a) {
      ctx.charge_instr(3);
      const auto w = static_cast<std::size_t>(src[a]);
      const auto x = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(ws.moved, w);
      if (ws.moved[w] == 0) return;
      ctx.charge_read(d, w);
      ctx.charge_read(d, x);
      const Dist dw_old = d[w];
      if (dw_old == kInfDist) return;
      if (d[x] + 1 != dw_old) return;
      ctx.charge_read(ws.d_new, x);
      ctx.charge_read(ws.d_new, w);
      if (ws.d_new[x] + 1 == ws.d_new[w]) return;
      ctx.charge_atomic(ws.t, x);  // CAS on t[x]
      double dsv = 0.0;
      if (ws.t[x] == kUntouched) {
        ws.t[x] = kUp;  // the store is part of the CAS, charged above
        ctx.charge_read(rows.delta, x);
        dsv += rows.delta[x];
      }
      ctx.charge_read(ws.reset, x);
      if (ws.reset[x] == 0) {
        ctx.charge_read(rows.sigma, x);
        ctx.charge_read(rows.sigma, w);
        ctx.charge_read(rows.delta, w);
        dsv -= rows.sigma[x] / rows.sigma[w] * (1.0 + rows.delta[w]);
      }
      if (dsv != 0.0) {
        ctx.charge_atomic(ws.delta_hat, x);
        ws.delta_hat[x] += dsv;
      }
      // Track the deepest level an up-marked parent lives at.
      if (ws.d_new[x] > max_depth) max_depth = ws.d_new[x];
    });
  }

  // Descending dependency repair over the whole arc list per level.
  for (Dist dep = max_depth; dep >= 1; --dep) {
    ws.live.clear();
    append_d_new_level(ws, d, dep, any_vertex);
    const auto live = detail::row_ranges(g, ws.live);
    ctx.parallel_for_live(num_arcs, live, [&](std::size_t a) {
      ctx.charge_instr(2);
      const auto c = static_cast<std::size_t>(src[a]);
      const auto p = static_cast<std::size_t>(dst[a]);
      ctx.charge_read(src, a);
      ctx.charge_read(dst, a);
      ctx.charge_read(ws.d_new, c);
      if (ws.d_new[c] != dep) return;
      ctx.charge_read(ws.t, c);
      if (ws.t[c] == kUntouched) return;
      ctx.charge_read(ws.d_new, p);
      if (ws.d_new[p] + 1 != ws.d_new[c]) return;
      ctx.charge_atomic(ws.t, p);  // CAS on t[p]
      double dsv = 0.0;
      if (ws.t[p] == kUntouched) {
        ws.t[p] = kUp;  // the store is part of the CAS, charged above
        ctx.charge_read(rows.delta, p);
        dsv += rows.delta[p];
      }
      ctx.charge_read(ws.sigma_hat, p);
      ctx.charge_read(ws.sigma_hat, c);
      ctx.charge_read(ws.delta_hat, c);
      ctx.charge_read(d, c);
      dsv += ws.sigma_hat[p] / ws.sigma_hat[c] * (1.0 + ws.delta_hat[c]);
      const bool c_had_old = d[c] != kInfDist;
      ctx.charge_read(ws.reset, p);
      ctx.charge_read(d, p);
      ctx.charge_read(d, c);
      if (ws.reset[p] == 0 && c_had_old && d[p] + 1 == d[c] &&
          !(p == static_cast<std::size_t>(u_high) && c == lo)) {
        ctx.charge_read(rows.sigma, p);
        ctx.charge_read(rows.sigma, c);
        ctx.charge_read(rows.delta, c);
        dsv -= rows.sigma[p] / rows.sigma[c] * (1.0 + rows.delta[c]);
      }
      ctx.charge_atomic(ws.delta_hat, p);
      ws.delta_hat[p] += dsv;
    });
  }
}

/// Decremental pre-pass shared by both mappings: u_high lost u_low as a
/// child and the removed edge is invisible to the neighbor scans, so its
/// stale contribution is subtracted explicitly, with u_high brushed "up".
void removal_prepass(BlockContext& ctx, GpuWorkspace& ws, const Rows& rows,
                     VertexId u_high, VertexId u_low, bool node_mode) {
  const auto hi = static_cast<std::size_t>(u_high);
  const auto lo = static_cast<std::size_t>(u_low);
  ctx.charge_atomic(ws.t, hi);  // CAS on t[u_high]
  if (ws.t[hi] == kUntouched) {
    ws.t[hi] = kUp;
    ctx.charge_read(rows.delta, hi);
    ctx.charge_write(ws.delta_hat, hi);
    ws.delta_hat[hi] = rows.delta[hi];
    if (node_mode) {
      ctx.charge_atomic_aggregated();  // QQ tail counter
      ctx.charge_write(1);  // unaddressed: QQ append may reallocate
      ws.qq.push_back(u_high);
    }
  }
  ctx.charge_read(rows.sigma, hi);
  ctx.charge_read(rows.sigma, lo);
  ctx.charge_read(rows.delta, lo);
  ctx.charge_read(ws.delta_hat, hi);
  ctx.charge_atomic(ws.delta_hat, hi);
  ws.delta_hat[hi] -=
      rows.sigma[hi] / rows.sigma[lo] * (1.0 + rows.delta[lo]);
}

}  // namespace

namespace detail {

SourceUpdateOutcome gpu_source_update(sim::BlockContext& ctx,
                                      GpuWorkspace& ws, Parallelism mode,
                                      bool removal, const CSRGraph& g,
                                      VertexId s, std::span<Dist> d,
                                      std::span<Sigma> sigma,
                                      std::span<double> delta,
                                      std::span<double> bc, VertexId u,
                                      VertexId v) {
  Rows rows{d, sigma, delta};
  ctx.charge_read(rows.d, static_cast<std::size_t>(u));
  ctx.charge_read(rows.d, static_cast<std::size_t>(v));
  ctx.charge_instr(4);
  const CaseInfo info =
      removal ? classify_removal(g, rows.d, u, v,
                                 [&](VertexId x) {
                                   ctx.charge_read(1);  // adjacency entry
                                   ctx.charge_read(
                                       rows.d, static_cast<std::size_t>(x));
                                   ctx.charge_instr(1);
                                 })
              : classify_insertion(rows.d, u, v);
  SourceUpdateOutcome outcome;
  outcome.update_case = info.update_case;
  if (info.update_case == UpdateCase::kNoWork) {
    record_source_update_metrics(outcome, g.num_vertices());
    return outcome;
  }
  // The surviving-parent scan's read of d[u_low]. Sequential charges
  // commute, so charging it after the scan models the same cost.
  if (removal) ctx.charge_read(rows.d, static_cast<std::size_t>(info.u_low));
  const bool case3 = info.update_case == UpdateCase::kFar;
  init_kernel(ctx, ws, rows, info.u_high, info.u_low, case3,
              removal ? -1.0 : 1.0);
  if (!case3) {
    if (mode == Parallelism::kEdge) {
      edge_case2(ctx, g, rows, ws, info.u_high, info.u_low, removal);
    } else {
      node_case2(ctx, g, rows, ws, info.u_high, info.u_low, removal);
    }
  } else {
    // A removal's Case 3 is the decremental repair: Phase 0 relevels the
    // orphaned region, then the generalized repair runs.
    if (mode == Parallelism::kEdge) {
      edge_case3(ctx, g, rows, ws, info.u_high, info.u_low, removal);
    } else {
      node_case3(ctx, g, rows, ws, info.u_high, info.u_low, removal);
    }
  }
  outcome.touched = finalize_kernel(ctx, ws, rows, bc, s, case3);
  record_source_update_metrics(outcome, g.num_vertices());
  return outcome;
}

void gpu_recompute_source(sim::BlockContext& ctx, GpuWorkspace& ws,
                          Parallelism mode, const CSRGraph& g, VertexId s,
                          std::span<Dist> d, std::span<Sigma> sigma,
                          std::span<double> delta, std::span<double> bc,
                          std::vector<VertexId>& order,
                          std::vector<std::size_t>& level_offsets) {
  const std::size_t n = delta.size();
  ctx.parallel_for(n, [&](std::size_t w) {
    ctx.charge_read(delta, w);
    ctx.charge_write(ws.delta_hat, w);
    ws.delta_hat[w] = delta[w];  // save old dependencies
  });
  static_source(ctx, mode, g, s, d, sigma, delta, {}, order, level_offsets);
  ctx.parallel_for(n, [&](std::size_t w) {
    ctx.charge_instr(2);
    ctx.charge_read(delta, w);
    ctx.charge_read(ws.delta_hat, w);
    if (w == static_cast<std::size_t>(s)) return;
    if (delta[w] != ws.delta_hat[w]) {
      ctx.charge_atomic(bc, w);
      bc[w] += delta[w] - ws.delta_hat[w];
    }
  });
}

}  // namespace detail

void LevelIndex::build(std::span<const Dist> d) {
  Dist deepest = -1;
  for (const Dist x : d) {
    if (x != kInfDist) deepest = std::max(deepest, x);
  }
  // Buckets 0..deepest hold the levels, bucket deepest + 1 the unreachable.
  const auto bucket = [&](Dist x) {
    return static_cast<std::size_t>(x == kInfDist ? deepest + 1 : x);
  };
  starts.assign(static_cast<std::size_t>(deepest) + 3, 0);
  for (const Dist x : d) ++starts[bucket(x) + 1];
  for (std::size_t b = 1; b < starts.size(); ++b) starts[b] += starts[b - 1];
  vertices.resize(d.size());
  for (std::size_t v = 0; v < d.size(); ++v) {
    vertices[static_cast<std::size_t>(starts[bucket(d[v])]++)] =
        static_cast<VertexId>(v);
  }
  // Each bucket's cursor now sits at the next one's start: shift back.
  for (std::size_t b = starts.size() - 1; b > 0; --b) starts[b] = starts[b - 1];
  starts[0] = 0;
}

std::span<const VertexId> LevelIndex::level(Dist l) const {
  if (starts.size() < 2) return {};
  const std::size_t unreachable = starts.size() - 2;
  std::size_t b = unreachable;
  if (l != kInfDist) {
    if (l < 0 || static_cast<std::size_t>(l) >= unreachable) return {};
    b = static_cast<std::size_t>(l);
  }
  return std::span<const VertexId>(vertices).subspan(
      static_cast<std::size_t>(starts[b]),
      static_cast<std::size_t>(starts[b + 1] - starts[b]));
}

void ArcBitmap::resize(std::size_t arcs) {
  words.resize((arcs + 63) / 64);
  summary.resize((words.size() + 63) / 64);
}

void ArcBitmap::insert(std::size_t arc) {
  words[arc / 64] |= std::uint64_t{1} << (arc % 64);
  summary[arc / 4096] |= std::uint64_t{1} << (arc / 64 % 64);
}

void ArcBitmap::drain(std::vector<EdgeId>& out) {
  for (std::size_t s = 0; s < summary.size(); ++s) {
    for (std::uint64_t used = summary[s]; used != 0; used &= used - 1) {
      const std::size_t w = s * 64 + static_cast<std::size_t>(
                                         std::countr_zero(used));
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        out.push_back(static_cast<EdgeId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
      words[w] = 0;
    }
    summary[s] = 0;
  }
}

void GpuWorkspace::ensure(VertexId n) {
  const auto size = static_cast<std::size_t>(n);
  if (t.size() >= size) return;
  t.assign(size, 0);
  moved.assign(size, 0);
  reset.assign(size, 0);
  sigma_hat.assign(size, 0.0);
  delta_hat.assign(size, 0.0);
  d_new.assign(size, kInfDist);
}

namespace {

/// Greedy LPT: heaviest job first, each to the least-loaded device (ties
/// toward the lowest device id). Equal (or no) weights degrade to
/// round-robin.
std::vector<int> lpt_assign(std::span<const std::int64_t> weights, int k,
                            int num_devices) {
  const auto weight = [&](int si) {
    return weights.empty() ? 0 : weights[static_cast<std::size_t>(si)];
  };
  std::vector<int> order(static_cast<std::size_t>(k));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return weight(a) > weight(b); });
  std::vector<int> device(static_cast<std::size_t>(k), 0);
  std::vector<std::int64_t> load(static_cast<std::size_t>(num_devices), 0);
  for (int si : order) {
    const auto target = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    device[static_cast<std::size_t>(si)] = static_cast<int>(target);
    // Weightless jobs still occupy a queue slot; count them as 1 so the
    // first launch (no history) spreads sources instead of piling them
    // onto device 0.
    load[target] += std::max<std::int64_t>(weight(si), 1);
  }
  return device;
}

std::vector<int> round_robin_assign(int k, int num_devices) {
  std::vector<int> device(static_cast<std::size_t>(k));
  for (int si = 0; si < k; ++si) {
    device[static_cast<std::size_t>(si)] = si % num_devices;
  }
  return device;
}

/// Predicted relative cost of one source's single-edge update, readable
/// from the store's dist row before launching (the same host-side
/// information a real multi-GPU driver has): same-level edges are
/// classification-only, adjacent ones pay for their touched subtree, and
/// distance-changing ones run the Case 3 repair - the heavy tail LPT must
/// spread. Same scale as batch_job_weight. An existing edge's endpoints
/// differ by at most one level, so removals classify to kNoWork or
/// kAdjacent only; an adjacent removal can escalate to the distance-growing
/// Case 3 repair (no surviving parent), so it gets the heavy weight.
std::int64_t update_job_weight(std::span<const Dist> dist, VertexId u,
                               VertexId v, bool removal) {
  switch (classify_insertion(dist, u, v).update_case) {
    case UpdateCase::kNoWork:
      return 0;
    case UpdateCase::kAdjacent:
      return removal ? 4 : 1;
    case UpdateCase::kFar:
      return 4;
  }
  return 0;
}

}  // namespace

const char* to_string(ShardPolicy policy) {
  return policy == ShardPolicy::kRoundRobin ? "round-robin" : "lpt";
}

DynamicGpuBc::DynamicGpuBc(sim::DeviceSpec spec, Parallelism mode,
                           sim::CostModel cost, bool track_atomic_conflicts)
    : mode_(mode) {
  device_.emplace(std::move(spec), cost, track_atomic_conflicts);
}

DynamicGpuBc::DynamicGpuBc(int num_devices, sim::DeviceSpec spec,
                           Parallelism mode, sim::CostModel cost,
                           bool track_atomic_conflicts,
                           ShardPolicy shard_policy)
    : mode_(mode), shard_policy_(shard_policy) {
  group_.emplace(num_devices, std::move(spec), cost, track_atomic_conflicts);
}

const sim::DeviceSpec& DynamicGpuBc::spec() const {
  return device_ ? device_->spec() : group_->spec();
}

int DynamicGpuBc::num_devices() const {
  return device_ ? 1 : group_->num_devices();
}

std::vector<sim::Device*> DynamicGpuBc::devices() {
  if (device_) return {&*device_};
  std::vector<sim::Device*> devs;
  for (int d = 0; d < group_->num_devices(); ++d) {
    devs.push_back(&group_->device(d));
  }
  return devs;
}

std::vector<int> DynamicGpuBc::shard_sources(int k) const {
  if (shard_policy_ == ShardPolicy::kRoundRobin) {
    return round_robin_assign(k, num_devices());
  }
  const bool history = last_cycles_.size() == static_cast<std::size_t>(k);
  return lpt_assign(history ? std::span<const std::int64_t>(last_cycles_)
                            : std::span<const std::int64_t>(),
                    k, num_devices());
}

void DynamicGpuBc::remember_weights(const sim::GroupLaunchResult& result) {
  last_cycles_.resize(result.placements.size());
  for (std::size_t j = 0; j < result.placements.size(); ++j) {
    const auto& p = result.placements[j];
    last_cycles_[j] = std::llround(p.end_cycles - p.start_cycles);
  }
}

void DynamicGpuBc::launch(SourceLaunchKind kind, const PlannedLaunch& plan,
                          int k, const Weigh& weigh, const SourceJob& job,
                          GpuLaunch& out, int num_blocks) {
  const bool batch = kind == SourceLaunchKind::kBatch;
  const auto predicted = [&] {
    std::vector<std::int64_t> weights(static_cast<std::size_t>(k));
    for (int si = 0; si < k; ++si) {
      weights[static_cast<std::size_t>(si)] = weigh(si);
    }
    return weights;
  };
  if (device_ && !batch) {
    if (num_blocks <= 0) num_blocks = device_->spec().num_sms;
    out.stats = device_->launch(
        num_blocks,
        [&, num_blocks](BlockContext& ctx) {
          for (int si = ctx.block_id(); si < k; si += num_blocks) {
            job(ctx, si);
          }
        },
        plan.name());
    return;
  }
  if (device_) {
    // Queue order: provisional batch weight per source, heaviest first
    // (the host-side sort a driver performs before enqueueing jobs; it
    // changes only the schedule, never the per-source results). The policy
    // decides per-job modes but never the queue order: job order is the
    // order BC deltas fold in, so reordering would perturb the float sums
    // the forced modes must reproduce bit-identically - and the
    // classification-based weight schedules at least as well as the cycle
    // estimate.
    const std::vector<std::int64_t> weights = predicted();
    std::vector<int> order(static_cast<std::size_t>(k));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return weights[static_cast<std::size_t>(a)] >
             weights[static_cast<std::size_t>(b)];
    });
    out.stats = device_->launch_queue(
        k,
        [&](BlockContext& ctx, int j) {
          job(ctx, order[static_cast<std::size_t>(j)]);
        },
        nullptr, plan.name());
    return;
  }

  // On a group, LPT shards and orders the queues by predicted cost, and
  // batches order them by it under either policy. The adaptive policy's
  // per-job cycle estimates beat the host-side prediction (they already
  // reflect this launch's mode decisions), which beats the previous
  // launch's cycles: single-edge updates and batches carry an edge-aware
  // prediction, and the heavy tail moves with the edge.
  const bool lpt = shard_policy_ == ShardPolicy::kLptTouched;
  std::vector<std::int64_t> weights;
  if (lpt || batch) {
    if (plan.adaptive()) {
      weights = plan.planned_weights();
    } else if (weigh) {
      weights = predicted();
    } else if (last_cycles_.size() == static_cast<std::size_t>(k)) {
      weights = last_cycles_;
    }
  }
  const std::vector<int> shard = lpt ? lpt_assign(weights, k, num_devices())
                                     : round_robin_assign(k, num_devices());
  out.group = group_->launch_sharded(k, shard, weights, job, nullptr,
                                     plan.name());
  out.stats = out.group.group;
  remember_weights(out.group);
}

sim::KernelStats DynamicGpuBc::compute(const CSRGraph& g, BcStore& store,
                                       int num_blocks) {
  std::fill(store.bc().begin(), store.bc().end(), 0.0);
  PlannedLaunch plan(SourceLaunchKind::kStatic, policy_, mode_,
                     [&](ParallelismPolicy& p) {
                       return p.plan_static(g, store);
                     });
  std::vector<VertexId> order;
  std::vector<std::size_t> level_offsets;
  GpuLaunch out;
  launch(
      SourceLaunchKind::kStatic, plan, store.num_sources(), /*weigh=*/{},
      [&](BlockContext& ctx, int si) {
        plan.run(ctx, si, [&](Parallelism m) {
          detail::static_source(
              ctx, m, g, store.sources()[static_cast<std::size_t>(si)],
              store.dist_row(si), store.sigma_row(si), store.delta_row(si),
              store.bc(), order, level_offsets);
        });
      },
      out, num_blocks);
  plan.feedback();
  return out.stats;
}

GpuUpdateResult DynamicGpuBc::insert_edge_update(const CSRGraph& g,
                                                 BcStore& store, VertexId u,
                                                 VertexId v) {
  return edge_update(SourceLaunchKind::kInsert, g, store, u, v);
}

GpuUpdateResult DynamicGpuBc::remove_edge_update(const CSRGraph& g,
                                                 BcStore& store, VertexId u,
                                                 VertexId v) {
  return edge_update(SourceLaunchKind::kRemove, g, store, u, v);
}

GpuUpdateResult DynamicGpuBc::edge_update(SourceLaunchKind kind,
                                          const CSRGraph& g, BcStore& store,
                                          VertexId u, VertexId v) {
  const bool removal = kind == SourceLaunchKind::kRemove;
  const int k = store.num_sources();
  GpuUpdateResult result;
  result.outcomes.resize(static_cast<std::size_t>(k));
  ws_.ensure(g.num_vertices());
  PlannedLaunch plan(kind, policy_, mode_, [&](ParallelismPolicy& p) {
    return removal ? p.plan_remove(g, store, u, v)
                   : p.plan_insert(g, store, u, v);
  });
  launch(
      kind, plan, k,
      [&](int si) {
        return update_job_weight(store.dist_row(si), u, v, removal);
      },
      [&](BlockContext& ctx, int si) {
        plan.run(ctx, si, [&](Parallelism m) {
          result.outcomes[static_cast<std::size_t>(si)] =
              detail::gpu_source_update(
                  ctx, ws_, m, removal, g,
                  store.sources()[static_cast<std::size_t>(si)],
                  store.dist_row(si), store.sigma_row(si),
                  store.delta_row(si), store.bc(), u, v);
        });
      },
      result);
  plan.feedback(result.outcomes, &SourceUpdateOutcome::touched);
  return result;
}

GpuBatchResult DynamicGpuBc::insert_edge_batch(const BatchSnapshots& batch,
                                               BcStore& store,
                                               double recompute_threshold) {
  const int k = store.num_sources();
  GpuBatchResult result;
  result.outcomes.resize(static_cast<std::size_t>(k));
  if (batch.empty() || k == 0) return result;
  ws_.ensure(batch.final_graph().num_vertices());
  PlannedLaunch plan(SourceLaunchKind::kBatch, policy_, mode_,
                     [&](ParallelismPolicy& p) {
                       return p.plan_batch(batch.final_graph(), store, batch);
                     });
  std::vector<VertexId> bfs_order;
  std::vector<std::size_t> level_offsets;
  launch(
      SourceLaunchKind::kBatch, plan, k,
      [&](int si) {
        return detail::batch_job_weight(store.dist_row(si), batch);
      },
      [&](BlockContext& ctx, int si) {
        plan.run(ctx, si, [&](Parallelism m) {
          result.outcomes[static_cast<std::size_t>(si)] =
              detail::gpu_source_batch(ctx, ws_, m, batch, recompute_threshold,
                                       store, si, bfs_order, level_offsets);
        });
      },
      result);
  plan.feedback(result.outcomes, &SourceBatchOutcome::touched_total);
  return result;
}

}  // namespace bcdyn
