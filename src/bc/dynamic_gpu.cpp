#include "bc/dynamic_gpu.hpp"

#include <algorithm>

#include "bc/adaptive_policy.hpp"
#include "bc/static_kernels.hpp"
#include "gpusim/primitives.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/atomic_double.hpp"

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

/// Algorithm 3: parallel initialization of the block-local update state.
/// `case3` additionally snapshots distances and clears the moved/reset maps.
/// `sign` is +1 for insertions (u_low gains u_high's paths) and -1 for
/// removals (it loses them).
void init_kernel(BlockContext& ctx, GpuWorkspace& ws, const Rows& rows,
                 VertexId u_high, VertexId u_low, bool case3,
                 double sign = 1.0) {
  const std::size_t n = rows.sigma.size();
  ctx.parallel_for(n, [&](std::size_t v) {
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
      ws.t[v] = kUntouched;
      ws.sigma_hat[v] = rows.sigma[v];
    }
    ws.delta_hat[v] = 0.0;
    if (case3) {
      ctx.charge_read(rows.d, v);
      ctx.charge_write(ws.d_new, v);
      ctx.charge_write(ws.moved, v);
      ctx.charge_write(ws.reset, v);
      ws.d_new[v] = rows.d[v];
      ws.moved[v] = 0;
      ws.reset[v] = 0;
    }
  });
}

/// Algorithm 8: atomically fold BC deltas into the shared scores and copy
/// the hatted values back into the per-source rows. Returns |touched|.
VertexId finalize_kernel(BlockContext& ctx, GpuWorkspace& ws,
                         const Rows& rows, std::span<double> bc, VertexId s,
                         bool case3) {
  const std::size_t n = rows.sigma.size();
  VertexId touched = 0;
  ctx.parallel_for(n, [&](std::size_t v) {
    ctx.charge_instr(2);
    ctx.charge_read(ws.sigma_hat, v);
    ctx.charge_read(ws.t, v);
    ctx.charge_write(rows.sigma, v);
    rows.sigma[v] = ws.sigma_hat[v];
    if (case3) {
      ctx.charge_read(ws.d_new, v);
      ctx.charge_write(rows.d, v);
      rows.d[v] = ws.d_new[v];
    }
    if (ws.t[v] == kUntouched) return;
    ++touched;
    if (v != static_cast<std::size_t>(s)) {
      ctx.charge_read(ws.delta_hat, v);
      ctx.charge_read(rows.delta, v);
      ctx.charge_atomic(bc, v);
      util::atomic_add(bc, v, ws.delta_hat[v] - rows.delta[v]);
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

void edge_case2(BlockContext& ctx, const CSRGraph& g, VertexId s,
                const Rows& rows, GpuWorkspace& ws, VertexId u_high,
                VertexId u_low, bool removal = false) {
  const auto src = g.arc_src();
  const auto dst = g.arc_dst();
  const auto num_arcs = static_cast<std::size_t>(g.num_arcs());
  const auto d = rows.d;

  // Algorithm 4: level-synchronous sigma-hat propagation; every level scans
  // the entire arc list. Note this touches whole BFS levels below u_low
  // (any w one level below a current-depth v), which is exactly the futile
  // work the paper attributes to the edge-parallel mapping.
  Dist depth = d[static_cast<std::size_t>(u_low)];
  Dist last_touch_depth = depth;
  bool done = false;
  while (!done) {
    done = true;
    ctx.parallel_for(num_arcs, [&](std::size_t a) {
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
  (void)s;
  if (removal) removal_prepass(ctx, ws, rows, u_high, u_low, false);

  // Algorithm 6 (with the Brandes roles made explicit: arc (c, p) with c at
  // `dep` contributing to its predecessor p at dep-1).
  for (Dist dep = last_touch_depth; dep >= 1; --dep) {
    ctx.parallel_for(num_arcs, [&](std::size_t a) {
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

void node_case2(BlockContext& ctx, const CSRGraph& g, VertexId s,
                const Rows& rows, GpuWorkspace& ws, VertexId u_high,
                VertexId u_low, bool removal = false) {
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
  (void)s;
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
/// paths and dependency rebuilt from scratch.
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
  ws.moved_list.push_back(u_low);
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
      ws.moved_list.push_back(ws.q2[i]);
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
    ctx.parallel_for(num_arcs, [&](std::size_t a) {
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
      ctx.parallel_for(n, [&](std::size_t v) {
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

void node_case3(BlockContext& ctx, const CSRGraph& g, VertexId s,
                const Rows& rows, GpuWorkspace& ws, VertexId u_high,
                VertexId u_low, bool removal = false) {
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
  (void)s;
}

// ---------------------------------------------------------------------------
// Case 3, edge-parallel.
// ---------------------------------------------------------------------------

void edge_case3(BlockContext& ctx, const CSRGraph& g, VertexId s,
                const Rows& rows, GpuWorkspace& ws, VertexId u_high,
                VertexId u_low, bool removal = false) {
  const auto src = g.arc_src();
  const auto dst = g.arc_dst();
  const auto num_arcs = static_cast<std::size_t>(g.num_arcs());
  const std::size_t n = rows.sigma.size();
  const auto d = rows.d;
  const auto lo = static_cast<std::size_t>(u_low);
  ws.moved_list.clear();

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
    // E1: zero sigma-hat of touched vertices at this level.
    ctx.parallel_for(n, [&](std::size_t v) {
      ctx.charge_instr(1);
      ctx.charge_read(ws.t, v);
      ctx.charge_read(ws.d_new, v);
      if (ws.t[v] != kUntouched && ws.d_new[v] == level) {
        ctx.charge_write(ws.sigma_hat, v);
        ws.sigma_hat[v] = 0.0;
      }
    });
    // E2: accumulate sigma from parents over the whole arc list.
    ctx.parallel_for(num_arcs, [&](std::size_t a) {
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
    ctx.parallel_for(n, [&](std::size_t v) {
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
    ctx.parallel_for(num_arcs, [&](std::size_t a) {
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
  // here, once, instead of per level.
  ctx.parallel_for(n, [&](std::size_t v) {
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
    ctx.parallel_for(num_arcs, [&](std::size_t a) {
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
    ctx.parallel_for(num_arcs, [&](std::size_t a) {
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
  (void)s;
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

SourceUpdateOutcome gpu_insert_source_update(sim::BlockContext& ctx,
                                             GpuWorkspace& ws,
                                             Parallelism mode,
                                             const CSRGraph& g, VertexId s,
                                             std::span<Dist> d,
                                             std::span<Sigma> sigma,
                                             std::span<double> delta,
                                             std::span<double> bc, VertexId u,
                                             VertexId v) {
  Rows rows{d, sigma, delta};
  ctx.charge_read(rows.d, static_cast<std::size_t>(u));
  ctx.charge_read(rows.d, static_cast<std::size_t>(v));
  ctx.charge_instr(4);
  const CaseInfo info = classify_insertion(rows.d, u, v);
  SourceUpdateOutcome outcome;
  outcome.update_case = info.update_case;
  if (info.update_case == UpdateCase::kNoWork) {
    outcome.touched = 0;
    record_source_update_metrics(outcome, g.num_vertices());
    return outcome;
  }
  const bool case3 = info.update_case == UpdateCase::kFar;
  init_kernel(ctx, ws, rows, info.u_high, info.u_low, case3);
  if (!case3) {
    if (mode == Parallelism::kEdge) {
      edge_case2(ctx, g, s, rows, ws, info.u_high, info.u_low);
    } else {
      node_case2(ctx, g, s, rows, ws, info.u_high, info.u_low);
    }
  } else {
    if (mode == Parallelism::kEdge) {
      edge_case3(ctx, g, s, rows, ws, info.u_high, info.u_low);
    } else {
      node_case3(ctx, g, s, rows, ws, info.u_high, info.u_low);
    }
  }
  outcome.touched = finalize_kernel(ctx, ws, rows, bc, s, case3);
  record_source_update_metrics(outcome, g.num_vertices());
  return outcome;
}

SourceUpdateOutcome gpu_remove_source_update(
    sim::BlockContext& ctx, GpuWorkspace& ws, Parallelism mode,
    const CSRGraph& g, VertexId s, std::span<Dist> d, std::span<Sigma> sigma,
    std::span<double> delta, std::span<double> bc, VertexId u, VertexId v) {
  Rows rows{d, sigma, delta};
  SourceUpdateOutcome outcome;
  ctx.charge_read(rows.d, static_cast<std::size_t>(u));
  ctx.charge_read(rows.d, static_cast<std::size_t>(v));
  ctx.charge_instr(4);
  const Dist du = rows.d[static_cast<std::size_t>(u)];
  const Dist dv = rows.d[static_cast<std::size_t>(v)];
  if (du == dv) {
    // The edge was never on a shortest path from this source.
    outcome.update_case = UpdateCase::kNoWork;
    outcome.touched = 0;
    record_source_update_metrics(outcome, g.num_vertices());
    return outcome;
  }
  const VertexId u_high = du < dv ? u : v;
  const VertexId u_low = du < dv ? v : u;
  const auto lo = static_cast<std::size_t>(u_low);

  // Does u_low keep another parent in the post-removal graph?
  bool has_other_parent = false;
  ctx.charge_read(rows.d, lo);
  for (VertexId x : g.neighbors(u_low)) {
    ctx.charge_read(1);  // adjacency entry (no span here)
    ctx.charge_read(rows.d, static_cast<std::size_t>(x));
    ctx.charge_instr(1);
    if (rows.d[static_cast<std::size_t>(x)] + 1 == rows.d[lo]) {
      has_other_parent = true;
      break;
    }
  }

  if (has_other_parent) {
    outcome.update_case = UpdateCase::kAdjacent;
    init_kernel(ctx, ws, rows, u_high, u_low, /*case3=*/false, /*sign=*/-1.0);
    if (mode == Parallelism::kEdge) {
      edge_case2(ctx, g, s, rows, ws, u_high, u_low, /*removal=*/true);
    } else {
      node_case2(ctx, g, s, rows, ws, u_high, u_low, /*removal=*/true);
    }
    outcome.touched = finalize_kernel(ctx, ws, rows, bc, s, /*case3=*/false);
    record_source_update_metrics(outcome, g.num_vertices());
    return outcome;
  }

  // Distance-growing removal: the decremental Case 3 repair (Phase 0
  // relevels the orphaned region, then the generalized repair runs).
  outcome.update_case = UpdateCase::kFar;
  init_kernel(ctx, ws, rows, u_high, u_low, /*case3=*/true);
  if (mode == Parallelism::kEdge) {
    edge_case3(ctx, g, s, rows, ws, u_high, u_low, /*removal=*/true);
  } else {
    node_case3(ctx, g, s, rows, ws, u_high, u_low, /*removal=*/true);
  }
  outcome.touched = finalize_kernel(ctx, ws, rows, bc, s, /*case3=*/true);
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
      util::atomic_add(bc, w, delta[w] - ws.delta_hat[w]);
    }
  });
}

}  // namespace detail

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

DynamicGpuBc::DynamicGpuBc(sim::DeviceSpec spec, Parallelism mode,
                           sim::CostModel cost, bool track_atomic_conflicts)
    : device_(std::move(spec), cost, track_atomic_conflicts), mode_(mode) {
  workspaces_.resize(static_cast<std::size_t>(device_.spec().num_sms));
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
  const auto source_update = removal ? &detail::gpu_remove_source_update
                                     : &detail::gpu_insert_source_update;
  const int num_blocks = device_.spec().num_sms;
  const int k = store.num_sources();
  GpuUpdateResult result;
  result.outcomes.resize(static_cast<std::size_t>(k));
  for (auto& ws : workspaces_) ws.ensure(g.num_vertices());
  PlannedLaunch launch(kind, policy_, mode_, [&](ParallelismPolicy& p) {
    return removal ? p.plan_remove(g, store, u, v)
                   : p.plan_insert(g, store, u, v);
  });
  result.stats = device_.launch(
      num_blocks,
      [&, num_blocks](BlockContext& ctx) {
        GpuWorkspace& ws =
            workspaces_[static_cast<std::size_t>(ctx.block_id())];
        for (int si = ctx.block_id(); si < k; si += num_blocks) {
          launch.run(ctx, si, [&](Parallelism m) {
            result.outcomes[static_cast<std::size_t>(si)] = source_update(
                ctx, ws, m, g, store.sources()[static_cast<std::size_t>(si)],
                store.dist_row(si), store.sigma_row(si), store.delta_row(si),
                store.bc(), u, v);
          });
        }
      },
      launch.name());
  launch.feedback(result.outcomes, &SourceUpdateOutcome::touched);
  return result;
}

}  // namespace bcdyn
