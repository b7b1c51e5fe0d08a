#include "bc/dynamic_cpu.hpp"

#include <algorithm>
#include <cassert>

#include "bc/brandes.hpp"

namespace bcdyn {

DynamicCpuEngine::DynamicCpuEngine(VertexId num_vertices)
    : n_(num_vertices),
      t_(static_cast<std::size_t>(num_vertices), Touch::kUntouched),
      sigma_hat_(static_cast<std::size_t>(num_vertices), 0.0),
      delta_hat_(static_cast<std::size_t>(num_vertices), 0.0),
      d_new_(static_cast<std::size_t>(num_vertices), kInfDist),
      moved_(static_cast<std::size_t>(num_vertices), 0),
      reset_(static_cast<std::size_t>(num_vertices), 0),
      qq_(static_cast<std::size_t>(num_vertices) + 2) {}

void DynamicCpuEngine::init_scratch(std::span<const Sigma> sigma, bool case3,
                                    std::span<const Dist> dist) {
  const auto n = static_cast<std::size_t>(n_);
  // Algorithm 2 lines 3-8: t <- untouched, sigma_hat <- sigma,
  // delta_hat <- 0 for every vertex.
  std::fill(t_.begin(), t_.end(), Touch::kUntouched);
  std::copy(sigma.begin(), sigma.end(), sigma_hat_.begin());
  std::fill(delta_hat_.begin(), delta_hat_.end(), 0.0);
  ops_.reads += n;
  ops_.writes += 3 * n;
  if (case3) {
    std::copy(dist.begin(), dist.end(), d_new_.begin());
    std::fill(moved_.begin(), moved_.end(), std::uint8_t{0});
    std::fill(reset_.begin(), reset_.end(), std::uint8_t{0});
    moved_list_.clear();
    ops_.reads += n;
    ops_.writes += 3 * n;
  }
}

void DynamicCpuEngine::qq_push(Dist level, VertexId v) {
  assert(level >= 0 && static_cast<std::size_t>(level) < qq_.size());
  qq_[static_cast<std::size_t>(level)].push_back(v);
  if (qq_max_ < qq_min_) {
    qq_min_ = qq_max_ = level;
  } else {
    qq_min_ = std::min(qq_min_, level);
    qq_max_ = std::max(qq_max_, level);
  }
  ops_.writes += 1;
}

void DynamicCpuEngine::clear_qq() {
  for (Dist l = qq_min_; l <= qq_max_; ++l) {
    qq_[static_cast<std::size_t>(l)].clear();
  }
  qq_min_ = 0;
  qq_max_ = -1;
}

std::vector<SourceUpdateOutcome> DynamicCpuEngine::store_update(
    bool removal, const CSRGraph& g, BcStore& store, VertexId u, VertexId v,
    std::span<CpuOpCounters> source_ops) {
  assert(source_ops.empty() ||
         source_ops.size() == static_cast<std::size_t>(store.num_sources()));
  std::vector<SourceUpdateOutcome> outcomes(
      static_cast<std::size_t>(store.num_sources()));
  for (int si = 0; si < store.num_sources(); ++si) {
    const auto i = static_cast<std::size_t>(si);
    const CpuOpCounters before = ops_;
    outcomes[i] = source_update(removal, g, store.sources()[i],
                                store.dist_row(si), store.sigma_row(si),
                                store.delta_row(si), store.bc(), u, v);
    if (!source_ops.empty()) source_ops[i] = ops_ - before;
  }
  return outcomes;
}

SourceUpdateOutcome DynamicCpuEngine::source_update(
    bool removal, const CSRGraph& g, VertexId s, std::span<Dist> dist,
    std::span<Sigma> sigma, std::span<double> delta, std::span<double> bc,
    VertexId u, VertexId v, bool force_general) {
  assert(g.num_vertices() == n_);
  assert(!removal || (!g.has_edge(u, v) && !force_general));
  ops_.reads += 2;
  ops_.instrs += 4;
  const CaseInfo info =
      removal ? classify_removal(g, dist, u, v,
                                 [this](VertexId) { ops_.reads += 2; })
              : classify_insertion(dist, u, v);

  SourceUpdateOutcome outcome;
  outcome.update_case = info.update_case;
  if (info.update_case == UpdateCase::kAdjacent && !force_general) {
    outcome.touched = case2_update(g, s, dist, sigma, delta, bc, info.u_high,
                                   info.u_low, removal);
  } else if (info.update_case == UpdateCase::kFar && removal) {
    // A distance-growing removal recomputes the source from scratch: the
    // GPU engines repair these incrementally, and Brandes stays their
    // independent oracle. Old dependencies are saved so BC can be adjusted
    // differentially.
    outcome.touched = n_;
    std::copy(delta.begin(), delta.end(), delta_hat_.begin());
    brandes_source(g, s, dist, sigma, delta, {});
    const auto n = static_cast<std::size_t>(n_);
    for (std::size_t w = 0; w < n; ++w) {
      if (w == static_cast<std::size_t>(s)) continue;
      if (delta[w] != delta_hat_[w]) {
        bc[w] += delta[w] - delta_hat_[w];
        ops_.writes += 1;
      }
    }
    ops_.reads += 2 * n + static_cast<std::uint64_t>(g.num_arcs()) * 4;
    ops_.writes += 3 * n;
  } else if (info.update_case != UpdateCase::kNoWork) {
    outcome.touched =
        case3_update(g, s, dist, sigma, delta, bc, info.u_high, info.u_low);
  }
  record_source_update_metrics(outcome, n_);
  return outcome;
}

VertexId DynamicCpuEngine::case2_update(
    const CSRGraph& g, VertexId s, std::span<Dist> dist,
    std::span<Sigma> sigma, std::span<double> delta, std::span<double> bc,
    VertexId u_high, VertexId u_low, bool removal) {
  init_scratch(sigma, /*case3=*/false, dist);
  const auto lo = static_cast<std::size_t>(u_low);
  const auto hi = static_cast<std::size_t>(u_high);

  // Stage 1: the inserted edge routes every s->u_high shortest path on to
  // u_low (Algorithm 2 line 7); a removed edge takes them away.
  t_[lo] = Touch::kDown;
  sigma_hat_[lo] = removal ? sigma[lo] - sigma[hi] : sigma[lo] + sigma[hi];
  assert(sigma_hat_[lo] >= 1.0);
  ops_.reads += 2;
  ops_.writes += 2;
  VertexId touched = 1;

  // Stage 2: BFS down from u_low propagating sigma-hat increments
  // (negative for a removal). Distances don't change in Case 2, so a FIFO
  // queue is level ordered.
  q_.clear();
  q_.push_back(u_low);
  qq_push(dist[lo], u_low);
  for (std::size_t head = 0; head < q_.size(); ++head) {
    const VertexId vv = q_[head];
    const auto vi = static_cast<std::size_t>(vv);
    const Dist dv = dist[vi];
    const Sigma inc = sigma_hat_[vi] - sigma[vi];
    ops_.reads += 3;
    for (VertexId w : g.neighbors(vv)) {
      const auto wi = static_cast<std::size_t>(w);
      ops_.reads += 2;  // adjacency entry + d[w]
      ops_.instrs += 2;
      if (dist[wi] != dv + 1) continue;
      if (t_[wi] == Touch::kUntouched) {
        t_[wi] = Touch::kDown;
        q_.push_back(w);
        qq_push(dist[wi], w);
        ops_.writes += 2;
        ++touched;
      }
      sigma_hat_[wi] += inc;
      ops_.reads += 1;
      ops_.writes += 1;
    }
  }

  // Removal pre-pass: u_high lost u_low as a child, and the neighbor scans
  // below can no longer see the removed edge - subtract the stale
  // contribution explicitly (the decremental mirror of Algorithm 2's line
  // 32 guard).
  if (removal) {
    if (t_[hi] == Touch::kUntouched) {
      t_[hi] = Touch::kUp;
      delta_hat_[hi] = delta[hi];
      qq_push(dist[hi], u_high);
      ops_.reads += 1;
      ops_.writes += 2;
      ++touched;
    }
    delta_hat_[hi] -= sigma[hi] / sigma[lo] * (1.0 + delta[lo]);
    ops_.reads += 4;
    ops_.writes += 1;
  }

  // Stage 3: dependency accumulation, farthest level first. qq_ levels
  // below the current one may grow ("up" vertices); the current level
  // cannot, so indexed iteration is safe.
  for (Dist level = qq_max_; level >= 1; --level) {
    auto& bucket = qq_[static_cast<std::size_t>(level)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const VertexId w = bucket[i];
      const auto wi = static_cast<std::size_t>(w);
      const double coeff_new = (1.0 + delta_hat_[wi]) / sigma_hat_[wi];
      const double coeff_old = (1.0 + delta[wi]) / sigma[wi];
      ops_.reads += 4;
      ops_.instrs += 4;
      for (VertexId vv : g.neighbors(w)) {
        const auto vi = static_cast<std::size_t>(vv);
        ops_.reads += 2;
        ops_.instrs += 2;
        if (dist[vi] + 1 != dist[wi]) continue;  // vv is not a predecessor
        if (t_[vi] == Touch::kUntouched) {
          t_[vi] = Touch::kUp;
          delta_hat_[vi] = delta[vi];
          qq_push(static_cast<Dist>(level - 1), vv);
          ops_.reads += 1;
          ops_.writes += 2;
          ++touched;
        }
        delta_hat_[vi] += sigma_hat_[vi] * coeff_new;
        ops_.reads += 2;
        ops_.writes += 1;
        // Remove the stale pre-update contribution of w to vv. Down
        // vertices rebuild delta from scratch, so only "up" predecessors
        // carry old contributions; an inserted edge never had one
        // (Algorithm 2 line 32's (v != u_high or w != u_low) guard). A
        // removed edge is no longer in g, so the guard never fires then.
        if (t_[vi] == Touch::kUp && !(vv == u_high && w == u_low)) {
          delta_hat_[vi] -= sigma[vi] * coeff_old;
          ops_.reads += 1;
          ops_.writes += 1;
        }
      }
      if (w != s) {
        bc[wi] += delta_hat_[wi] - delta[wi];
        ops_.reads += 2;
        ops_.writes += 1;
      }
    }
  }

  // Lines 37-40: fold the hatted values back into the per-source state.
  for (Dist level = qq_min_; level <= qq_max_; ++level) {
    for (const VertexId w : qq_[static_cast<std::size_t>(level)]) {
      const auto wi = static_cast<std::size_t>(w);
      sigma[wi] = sigma_hat_[wi];
      delta[wi] = delta_hat_[wi];
      ops_.reads += 2;
      ops_.writes += 2;
    }
  }
  clear_qq();
  return touched;
}

VertexId DynamicCpuEngine::case3_update(
    const CSRGraph& g, VertexId s, std::span<Dist> dist,
    std::span<Sigma> sigma, std::span<double> delta, std::span<double> bc,
    VertexId u_high, VertexId u_low) {
  init_scratch(sigma, /*case3=*/true, dist);
  const auto lo = static_cast<std::size_t>(u_low);
  const auto hi = static_cast<std::size_t>(u_high);

  // Phase A: ascending-level repair of distances and sigma.
  const Dist level0 = dist[hi] + 1;
  t_[lo] = Touch::kDown;
  moved_[lo] = 1;
  moved_list_.push_back(u_low);
  d_new_[lo] = level0;
  qq_push(level0, u_low);
  ops_.writes += 4;
  VertexId touched = 1;

  for (Dist level = level0; level <= qq_max_; ++level) {
    auto& bucket = qq_[static_cast<std::size_t>(level)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const VertexId w = bucket[i];
      const auto wi = static_cast<std::size_t>(w);
      // Recompute sigma from the (new) parents; parents at level-1 are
      // final because levels are processed in ascending order.
      Sigma sig = 0.0;
      for (VertexId x : g.neighbors(w)) {
        const auto xi = static_cast<std::size_t>(x);
        ops_.reads += 2;
        ops_.instrs += 2;
        if (d_new_[xi] == level - 1) {
          sig += sigma_hat_[xi];
          ops_.reads += 1;
        }
      }
      sigma_hat_[wi] = sig;
      ops_.writes += 1;
      const bool changed = moved_[wi] != 0 || sig != sigma[wi];
      ops_.reads += 2;
      ops_.instrs += 2;
      if (!changed) continue;
      for (VertexId x : g.neighbors(w)) {
        const auto xi = static_cast<std::size_t>(x);
        const Dist dx = d_new_[xi];
        ops_.reads += 2;
        ops_.instrs += 2;
        if (dx > level + 1) {
          // x is pulled closer through w (covers previously-unreachable x).
          d_new_[xi] = level + 1;
          t_[xi] = Touch::kDown;
          moved_[xi] = 1;
          moved_list_.push_back(x);
          qq_push(level + 1, x);
          ops_.writes += 4;
          ++touched;
        } else if (dx == level + 1 && t_[xi] == Touch::kUntouched) {
          // Same level as before, but its parent sigma changed.
          t_[xi] = Touch::kDown;
          qq_push(level + 1, x);
          ops_.writes += 2;
          ++touched;
        }
      }
    }
  }
  const Dist max_down_level = qq_max_;

  // Classify touched vertices: RESET rebuilds delta from scratch; CARRY
  // (sigma and distance unchanged) keeps delta and takes differentials.
  for (Dist level = qq_min_; level <= max_down_level; ++level) {
    for (const VertexId w : qq_[static_cast<std::size_t>(level)]) {
      const auto wi = static_cast<std::size_t>(w);
      reset_[wi] =
          (moved_[wi] != 0 || sigma_hat_[wi] != sigma[wi]) ? 1 : 0;
      if (!reset_[wi]) delta_hat_[wi] = delta[wi];
      ops_.reads += 3;
      ops_.writes += 1;
    }
  }

  // Phase B pre-pass: moved vertices abandoned their old parents; subtract
  // the stale contribution from every CARRY/untouched old parent that is
  // not also a new parent.
  for (const VertexId w : moved_list_) {
    const auto wi = static_cast<std::size_t>(w);
    const Dist dw_old = dist[wi];
    ops_.reads += 1;
    if (dw_old == kInfDist) continue;  // previously unreachable: no parents
    const double coeff_old = (1.0 + delta[wi]) / sigma[wi];
    ops_.reads += 2;
    for (VertexId x : g.neighbors(w)) {
      const auto xi = static_cast<std::size_t>(x);
      ops_.reads += 3;
      ops_.instrs += 3;
      if (dist[xi] + 1 != dw_old) continue;        // not an old parent
      if (d_new_[xi] + 1 == d_new_[wi]) continue;  // still a parent
      if (t_[xi] == Touch::kUntouched) {
        t_[xi] = Touch::kUp;
        delta_hat_[xi] = delta[xi];
        qq_push(d_new_[xi], x);
        ops_.reads += 1;
        ops_.writes += 2;
        ++touched;
      }
      if (reset_[xi] == 0) {
        delta_hat_[xi] -= sigma[xi] * coeff_old;
        ops_.reads += 2;
        ops_.writes += 1;
      }
    }
  }

  // Phase B: descending dependency repair.
  for (Dist level = qq_max_; level >= 1; --level) {
    auto& bucket = qq_[static_cast<std::size_t>(level)];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const VertexId w = bucket[i];
      const auto wi = static_cast<std::size_t>(w);
      const double coeff_new = (1.0 + delta_hat_[wi]) / sigma_hat_[wi];
      const bool w_had_old =
          dist[wi] != kInfDist;  // w existed in s's old BFS tree
      const double coeff_old =
          w_had_old ? (1.0 + delta[wi]) / sigma[wi] : 0.0;
      ops_.reads += 4;
      ops_.instrs += 4;
      for (VertexId x : g.neighbors(w)) {
        const auto xi = static_cast<std::size_t>(x);
        ops_.reads += 2;
        ops_.instrs += 2;
        if (d_new_[xi] + 1 != d_new_[wi]) continue;  // not a new predecessor
        if (t_[xi] == Touch::kUntouched) {
          t_[xi] = Touch::kUp;
          delta_hat_[xi] = delta[xi];
          qq_push(static_cast<Dist>(level - 1), x);
          ops_.reads += 1;
          ops_.writes += 2;
          ++touched;
        }
        delta_hat_[xi] += sigma_hat_[xi] * coeff_new;
        ops_.reads += 2;
        ops_.writes += 1;
        // Subtract w's stale contribution from CARRY predecessors that had
        // w as a child before the insertion (the inserted edge itself is
        // new, so the (u_high, u_low) pair is excluded).
        if (reset_[xi] == 0 && w_had_old && dist[xi] + 1 == dist[wi] &&
            !(x == u_high && w == u_low)) {
          delta_hat_[xi] -= sigma[xi] * coeff_old;
          ops_.reads += 2;
          ops_.writes += 1;
        }
      }
      if (w != s) {
        bc[wi] += delta_hat_[wi] - delta[wi];
        ops_.reads += 2;
        ops_.writes += 1;
      }
    }
  }

  // Finalize: fold hatted values and new distances into the store.
  for (Dist level = qq_min_; level <= qq_max_; ++level) {
    for (const VertexId w : qq_[static_cast<std::size_t>(level)]) {
      const auto wi = static_cast<std::size_t>(w);
      dist[wi] = d_new_[wi];
      sigma[wi] = sigma_hat_[wi];
      delta[wi] = delta_hat_[wi];
      ops_.reads += 3;
      ops_.writes += 3;
    }
  }
  clear_qq();
  return touched;
}

}  // namespace bcdyn
