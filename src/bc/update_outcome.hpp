// The one outcome type for every analytic update.
//
// Single-edge insertions/removals, multi-edge loops, and batched updates
// all report the same core: per-source case classifications (paper Fig. 2),
// the largest touched set, and the wall/modeled/structure timings. Batched
// updates additionally count rejected entries and recompute fallbacks;
// those extension fields stay zero on the per-edge paths.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/types.hpp"

namespace bcdyn {

struct UpdateOutcome {
  /// Edges actually applied to the graph: 0 or 1 for single-edge
  /// operations (usable as a bool), the applied count for multi-edge
  /// commits and batch updates.
  int inserted = 0;
  int skipped = 0;  // batch only: rejected entries (dupes, self loops, ...)

  int case1 = 0;  // per-source scenario counts, summed over applied edges
  int case2 = 0;
  int case3 = 0;
  int recomputed_sources = 0;  // batch only: jobs that hit the fallback

  VertexId max_touched = 0;          // largest per-source touched set
  double update_wall_seconds = 0.0;  // host wall clock of the analytic update
  double modeled_seconds = 0.0;      // cost-model time (device or CPU model)
  double structure_wall_seconds = 0.0;  // graph + snapshot maintenance

  /// Serving-layer attribution (bc::Service). Defaults keep every
  /// pre-service caller and serialized artifact unchanged: the bare
  /// analytic paths leave both at zero.
  std::uint64_t epoch = 0;     // snapshot epoch this update published
  int coalesced_updates = 0;   // client writes coalesced into this outcome

  /// The canonical fold for aggregating outcomes: counts and timings sum,
  /// max_touched and epoch take the max (an aggregate spans up to the
  /// newest epoch it contains). Every multi-update path aggregates this
  /// way so the totals mean the same thing everywhere.
  UpdateOutcome& absorb(const UpdateOutcome& o) {
    inserted += o.inserted;
    skipped += o.skipped;
    case1 += o.case1;
    case2 += o.case2;
    case3 += o.case3;
    recomputed_sources += o.recomputed_sources;
    max_touched = std::max(max_touched, o.max_touched);
    update_wall_seconds += o.update_wall_seconds;
    modeled_seconds += o.modeled_seconds;
    structure_wall_seconds += o.structure_wall_seconds;
    epoch = std::max(epoch, o.epoch);
    coalesced_updates += o.coalesced_updates;
    return *this;
  }
};

}  // namespace bcdyn
