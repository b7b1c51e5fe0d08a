// Classification of an edge update per source (paper §II.D.1): the one
// place every engine and the adaptive planner decide an update's case.
//
// For source s and inserted edge {u, v}:
//   Case 1: |d_s(u) - d_s(v)| = 0  - no work (same level, or neither
//           endpoint reachable from s);
//   Case 2: |d_s(u) - d_s(v)| = 1  - sigma/delta may change, distances don't;
//   Case 3: |d_s(u) - d_s(v)| > 1  - distances change (includes the
//           "one endpoint unreachable" component-attach sub-case).
//
// A removed edge existed, so its endpoints' levels differ by at most one;
// a removal is the insertion's procedure with the sign of the path-count
// change flipped (Kourtellis et al.):
//   Case 1: same level - the edge was never on a shortest path from s;
//   Case 2: adjacent levels and u_low keeps another parent - distances
//           don't change, sigma loses u_high's paths;
//   Case 3: adjacent levels and u_low has no other parent - u_low's
//           distance grows (possibly to infinity).
#pragma once

#include <cassert>
#include <span>

#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace bcdyn {

enum class UpdateCase : int {
  kNoWork = 1,    // Case 1
  kAdjacent = 2,  // Case 2
  kFar = 3,       // Case 3
};

struct CaseInfo {
  UpdateCase update_case = UpdateCase::kNoWork;
  VertexId u_high = kNoVertex;  // endpoint closer to the source
  VertexId u_low = kNoVertex;   // endpoint farther from the source
};

/// Classifies the insertion of edge {u, v} for the source whose distance
/// row is `dist` (distances *before* the insertion).
CaseInfo classify_insertion(std::span<const Dist> dist, VertexId u, VertexId v);

/// Classifies the removal of edge {u, v} for the source whose distance row
/// is `dist` (distances *before* the removal). `g` must no longer contain
/// the edge. The surviving-parent scan reads u_low's neighbours in order
/// and stops at the first parent; it calls `on_scan(x)` once per neighbour
/// x it reads, so each engine charges its own cost model for the scan.
template <typename OnScan>
CaseInfo classify_removal(const CSRGraph& g, std::span<const Dist> dist,
                          VertexId u, VertexId v, OnScan&& on_scan) {
  CaseInfo info = classify_insertion(dist, u, v);
  if (info.update_case == UpdateCase::kNoWork) return info;
  assert(info.update_case == UpdateCase::kAdjacent);  // the edge existed
  const Dist d_low = dist[static_cast<std::size_t>(info.u_low)];
  info.update_case = UpdateCase::kFar;
  for (const VertexId x : g.neighbors(info.u_low)) {
    on_scan(x);
    if (dist[static_cast<std::size_t>(x)] + 1 == d_low) {
      info.update_case = UpdateCase::kAdjacent;
      break;
    }
  }
  return info;
}

}  // namespace bcdyn
