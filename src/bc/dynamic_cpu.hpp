// Sequential dynamic betweenness centrality (the paper's CPU baseline,
// after Green, McColl & Bader [10]).
//
// One per-source body serves both update directions: it classifies the
// update once (bc/case_classify.hpp) and dispatches.
//
// Case 2 (endpoints on adjacent levels) follows the paper's Algorithm 2
// verbatim: BFS down from u_low propagating sigma-hat increments, then a
// multi-level-queue dependency accumulation applying +new/-old corrections
// to brushed ("up") predecessors. A removal with a surviving parent runs
// the same body with the sign of u_low's path-count change flipped, plus a
// pre-pass that takes u_low's old contribution out of u_high (the removed
// edge is invisible to the neighbor scans).
//
// Case 3 (endpoints more than one level apart, including the component-
// attach sub-case) uses the generalized repair described in DESIGN.md §7:
//   Phase A  ascending-level BFS from u_low; moved vertices get new
//            distances, and every vertex whose parent set or parent sigmas
//            changed gets sigma-hat recomputed from its (new) parents.
//   Phase B  a "lost parent" pre-pass subtracts moved vertices' old
//            contributions from predecessors they abandoned, then a
//            descending-level sweep rebuilds delta for RESET vertices
//            (moved or sigma changed) from scratch and applies +new/-old
//            differentials to CARRY vertices (delta-only changes).
// Case 2 is a special case of this framework; a dedicated test checks that
// both paths produce identical state on Case 2 insertions. A removal whose
// u_low keeps no parent recomputes the source with Brandes instead: the
// GPU engines repair those incrementally, and this engine is their oracle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bc/bc_store.hpp"
#include "bc/case_classify.hpp"
#include "graph/csr_graph.hpp"
#include "trace/metrics.hpp"
#include "util/types.hpp"

namespace bcdyn {

/// Operation counters for the sequential engine; converted to modeled CPU
/// seconds via sim::cpu_seconds (see gpusim/cost_model.hpp).
struct CpuOpCounters {
  std::uint64_t instrs = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  CpuOpCounters& operator+=(const CpuOpCounters& o) {
    instrs += o.instrs;
    reads += o.reads;
    writes += o.writes;
    return *this;
  }
  bool operator==(const CpuOpCounters&) const = default;
  friend CpuOpCounters operator-(CpuOpCounters a, const CpuOpCounters& b) {
    a.instrs -= b.instrs;
    a.reads -= b.reads;
    a.writes -= b.writes;
    return a;
  }
};

/// Per-source outcome of one edge insertion.
struct SourceUpdateOutcome {
  UpdateCase update_case = UpdateCase::kNoWork;
  VertexId touched = 0;  // |{v : t[v] != untouched}| (0 for Case 1)
};

/// Case-mix telemetry shared by every engine and update direction: one
/// bc.caseN.count bump plus a bc.touched_fraction sample per (source,
/// edge) update. Recorded at the lowest shared layer so the single-edge,
/// removal, and batch paths all land in the same counters, and the
/// invariant case1+case2+case3 == per-source updates holds by
/// construction (the differential fuzzer asserts it).
inline void record_source_update_metrics(const SourceUpdateOutcome& r,
                                         VertexId n) {
  auto& reg = trace::metrics();
  switch (r.update_case) {
    case UpdateCase::kNoWork:
      reg.add("bc.case1.count");
      break;
    case UpdateCase::kAdjacent:
      reg.add("bc.case2.count");
      break;
    case UpdateCase::kFar:
      reg.add("bc.case3.count");
      break;
  }
  reg.observe("bc.touched_fraction",
              n > 0 ? static_cast<double>(r.touched) / static_cast<double>(n)
                    : 0.0);
}

class DynamicCpuEngine {
 public:
  explicit DynamicCpuEngine(VertexId num_vertices);

  /// Updates every source row of `store` plus its BC scores for one
  /// single-edge update of {u, v} (`removal` picks the direction; `g` is
  /// the post-update graph: with the edge for an insertion, without it for
  /// a removal): one source_update per source, in ascending source order,
  /// folding straight into store.bc(). Returns the per-source outcomes,
  /// indexed by source index. A non-empty `source_ops` (one slot per
  /// source) receives each source's counter delta. No charge depends on
  /// which source ran before (init_scratch charges a fixed O(n) per call,
  /// the rest per operation), so a contiguous chunk's sum is that chunk's
  /// cost on a lane of its own.
  std::vector<SourceUpdateOutcome> store_update(
      bool removal, const CSRGraph& g, BcStore& store, VertexId u, VertexId v,
      std::span<CpuOpCounters> source_ops = {});

  /// The one per-source body: updates source s's rows (dist/sigma/delta,
  /// holding pre-update values) and the shared BC scores for the update
  /// of edge {u, v}, with `g` as in store_update. It classifies the update
  /// by direction and dispatches: same-level updates are free, adjacent
  /// levels run Case 2 (negative sigma increments for a removal whose u_low
  /// keeps another parent), distance-changing insertions run Case 3, and
  /// any other removal recomputes the source row from scratch (reported as
  /// UpdateCase::kFar with touched = n). Pass `force_general = true` to
  /// route an insertion's Case 2 through the general Case 3 framework
  /// (used by tests).
  SourceUpdateOutcome source_update(bool removal, const CSRGraph& g,
                                    VertexId s, std::span<Dist> dist,
                                    std::span<Sigma> sigma,
                                    std::span<double> delta,
                                    std::span<double> bc, VertexId u,
                                    VertexId v, bool force_general = false);

  const CpuOpCounters& counters() const { return ops_; }
  void reset_counters() { ops_ = {}; }

 private:
  enum class Touch : std::uint8_t { kUntouched = 0, kDown = 1, kUp = 2 };

  void init_scratch(std::span<const Sigma> sigma, bool case3,
                    std::span<const Dist> dist);
  void qq_push(Dist level, VertexId v);
  void clear_qq();

  VertexId case2_update(const CSRGraph& g, VertexId s, std::span<Dist> dist,
                        std::span<Sigma> sigma, std::span<double> delta,
                        std::span<double> bc, VertexId u_high, VertexId u_low,
                        bool removal);
  VertexId case3_update(const CSRGraph& g, VertexId s, std::span<Dist> dist,
                        std::span<Sigma> sigma, std::span<double> delta,
                        std::span<double> bc, VertexId u_high, VertexId u_low);

  VertexId n_;
  std::vector<Touch> t_;
  std::vector<Sigma> sigma_hat_;
  std::vector<double> delta_hat_;
  std::vector<Dist> d_new_;
  std::vector<std::uint8_t> moved_;
  std::vector<std::uint8_t> reset_;
  std::vector<VertexId> moved_list_;
  std::vector<VertexId> q_;  // case 2 BFS queue
  std::vector<std::vector<VertexId>> qq_;
  Dist qq_min_ = 0;
  Dist qq_max_ = -1;
  CpuOpCounters ops_;
};

}  // namespace bcdyn
