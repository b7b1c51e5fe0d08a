// Adaptive edge/node parallelism selection (the `gpu-adaptive` engine).
//
// The paper's central finding is that neither fine-grained mapping wins
// universally: edge-parallel scans the whole arc list every level (cheap
// per round, futile work proportional to diameter), node-parallel walks
// explicit frontiers (work-efficient, but a power-law hub makes one SIMT
// round as slow as its highest-degree vertex). ParallelismPolicy turns
// that offline comparison into a runtime mechanism: per launch (per
// source x per update case) it predicts the modeled cost of both mappings
// from cheap host-observable features - BFS level profile from one sample
// source, CSR degree stats, the update's case classification and depth -
// and picks the cheaper one. Observed per-source modeled cycles are fed
// back after every launch to calibrate per-(kind, mode) cost rates online.
//
// Decisions key off MODELED cycles, never wall-clock time: the simulator's
// cost model is a pure function of the counted work, so the same run
// produces the same observations, the same learned rates, and therefore
// the same decisions on every host (DESIGN.md "Determinism"). Every
// decision is appended to an in-memory log (bcdyn_trace --decisions).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bc/bc_store.hpp"
#include "bc/static_kernels.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device_spec.hpp"
#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace bcdyn {

struct BatchSnapshots;  // bc/batch_update.hpp

/// What kind of kernel work a decision is for. The cost shape differs per
/// kind (sweep counts, touched-set scaling), so the online rates are
/// learned per (kind, mode) arm.
enum class LaunchKind : int {
  kStatic = 0,   // full static pass over one source
  kInsertCase2,  // adjacent-level insertion (paper Algorithms 3-8)
  kCase3,        // distance-changing insertion or distance-growing removal
                 // (the generalized Case 3 repair)
  kRemoval,      // adjacent-level removal with a surviving parent
  kRecompute,    // per-source static recompute: only the cap of a batch
                 // job's estimate (never decided, shares kStatic's arm)
  kBatch,        // one (source, batch) work-queue job
};
inline constexpr int kNumLaunchKinds = 6;

const char* to_string(LaunchKind kind);

/// Per-graph features, refreshed by the policy's cache: O(n) degree stats
/// whenever the arc count changes, plus a planning BFS from one sample
/// source (level-by-level frontier sizes, arc counts and max degrees
/// summarized into the fields below) re-run only when the graph drifts.
struct GraphFeatures {
  double n = 0;
  double arcs = 0;  // directed arcs (2m)
  double avg_degree = 0.0;
  double max_degree = 0.0;
  double degree_cv = 0.0;  // stddev / mean
  // Sample-source BFS profile:
  double levels = 1.0;           // BFS depth (deepest non-empty level)
  double frontier_rounds = 1.0;  // sum over levels of ceil(frontier / T)
  double divergence_sum = 0.0;   // sum over levels of max frontier degree
  double reached = 0.0;          // vertices reached from the sample source
};

/// Everything a decision is a function of. Self-contained (plain numbers,
/// no graph pointers) so logged decisions can be re-estimated and so the
/// purity property - same features, same learned state => same choice -
/// is directly testable.
struct DecisionFeatures {
  LaunchKind kind = LaunchKind::kStatic;
  int source_index = 0;
  GraphFeatures graph;
  double d_low = 0.0;   // source depth of the farther endpoint (updates)
  double levels = 1.0;  // BFS levels this launch sweeps (static: full depth)
  double batch_case2 = 0.0;  // kBatch: predicted case-2 edges in the job
  double batch_case3 = 0.0;  // kBatch: predicted case-3 edges in the job
};

/// One logged decision. `seq` is the position in the policy's call order.
struct DecisionRecord {
  std::uint64_t seq = 0;
  LaunchKind kind = LaunchKind::kStatic;
  int source_index = 0;
  Parallelism mode = Parallelism::kNode;
  bool explored = false;
  double est_edge_cycles = 0.0;
  double est_node_cycles = 0.0;
};

struct AdaptiveConfig {
  /// Seeds the exploration hash only; decisions are otherwise a pure
  /// function of features + learned state. decide() probes the
  /// non-preferred mapping on ~1/16 of near-tie decisions (estimates
  /// within 1.25x of each other) so both cost arms keep receiving
  /// observations; the probe trigger hashes (features, seed) - never a
  /// call counter - so identical features always make the identical
  /// choice.
  std::uint64_t seed = 0;
};

/// Host-side pre-launch plan for one kernel launch: a decided mode per
/// source index, plus the features behind each decision so the engines can
/// close the feedback loop after the launch. Sources whose launch cannot
/// use a mode (case-1 insertions, same-level removals, all-case-1 batch
/// jobs) get no decision; the kernels never read their mode.
struct LaunchPlan {
  std::vector<Parallelism> modes;          // indexed by source index
  std::vector<DecisionFeatures> features;  // indexed by source index
  std::vector<std::uint8_t> decided;       // 1 iff decide() ran for si

  bool empty() const { return modes.empty(); }
  /// The mode the launch must run for source si (`fallback` = the engine's
  /// fixed mode when no plan / no decision applies).
  Parallelism mode_or(int si, Parallelism fallback) const {
    const auto i = static_cast<std::size_t>(si);
    return (i < decided.size() && decided[i]) ? modes[i] : fallback;
  }
};

class ParallelismPolicy {
 public:
  explicit ParallelismPolicy(
      const AdaptiveConfig& config = {},
      const sim::DeviceSpec& spec = sim::DeviceSpec::tesla_c2075(),
      const sim::CostModel& cost = {});

  /// Refreshes and returns the cached per-graph features. Degree stats are
  /// recomputed whenever (n, arcs) changes; the planning BFS re-runs when
  /// the arc count drifts more than 5% from the last profiled graph (an
  /// insertion stream changes levels slowly).
  const GraphFeatures& graph_features(const CSRGraph& g,
                                      VertexId sample_source);

  /// Feature builders used by every engine, kept here so every engine
  /// builds the same decision inputs.
  static DecisionFeatures static_features(int source_index,
                                          const GraphFeatures& gf);
  static DecisionFeatures update_features(LaunchKind kind, int source_index,
                                          const GraphFeatures& gf, Dist d_low);
  static DecisionFeatures batch_features(int source_index,
                                         const GraphFeatures& gf,
                                         double case2_edges,
                                         double case3_edges, Dist min_d_low);

  /// The decision: records it in the log, bumps bc.adaptive.* counters,
  /// returns the mapping the launch must run for this source.
  Parallelism decide(const DecisionFeatures& f);

  /// Post-launch observation for one decided source: the modeled cycles
  /// the chosen kernel actually cost and how many vertices it touched.
  /// Updates the (kind, mode) cost rate and the kind's touched-set scale.
  void feedback(const DecisionFeatures& f, Parallelism mode, double cycles,
                VertexId touched);

  /// Predicted modeled cycles of running `f` with `mode`, including the
  /// learned rate calibration. Pure (const) - decide() is a comparison of
  /// these two numbers plus the exploration hash.
  double estimate_cycles(const DecisionFeatures& f, Parallelism mode) const;

  /// Scheduling weight for LPT sharding / work-queue ordering: the cost
  /// estimate compressed to the int64 scale the schedulers expect.
  std::int64_t job_weight(const DecisionFeatures& f, Parallelism mode) const;

  /// Pre-launch planning, one call per kernel launch. Each classifies the
  /// launch's work per source from host-readable state (the store's dist
  /// rows), builds that source's DecisionFeatures, and calls decide() in
  /// source-index order, so the same run makes the same decisions.
  /// Planning happens host-side and charges nothing to the modeled device
  /// (the same information a real driver has before enqueueing).
  LaunchPlan plan_static(const CSRGraph& g, const BcStore& store);
  /// One single-edge update of {u, v}. `g` is the post-update graph: with
  /// the edge for an insertion, without it for a removal (the kernels'
  /// classify_removal decides Case 2 against Case 3 here too).
  LaunchPlan plan_update(bool removal, const CSRGraph& g, const BcStore& store,
                         VertexId u, VertexId v);
  /// `g` is the batch's final graph; per-edge classification reads the
  /// pre-batch dist rows (the same approximation as batch_job_weight).
  LaunchPlan plan_batch(const CSRGraph& g, const BcStore& store,
                        const BatchSnapshots& batch);

  /// Post-launch: feeds every decided source's measured modeled cycles
  /// (and touched count, when the launch reports one) back into the cost
  /// arms. Empty spans mean "no measurement".
  void apply_feedback(const LaunchPlan& plan, std::span<const double> cycles,
                      std::span<const VertexId> touched);

  /// Scheduling weight of source si under `plan` (0 when undecided):
  /// the LPT/work-queue input when a policy is active.
  std::int64_t planned_weight(const LaunchPlan& plan, int si) const;

  const std::vector<DecisionRecord>& log() const { return log_; }
  std::uint64_t decisions(Parallelism mode) const;
  std::uint64_t explored() const { return explored_; }
  const AdaptiveConfig& config() const { return config_; }

  /// One decision log line: "seq kind source mode explored est_edge
  /// est_node" - the format bcdyn_trace --decisions writes.
  static std::string record_line(const DecisionRecord& rec);

 private:
  struct Arm {
    double rate = 1.0;    // observed cycles / predicted base cycles (EWMA)
    double samples = 0.0;
  };

  double base_estimate(const DecisionFeatures& f, Parallelism mode) const;
  double edge_arc_sweep(const GraphFeatures& gf) const;
  double vertex_scan(const GraphFeatures& gf) const;
  double node_traversal(const GraphFeatures& gf, double vertices,
                        double level_share) const;
  double touched_estimate(const DecisionFeatures& f) const;

  AdaptiveConfig config_;
  sim::DeviceSpec spec_;
  sim::CostModel cost_;

  // Per-graph feature cache.
  GraphFeatures graph_;
  VertexId cached_n_ = -1;
  EdgeId cached_arcs_ = -1;
  EdgeId profiled_arcs_ = -1;  // arc count at the last planning BFS

  Arm arms_[kNumLaunchKinds][2];     // [kind][mode]
  double touched_scale_[kNumLaunchKinds] = {1, 1, 1, 1, 1, 1};
  double touched_samples_[kNumLaunchKinds] = {0, 0, 0, 0, 0, 0};

  std::vector<DecisionRecord> log_;
  std::uint64_t edge_decisions_ = 0;
  std::uint64_t node_decisions_ = 0;
  std::uint64_t explored_ = 0;

  // BFS scratch for the planning profile (reused across refreshes).
  std::vector<Dist> plan_dist_;
  std::vector<VertexId> plan_frontier_;
  std::vector<VertexId> plan_next_;
};

/// The per-source launches every GPU engine issues. The kind prefixes the
/// launch name, which labels traces, metrics, hazard reports and fault
/// sites ("dev.launch.insert.edge"), so seeded chaos runs replay only while
/// these names stay put.
enum class SourceLaunchKind { kStatic, kInsert, kRemove, kBatch };

/// One per-source GPU launch's share of the adaptive protocol, common to
/// every DynamicGpuBc launch on a device or a group (the static pass, the
/// updates and the batches): the mode each source runs, the launch name
/// "<kind>.<edge|node|adaptive>", the per-source modeled cycles and the
/// post-launch feedback. Without a policy every source runs the engine's
/// fixed mode and nothing is timed or fed back. With one, the constructor
/// plans the launch through `planner`, run() times each source's job, and
/// feedback() hands the cycles (and touched counts) back to the policy.
class PlannedLaunch {
 public:
  using Planner = std::function<LaunchPlan(ParallelismPolicy&)>;

  /// `planner` runs once, here, when `policy` is non-null; every planner
  /// returns one entry per source of the store it plans.
  PlannedLaunch(SourceLaunchKind kind, ParallelismPolicy* policy,
                Parallelism fixed, const Planner& planner);

  const std::string& name() const { return name_; }
  bool adaptive() const { return policy_ != nullptr; }

  /// Runs source si's job as `job(mode)` on `ctx`, recording the modeled
  /// cycles it charged when a policy will want them back.
  template <typename Job>
  void run(sim::BlockContext& ctx, int si, Job&& job) {
    const Parallelism m = mode(si);
    const double c0 = ctx.cycles();
    job(m);
    if (!cycles_.empty()) {
      cycles_[static_cast<std::size_t>(si)] = ctx.cycles() - c0;
    }
  }

  /// The policy's per-source scheduling weights (0 for undecided sources):
  /// the LPT/queue input of a planned launch. Requires adaptive().
  std::vector<std::int64_t> planned_weights() const;

  /// Feeds the measured cycles back into the policy (no-op without one).
  /// An empty `touched` means the launch reports no touched counts.
  void feedback(std::span<const VertexId> touched = {});

  /// Same, reading each source's touched count as touched_of(outcomes[si]).
  template <typename Outcomes, typename TouchedOf>
  void feedback(const Outcomes& outcomes, TouchedOf touched_of) {
    if (policy_ == nullptr) return;
    std::vector<VertexId> touched(outcomes.size(), 0);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      touched[i] = std::invoke(touched_of, outcomes[i]);
    }
    feedback(touched);
  }

 private:
  Parallelism mode(int si) const { return plan_.mode_or(si, fixed_); }

  ParallelismPolicy* policy_;
  Parallelism fixed_;
  std::string name_;
  LaunchPlan plan_;
  std::vector<double> cycles_;  // per source; sized only under a policy
};

}  // namespace bcdyn
