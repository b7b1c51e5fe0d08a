#include "bc/adaptive_policy.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "bc/batch_update.hpp"
#include "bc/case_classify.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace bcdyn {

namespace {

/// splitmix64: the exploration hash. A pure function of (features, seed) so
/// identical features always probe identically - never a call counter.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t probe_hash(const DecisionFeatures& f, std::uint64_t seed) {
  std::uint64_t h = mix64(seed ^ 0xada9717ef00dULL);
  h = mix64(h ^ static_cast<std::uint64_t>(f.kind));
  h = mix64(h ^ static_cast<std::uint64_t>(f.source_index));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(f.d_low));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(f.levels));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(f.graph.arcs));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(f.graph.n));
  return h;
}

/// kRecompute prices the same per-source kernels as kStatic, so it reads
/// the static arm.
int arm_index(LaunchKind kind) {
  if (kind == LaunchKind::kRecompute) return static_cast<int>(LaunchKind::kStatic);
  return static_cast<int>(kind);
}

constexpr const char* kKindNames[kNumLaunchKinds] = {
    "static", "insert-case2", "case3", "removal", "recompute", "batch"};

/// Pre-composed counter names: decide() runs per source per launch, so no
/// string assembly on the hot path.
constexpr const char* kKindModeCounter[kNumLaunchKinds][2] = {
    {"bc.adaptive.static.edge.count", "bc.adaptive.static.node.count"},
    {"bc.adaptive.case2.edge.count", "bc.adaptive.case2.node.count"},
    {"bc.adaptive.case3.edge.count", "bc.adaptive.case3.node.count"},
    {"bc.adaptive.removal.edge.count", "bc.adaptive.removal.node.count"},
    {"bc.adaptive.recompute.edge.count", "bc.adaptive.recompute.node.count"},
    {"bc.adaptive.batch.edge.count", "bc.adaptive.batch.node.count"},
};

double clamp_rate(double r) { return std::clamp(r, 1.0 / 32.0, 32.0); }

}  // namespace

const char* to_string(LaunchKind kind) {
  const int i = static_cast<int>(kind);
  if (i < 0 || i >= kNumLaunchKinds) return "?";
  return kKindNames[i];
}

ParallelismPolicy::ParallelismPolicy(const AdaptiveConfig& config,
                                     const sim::DeviceSpec& spec,
                                     const sim::CostModel& cost)
    : config_(config), spec_(spec), cost_(cost) {}

const GraphFeatures& ParallelismPolicy::graph_features(const CSRGraph& g,
                                                       VertexId sample_source) {
  const VertexId n = g.num_vertices();
  const EdgeId arcs = g.num_arcs();
  if (n == cached_n_ && arcs == cached_arcs_) return graph_;

  graph_.n = static_cast<double>(n);
  graph_.arcs = static_cast<double>(arcs);
  graph_.avg_degree = n > 0 ? graph_.arcs / graph_.n : 0.0;
  double max_deg = 0.0;
  double sq_sum = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    const double deg = static_cast<double>(g.degree(v));
    max_deg = std::max(max_deg, deg);
    const double diff = deg - graph_.avg_degree;
    sq_sum += diff * diff;
  }
  graph_.max_degree = max_deg;
  graph_.degree_cv =
      (n > 0 && graph_.avg_degree > 0.0)
          ? std::sqrt(sq_sum / graph_.n) / graph_.avg_degree
          : 0.0;
  cached_n_ = n;
  cached_arcs_ = arcs;

  // The planning BFS is the expensive part; an insertion stream changes the
  // level structure slowly, so re-profile only on >5% arc drift.
  const bool reprofile =
      profiled_arcs_ < 0 ||
      std::abs(static_cast<double>(arcs - profiled_arcs_)) >
          0.05 * static_cast<double>(profiled_arcs_);
  if (!reprofile || n == 0) return graph_;
  profiled_arcs_ = arcs;

  const auto threads = static_cast<double>(spec_.threads_per_block);
  plan_dist_.assign(static_cast<std::size_t>(n), kInfDist);
  plan_frontier_.clear();
  plan_next_.clear();
  if (sample_source >= 0 && sample_source < n) {
    plan_dist_[static_cast<std::size_t>(sample_source)] = 0;
    plan_frontier_.push_back(sample_source);
  }
  double levels = 0.0;
  double rounds = 0.0;
  double divergence = 0.0;
  double reached = plan_frontier_.empty() ? 0.0 : 1.0;
  Dist depth = 0;
  while (!plan_frontier_.empty()) {
    rounds += std::ceil(static_cast<double>(plan_frontier_.size()) / threads);
    double level_max_deg = 0.0;
    plan_next_.clear();
    for (const VertexId v : plan_frontier_) {
      level_max_deg = std::max(level_max_deg, static_cast<double>(g.degree(v)));
      for (const VertexId w : g.neighbors(v)) {
        auto& dw = plan_dist_[static_cast<std::size_t>(w)];
        if (dw == kInfDist) {
          dw = depth + 1;
          plan_next_.push_back(w);
        }
      }
    }
    divergence += level_max_deg;
    if (!plan_next_.empty()) {
      ++levels;
      reached += static_cast<double>(plan_next_.size());
    }
    plan_frontier_.swap(plan_next_);
    ++depth;
  }
  graph_.levels = std::max(1.0, levels);
  graph_.frontier_rounds = std::max(1.0, rounds);
  graph_.divergence_sum = divergence;
  graph_.reached = std::max(1.0, reached);
  return graph_;
}

DecisionFeatures ParallelismPolicy::static_features(int source_index,
                                                    const GraphFeatures& gf) {
  DecisionFeatures f;
  f.kind = LaunchKind::kStatic;
  f.source_index = source_index;
  f.graph = gf;
  f.levels = gf.levels;
  f.d_low = 0.0;
  return f;
}

DecisionFeatures ParallelismPolicy::update_features(LaunchKind kind,
                                                    int source_index,
                                                    const GraphFeatures& gf,
                                                    Dist d_low) {
  DecisionFeatures f;
  f.kind = kind;
  f.source_index = source_index;
  f.graph = gf;
  // A previously-unreachable endpoint (component attach) classifies with
  // d_low = kInfDist; treat it as a deepest-level update.
  const double depth =
      std::min(static_cast<double>(std::min<Dist>(d_low, kInfDist)), gf.levels);
  f.d_low = depth;
  f.levels = std::max(1.0, gf.levels - depth);
  if (kind == LaunchKind::kStatic) f.levels = gf.levels;
  return f;
}

DecisionFeatures ParallelismPolicy::batch_features(int source_index,
                                                   const GraphFeatures& gf,
                                                   double case2_edges,
                                                   double case3_edges,
                                                   Dist min_d_low) {
  DecisionFeatures f =
      update_features(LaunchKind::kBatch, source_index, gf, min_d_low);
  f.kind = LaunchKind::kBatch;
  f.batch_case2 = case2_edges;
  f.batch_case3 = case3_edges;
  return f;
}

// ---------------------------------------------------------------------------
// Cost shapes. Only the edge/node *ratio* steers decisions; absolute scale
// is calibrated online by the per-(kind, mode) rate arms. The shapes encode
// the paper's asymmetry: edge-parallel pays the whole arc list every level
// (cost ~ levels x arcs), node-parallel pays the touched set plus SIMT
// divergence on its heaviest frontier vertices (cost ~ touched x degree +
// per-level max-degree chains).
// ---------------------------------------------------------------------------

double ParallelismPolicy::edge_arc_sweep(const GraphFeatures& gf) const {
  const double threads = static_cast<double>(spec_.threads_per_block);
  const double rounds = std::ceil(gf.arcs / threads);
  // ~3.3 reads per arc hit the throughput term; a relaxing arc's latency
  // chain (reads + one atomic) bounds the round max.
  return gf.arcs * 3.3 * cost_.read_throughput_cycles +
         rounds * (cost_.round_issue_cycles + 80.0) + cost_.barrier_cycles;
}

double ParallelismPolicy::vertex_scan(const GraphFeatures& gf) const {
  const double threads = static_cast<double>(spec_.threads_per_block);
  const double rounds = std::ceil(gf.n / threads);
  return gf.n * (2.0 * cost_.read_throughput_cycles +
                 1.5 * cost_.write_throughput_cycles) +
         rounds * (cost_.round_issue_cycles + 60.0) + cost_.barrier_cycles;
}

double ParallelismPolicy::node_traversal(const GraphFeatures& gf,
                                         double vertices,
                                         double level_share) const {
  const double share = std::clamp(level_share, 0.0, 1.0);
  const double frac = gf.reached > 0.0 ? vertices / gf.reached : 1.0;
  // Throughput: per-vertex queue/row reads plus per-neighbor distance and
  // sigma traffic (a share of the neighbors win their relaxation atomic).
  const double traffic =
      vertices * (4.0 * cost_.read_throughput_cycles +
                  gf.avg_degree * (2.5 * cost_.read_throughput_cycles +
                                   0.6 * cost_.atomic_throughput_cycles));
  // Divergence: each frontier round is as slow as its highest-degree
  // vertex's neighbor chain. The sample profile gives the per-level max
  // degrees; a partial traversal sees a share of the levels and (scaled by
  // its touched fraction) of the per-round maxima.
  const double divergence =
      share * std::min(1.0, frac + 0.25) * gf.divergence_sum * 40.0;
  const double rounds = share * gf.frontier_rounds *
                        (cost_.round_issue_cycles + 48.0);
  const double barriers = share * gf.levels * 2.0 * cost_.barrier_cycles;
  return traffic + divergence + rounds + barriers;
}

double ParallelismPolicy::touched_estimate(const DecisionFeatures& f) const {
  const GraphFeatures& gf = f.graph;
  const double share = std::clamp(f.levels / gf.levels, 0.0, 1.0);
  const double base = std::max(8.0, gf.reached * share * 0.25);
  const double scale = touched_scale_[arm_index(f.kind)];
  return std::min(gf.n, base * scale);
}

double ParallelismPolicy::base_estimate(const DecisionFeatures& f,
                                        Parallelism mode) const {
  const GraphFeatures& gf = f.graph;
  const bool edge = mode == Parallelism::kEdge;
  switch (f.kind) {
    case LaunchKind::kStatic:
    case LaunchKind::kRecompute: {
      if (edge) {
        return (2.0 * gf.levels + 1.0) * edge_arc_sweep(gf) + vertex_scan(gf);
      }
      return 2.0 * node_traversal(gf, gf.reached, 1.0) + vertex_scan(gf);
    }
    case LaunchKind::kInsertCase2:
    case LaunchKind::kRemoval: {
      if (edge) {
        // BFS sweeps cover the touched levels; the dependency stage sweeps
        // the full arc list from the deepest touched level back to depth 1.
        return (2.0 * f.levels + f.d_low) * edge_arc_sweep(gf) +
               2.0 * vertex_scan(gf);
      }
      const double touched = touched_estimate(f);
      const double share = f.levels / gf.levels;
      const double sort =
          touched * std::pow(std::log2(std::max(4.0, touched)), 2.0) * 0.5;
      return 2.0 * node_traversal(gf, touched, share) + sort +
             2.0 * vertex_scan(gf);
    }
    case LaunchKind::kCase3: {
      if (edge) {
        // Per ascending level: two vertex scans (E1, E3a) and two arc
        // sweeps (E2, E3b); then the pre-pass sweep and the descending
        // dependency sweeps from the deepest level back to 1. A removal's
        // repair fuses its levels into one sweep each (DESIGN.md §7); the
        // shared arm's learned rate absorbs the difference.
        return f.levels * (2.0 * edge_arc_sweep(gf) + 2.0 * vertex_scan(gf)) +
               (f.levels + f.d_low + 1.0) * edge_arc_sweep(gf) +
               2.0 * vertex_scan(gf);
      }
      const double touched = touched_estimate(f);
      const double share = f.levels / gf.levels;
      const double sort =
          touched * std::pow(std::log2(std::max(4.0, touched)), 2.0) * 0.5;
      return 3.0 * node_traversal(gf, touched, share) + sort +
             2.0 * vertex_scan(gf);
    }
    case LaunchKind::kBatch: {
      // A job replays its case-2/case-3 edges in sequence; approximate with
      // the per-kind shapes at the job's (min) depth. Capped at one static
      // recompute: a job whose touched set keeps growing falls back to the
      // recompute path instead of paying every incremental edge.
      DecisionFeatures per = f;
      per.kind = LaunchKind::kInsertCase2;
      const double c2 = base_estimate(per, mode);
      per.kind = LaunchKind::kCase3;
      const double c3 = base_estimate(per, mode);
      per.kind = LaunchKind::kRecompute;
      const double cap = base_estimate(per, mode);
      return std::min(f.batch_case2 * c2 + f.batch_case3 * c3, cap) +
             vertex_scan(gf);
    }
  }
  return 1.0;
}

double ParallelismPolicy::estimate_cycles(const DecisionFeatures& f,
                                          Parallelism mode) const {
  const Arm& arm = arms_[arm_index(f.kind)][mode == Parallelism::kEdge ? 0 : 1];
  return base_estimate(f, mode) * arm.rate;
}

std::int64_t ParallelismPolicy::job_weight(const DecisionFeatures& f,
                                           Parallelism mode) const {
  const double est = estimate_cycles(f, mode);
  return std::max<std::int64_t>(1, std::llround(est / 1024.0));
}

Parallelism ParallelismPolicy::decide(const DecisionFeatures& f) {
  DecisionRecord rec;
  rec.seq = static_cast<std::uint64_t>(log_.size());
  rec.kind = f.kind;
  rec.source_index = f.source_index;
  rec.est_edge_cycles = estimate_cycles(f, Parallelism::kEdge);
  rec.est_node_cycles = estimate_cycles(f, Parallelism::kNode);

  if (replay_) {
    if (replay_cursor_ >= replay_->size()) {
      throw std::runtime_error(
          "ParallelismPolicy::decide: replay log exhausted at seq " +
          std::to_string(rec.seq));
    }
    const DecisionRecord& want = (*replay_)[replay_cursor_++];
    if (want.kind != f.kind || want.source_index != f.source_index) {
      throw std::runtime_error(
          "ParallelismPolicy::decide: replay divergence at seq " +
          std::to_string(rec.seq) + " (logged " +
          std::string(to_string(want.kind)) + "/source " +
          std::to_string(want.source_index) + ", got " +
          std::string(to_string(f.kind)) + "/source " +
          std::to_string(f.source_index) + ")");
    }
    rec.mode = want.mode;
    rec.explored = want.explored;
  } else {
    rec.mode = rec.est_node_cycles <= rec.est_edge_cycles ? Parallelism::kNode
                                                          : Parallelism::kEdge;
    if (config_.explore_period > 0) {
      const double lo = std::min(rec.est_edge_cycles, rec.est_node_cycles);
      const double hi = std::max(rec.est_edge_cycles, rec.est_node_cycles);
      if (hi <= lo * config_.explore_margin &&
          probe_hash(f, config_.seed) %
                  static_cast<std::uint64_t>(config_.explore_period) ==
              0) {
        rec.mode = rec.mode == Parallelism::kEdge ? Parallelism::kNode
                                                  : Parallelism::kEdge;
        rec.explored = true;
      }
    }
  }

  if (rec.mode == Parallelism::kEdge) {
    ++edge_decisions_;
  } else {
    ++node_decisions_;
  }
  if (rec.explored) ++explored_;
  auto& reg = trace::metrics();
  reg.add("bc.adaptive.decisions.count");
  reg.add(rec.mode == Parallelism::kEdge ? "bc.adaptive.edge.count"
                                         : "bc.adaptive.node.count");
  if (rec.explored) reg.add("bc.adaptive.explore.count");
  reg.add(kKindModeCounter[static_cast<int>(f.kind)]
                          [rec.mode == Parallelism::kEdge ? 0 : 1]);

  log_.push_back(rec);
  return rec.mode;
}

void ParallelismPolicy::feedback(const DecisionFeatures& f, Parallelism mode,
                                 double cycles, VertexId touched) {
  if (cycles <= 0.0) return;
  const int kind = arm_index(f.kind);
  Arm& arm = arms_[kind][mode == Parallelism::kEdge ? 0 : 1];
  const double base = base_estimate(f, mode);
  if (base > 0.0) {
    const double obs = clamp_rate(cycles / base);
    arm.rate = arm.samples == 0.0 ? obs : 0.75 * arm.rate + 0.25 * obs;
    arm.rate = clamp_rate(arm.rate);
    arm.samples += 1.0;
  }
  if (touched > 0 && (f.kind == LaunchKind::kInsertCase2 ||
                      f.kind == LaunchKind::kCase3 ||
                      f.kind == LaunchKind::kRemoval ||
                      f.kind == LaunchKind::kBatch)) {
    const GraphFeatures& gf = f.graph;
    const double share = std::clamp(f.levels / gf.levels, 0.0, 1.0);
    const double base_touched = std::max(8.0, gf.reached * share * 0.25);
    const double obs = clamp_rate(static_cast<double>(touched) / base_touched);
    double& scale = touched_scale_[kind];
    scale = touched_samples_[kind] == 0.0 ? obs : 0.75 * scale + 0.25 * obs;
    scale = clamp_rate(scale);
    touched_samples_[kind] += 1.0;
  }
  auto& reg = trace::metrics();
  reg.add("bc.adaptive.feedback.count");
  const double est = estimate_cycles(f, mode);
  if (est > 0.0) reg.observe("bc.adaptive.est_ratio", est / cycles);
}

namespace {

LaunchPlan make_plan(int k) {
  LaunchPlan plan;
  plan.modes.assign(static_cast<std::size_t>(k), Parallelism::kNode);
  plan.features.resize(static_cast<std::size_t>(k));
  plan.decided.assign(static_cast<std::size_t>(k), 0);
  return plan;
}

}  // namespace

LaunchPlan ParallelismPolicy::plan_static(const CSRGraph& g,
                                          const BcStore& store) {
  const int k = store.num_sources();
  LaunchPlan plan = make_plan(k);
  if (k == 0) return plan;
  trace::Span span("bc.adaptive.plan", "bc",
                   {{"sources", static_cast<double>(k)}});
  const GraphFeatures& gf = graph_features(g, store.sources()[0]);
  for (int si = 0; si < k; ++si) {
    const auto i = static_cast<std::size_t>(si);
    plan.features[i] = static_features(si, gf);
    plan.modes[i] = decide(plan.features[i]);
    plan.decided[i] = 1;
  }
  return plan;
}

LaunchPlan ParallelismPolicy::plan_update(bool removal, const CSRGraph& g,
                                          const BcStore& store, VertexId u,
                                          VertexId v) {
  const int k = store.num_sources();
  LaunchPlan plan = make_plan(k);
  if (k == 0) return plan;
  trace::Span span("bc.adaptive.plan", "bc",
                   {{"sources", static_cast<double>(k)}});
  const GraphFeatures& gf = graph_features(g, store.sources()[0]);
  for (int si = 0; si < k; ++si) {
    const auto d = store.dist_row(si);
    const CaseInfo info =
        removal ? classify_removal(g, d, u, v, [](VertexId) {})
                : classify_insertion(d, u, v);
    if (info.update_case == UpdateCase::kNoWork) continue;
    const LaunchKind kind = info.update_case == UpdateCase::kFar
                                ? LaunchKind::kCase3
                            : removal ? LaunchKind::kRemoval
                                      : LaunchKind::kInsertCase2;
    const auto i = static_cast<std::size_t>(si);
    plan.features[i] = update_features(
        kind, si, gf, d[static_cast<std::size_t>(info.u_low)]);
    plan.modes[i] = decide(plan.features[i]);
    plan.decided[i] = 1;
  }
  return plan;
}

LaunchPlan ParallelismPolicy::plan_batch(const CSRGraph& g,
                                         const BcStore& store,
                                         const BatchSnapshots& batch) {
  const int k = store.num_sources();
  LaunchPlan plan = make_plan(k);
  if (k == 0 || batch.empty()) return plan;
  trace::Span span("bc.adaptive.plan", "bc",
                   {{"sources", static_cast<double>(k)},
                    {"edges", static_cast<double>(batch.edges.size())}});
  const GraphFeatures& gf = graph_features(g, store.sources()[0]);
  for (int si = 0; si < k; ++si) {
    const auto d = store.dist_row(si);
    double case2 = 0.0;
    double case3 = 0.0;
    Dist min_d_low = kInfDist;
    for (const auto& [eu, ev] : batch.edges) {
      const CaseInfo info = classify_insertion(d, eu, ev);
      if (info.update_case == UpdateCase::kNoWork) continue;
      if (info.update_case == UpdateCase::kAdjacent) {
        case2 += 1.0;
      } else {
        case3 += 1.0;
      }
      min_d_low =
          std::min(min_d_low, d[static_cast<std::size_t>(info.u_low)]);
    }
    if (case2 + case3 == 0.0) continue;  // all case 1: the job is free
    const auto i = static_cast<std::size_t>(si);
    plan.features[i] = batch_features(si, gf, case2, case3, min_d_low);
    plan.modes[i] = decide(plan.features[i]);
    plan.decided[i] = 1;
  }
  return plan;
}

void ParallelismPolicy::apply_feedback(const LaunchPlan& plan,
                                       std::span<const double> cycles,
                                       std::span<const VertexId> touched) {
  for (std::size_t i = 0; i < plan.decided.size(); ++i) {
    if (!plan.decided[i]) continue;
    const double c = i < cycles.size() ? cycles[i] : 0.0;
    const VertexId t = i < touched.size() ? touched[i] : 0;
    feedback(plan.features[i], plan.modes[i], c, t);
  }
}

std::int64_t ParallelismPolicy::planned_weight(const LaunchPlan& plan,
                                               int si) const {
  const auto i = static_cast<std::size_t>(si);
  if (i >= plan.decided.size() || !plan.decided[i]) return 0;
  return job_weight(plan.features[i], plan.modes[i]);
}

void ParallelismPolicy::replay(std::vector<DecisionRecord> log) {
  replay_ = std::move(log);
  replay_cursor_ = 0;
  log_.clear();
}

std::uint64_t ParallelismPolicy::decisions(Parallelism mode) const {
  return mode == Parallelism::kEdge ? edge_decisions_ : node_decisions_;
}

std::string ParallelismPolicy::record_line(const DecisionRecord& rec) {
  std::ostringstream out;
  out << rec.seq << ' ' << to_string(rec.kind) << ' ' << rec.source_index
      << ' ' << (rec.mode == Parallelism::kEdge ? "edge" : "node") << ' '
      << (rec.explored ? 1 : 0) << ' ' << rec.est_edge_cycles << ' '
      << rec.est_node_cycles;
  return out.str();
}

namespace {

const char* launch_prefix(SourceLaunchKind kind) {
  switch (kind) {
    case SourceLaunchKind::kStatic:
      return "static_bc";
    case SourceLaunchKind::kInsert:
      return "insert";
    case SourceLaunchKind::kRemove:
      return "remove";
    case SourceLaunchKind::kBatch:
      return "batch";
  }
  return "kernel";
}

}  // namespace

PlannedLaunch::PlannedLaunch(SourceLaunchKind kind, ParallelismPolicy* policy,
                             Parallelism fixed, const Planner& planner)
    : policy_(policy),
      fixed_(fixed),
      name_(std::string(launch_prefix(kind)) + "." +
            (policy != nullptr             ? "adaptive"
             : fixed == Parallelism::kEdge ? "edge"
                                           : "node")) {
  if (policy_ == nullptr) return;
  plan_ = planner(*policy_);
  cycles_.assign(plan_.modes.size(), 0.0);
}

std::vector<std::int64_t> PlannedLaunch::planned_weights() const {
  std::vector<std::int64_t> weights(plan_.modes.size(), 0);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = policy_->planned_weight(plan_, static_cast<int>(i));
  }
  return weights;
}

void PlannedLaunch::feedback(std::span<const VertexId> touched) {
  if (policy_ != nullptr) policy_->apply_feedback(plan_, cycles_, touched);
}

}  // namespace bcdyn
