// Workload driver of the two-clock benchmark; run.py builds and runs it.
//
//   perfbench_driver --workload window-pref|edge-router|serve-mixed
//                    --seed N --seconds S --trace 0|1
//
// Each workload's graph and update stream are a pure function of
// (workload, seed) and are generated here, so the library only ever sees
// generated inputs, through its front door (bc::Session / bc::Service).
//
//   --trace 0  end-to-end run with tracing off: the stream, sized to
//              --seconds, is replayed on kReplays freshly built front doors
//              and each host-wall metric is read from the fastest replays.
//   --trace 1  the same replays, then one more with
//              Runtime{.tracing = true} and this driver's spans around each
//              front-door call. The traced replay's host time is split
//              across the layers; all replays must agree bit for bit.
//
// Every run regenerates its inputs to confirm generation is seeded, checks
// the final scores against verify_against_recompute(), and prints one JSON
// object on stdout: {"correct", "attempted", "failed", "metrics", "detail"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bc/api.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"

using namespace bcdyn;

namespace {

using Clock = std::chrono::steady_clock;
using Edge = std::pair<VertexId, VertexId>;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads ------------------------------------------------------------

constexpr int kSources = 16;
/// Sliding window: after the first kWindow inserts, step i also removes
/// the edge inserted kWindow steps earlier, so the graph keeps its size.
constexpr std::size_t kWindow = 8;
/// A run builds a fresh Session (serve-mixed: Service) kReplays times and
/// plays the same stream on each; final scores and exact counts must agree
/// across the replays bit for bit. setup_s is the median over the replays.
/// A call's host wall is that of its fastest replay: other tenants of the
/// machine only ever add time, and a run then reads the program's own cost
/// rather than how busy the machine was.
constexpr std::size_t kReplays = 5;
/// Front-door calls per single-edge replay at least: p90 needs ten samples
/// above it.
constexpr std::size_t kMinCalls = 100;
/// Calls between two moves to the fastest CPU (see CpuPicker).
constexpr std::size_t kRepinCalls = 10;
/// Single-edge streams have no reads; their read_p99_us is this quantile of
/// the wait until fresh scores over the replay. The 1% tail of a hundred
/// calls is one call, so p99 would flip with it; p95 is the highest
/// quantile the replay supports.
constexpr double kReaderQuantile = 0.95;
/// serve-mixed: each replay sends the whole request stream (90% reads, 5 us
/// apart on average) to one Service::run() call: slicing it would change
/// coalescing.
constexpr std::size_t kMinRequests = 1200;  // at least 1000 reads for p99
constexpr double kInterarrival = 5e-6;
constexpr int kClients = 4;
/// The repository's batch contract, relative to the largest score.
constexpr double kTolerance = 1e-7;

struct Workload {
  std::string_view name;
  EngineKind engine;
  int devices;
  bool service;
  std::uint64_t salt;
  /// Calls (serve-mixed: requests) per replay per second of --seconds,
  /// about what an idle core plays. The stream's length follows --seconds,
  /// never the clock, so a slow machine measures the same calls.
  double rate;
};

constexpr Workload kWorkloads[] = {
    {"window-pref", EngineKind::kGpuNode, 1, false, 0x77696e64ULL, 16},
    {"edge-router", EngineKind::kGpuEdge, 1, false, 0x726f7574ULL, 17},
    {"serve-mixed", EngineKind::kGpuAdaptive, 2, true, 0x73657276ULL, 600},
};

// ---- seeded generation ----------------------------------------------------

/// SplitMix64. The benchmark owns its generator and graph models so its
/// inputs stay fixed when the library's generators change.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
  VertexId vertex(VertexId n) {
    return static_cast<VertexId>(below(static_cast<std::uint64_t>(n)));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

std::uint64_t edge_key(VertexId u, VertexId v) {
  const auto lo = static_cast<std::uint32_t>(std::min(u, v));
  const auto hi = static_cast<std::uint32_t>(std::max(u, v));
  return (std::uint64_t{lo} << 32) | hi;
}

/// Undirected simple-graph edge list under construction.
struct EdgeSet {
  VertexId n = 0;
  std::vector<Edge> edges;
  std::unordered_set<std::uint64_t> keys;

  bool add(VertexId u, VertexId v) {
    if (u == v || !keys.insert(edge_key(u, v)).second) return false;
    edges.emplace_back(u, v);
    return true;
  }
};

/// Barabasi-Albert: each arriving vertex attaches d edges to endpoints
/// drawn from the degree urn.
EdgeSet preferential_attachment(VertexId n, int d, Rand& rng) {
  EdgeSet g;
  g.n = n;
  std::vector<VertexId> urn;
  for (VertexId u = 0; u <= d; ++u) {
    for (VertexId v = u + 1; v <= d; ++v) {
      g.add(u, v);
      urn.insert(urn.end(), {u, v});
    }
  }
  for (VertexId v = d + 1; v < n; ++v) {
    for (int attached = 0, tries = 0; attached < d; ++tries) {
      const VertexId t = tries < 32 * d ? urn[rng.below(urn.size())]
                                        : rng.vertex(v);
      if (g.add(v, t)) {
        urn.insert(urn.end(), {v, t});
        ++attached;
      }
    }
  }
  return g;
}

/// Three-tier router topology: a meshed core (0.5%), a preferentially
/// attached mid tier (19.5%), and leaves with one or two uplinks.
EdgeSet router_level(VertexId n, Rand& rng) {
  EdgeSet g;
  g.n = n;
  const VertexId core = std::max<VertexId>(8, n / 200);
  const VertexId mid = n / 5;
  std::vector<VertexId> urn;
  for (VertexId v = 0; v < core; ++v) {
    g.add(v, (v + 1) % core);
    for (VertexId w = v + 1; w < core; ++w) {
      if (rng.unit() < 0.25) g.add(v, w);
    }
    urn.push_back(v);
  }
  for (VertexId v = core; v < mid; ++v) {
    const int uplinks = 2 + static_cast<int>(rng.below(2));
    for (int j = 0; j < uplinks; ++j) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        const VertexId t = urn[rng.below(urn.size())];
        if (g.add(v, t)) {
          urn.push_back(t);
          break;
        }
      }
    }
    urn.push_back(v);
  }
  for (VertexId v = mid; v < n; ++v) {
    const int uplinks = rng.unit() < 0.3 ? 2 : 1;
    for (int j = 0; j < uplinks; ++j) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        if (g.add(v, core + rng.vertex(mid - core))) break;
      }
    }
  }
  return g;
}

/// Watts-Strogatz: ring lattice with k neighbours per side, each lattice
/// edge rewired with probability p.
EdgeSet small_world(VertexId n, int k, double p, Rand& rng) {
  EdgeSet g;
  g.n = n;
  for (VertexId v = 0; v < n; ++v) {
    for (int j = 1; j <= k; ++j) {
      bool placed = false;
      if (rng.unit() < p) {
        for (int attempt = 0; attempt < 8 && !placed; ++attempt) {
          placed = g.add(v, rng.vertex(n));
        }
      }
      if (!placed) g.add(v, (v + j) % n);
    }
  }
  return g;
}

struct Op {
  bool insert = true;
  VertexId u = 0;
  VertexId v = 0;
};

struct Inputs {
  VertexId n = 0;
  std::vector<Edge> edges;
  std::vector<Op> ops;                // single-edge workloads
  std::vector<bc::Request> requests;  // serve-mixed
  std::uint64_t sources_seed = 0;     // picks the k sampled sources

  /// FNV-1a over every generated byte that reaches the library.
  std::uint64_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void* data, std::size_t size) {
      const auto* p = static_cast<const unsigned char*>(data);
      for (std::size_t i = 0; i < size; ++i) {
        h = (h ^ p[i]) * 0x100000001b3ULL;
      }
    };
    mix(&n, sizeof n);
    mix(&sources_seed, sizeof sources_seed);
    for (const auto& [u, v] : edges) {
      mix(&u, sizeof u);
      mix(&v, sizeof v);
    }
    for (const Op& op : ops) {
      const unsigned char ins = op.insert ? 1 : 0;
      mix(&ins, 1);
      mix(&op.u, sizeof op.u);
      mix(&op.v, sizeof op.v);
    }
    for (const bc::Request& r : requests) {
      const int kind = static_cast<int>(r.kind);
      mix(&r.client_id, sizeof r.client_id);
      mix(&r.arrival_time, sizeof r.arrival_time);
      mix(&kind, sizeof kind);
      mix(&r.u, sizeof r.u);
      mix(&r.v, sizeof r.v);
    }
    return h;
  }
};

/// `count` distinct edges absent from `g`, each joining two endpoints
/// drawn by `endpoint`.
template <typename Endpoint>
std::vector<Edge> fresh_edges(const EdgeSet& g, std::size_t count,
                              Endpoint endpoint) {
  std::unordered_set<std::uint64_t> drawn;
  std::vector<Edge> edges;
  edges.reserve(count);
  while (edges.size() < count) {
    const VertexId u = endpoint();
    const VertexId v = endpoint();
    const std::uint64_t key = edge_key(u, v);
    if (u != v && g.keys.count(key) == 0 && drawn.insert(key).second) {
      edges.emplace_back(u, v);
    }
  }
  return edges;
}

/// Fisher-Yates.
template <typename T>
void shuffle(std::vector<T>& v, Rand& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// Single-edge sliding window: step i inserts `fresh[i]` and, once kWindow
/// edges are live, removes the edge inserted kWindow steps earlier, so the
/// graph keeps its size. The stream ends by removing the window, so it
/// inserts and removes every edge of `fresh` once.
std::vector<Op> sliding_window(const std::vector<Edge>& fresh) {
  std::vector<Op> ops;
  ops.reserve(2 * fresh.size());
  for (std::size_t step = 0; step < fresh.size() + kWindow; ++step) {
    if (step < fresh.size()) {
      ops.push_back({true, fresh[step].first, fresh[step].second});
    }
    if (step >= kWindow) {
      const Edge& old = fresh[step - kWindow];
      ops.push_back({false, old.first, old.second});
    }
  }
  return ops;
}

/// Request kinds of a stream of `count`: exactly one request in ten
/// writes, and a fifth of the writes remove, in an order `rng` draws.
std::vector<bc::RequestKind> request_kinds(std::size_t count, Rand& rng) {
  std::vector<bc::RequestKind> kinds(count, bc::RequestKind::kRead);
  std::fill_n(kinds.begin(), count / 10, bc::RequestKind::kInsert);
  std::fill_n(kinds.begin(), count / 50, bc::RequestKind::kRemove);
  shuffle(kinds, rng);
  return kinds;
}

/// Open-loop request stream of independent users: Poisson arrivals a mean
/// kInterarrival apart, of the given `kinds`. An insert adds the next edge
/// of `fresh`, a remove drops a live earlier insert, a read asks for a
/// uniform vertex.
std::vector<bc::Request> mixed_requests(
    const std::vector<bc::RequestKind>& kinds, const std::vector<Edge>& fresh,
    VertexId n, Rand& rng) {
  std::vector<Edge> live;
  std::size_t next = 0;
  const std::size_t count = kinds.size();
  std::vector<bc::Request> requests(count);
  double clock = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    bc::Request& r = requests[i];
    r.client_id = static_cast<int>(i % kClients);
    clock += -kInterarrival * std::log1p(-rng.unit());  // Poisson arrivals
    r.arrival_time = clock;
    r.kind = kinds[i];
    if (r.kind == bc::RequestKind::kRead) {
      r.u = rng.vertex(n);
    } else if (r.kind == bc::RequestKind::kRemove && !live.empty()) {
      const std::size_t pick = rng.below(live.size());
      std::tie(r.u, r.v) = live[pick];
      live[pick] = live.back();
      live.pop_back();
    } else {
      r.kind = bc::RequestKind::kInsert;  // a remove with nothing live
      std::tie(r.u, r.v) = fresh[next];
      live.push_back(fresh[next++]);
    }
  }
  return requests;
}

/// The graph, its sampled sources, the edges the stream inserts and the
/// order of serve-mixed request kinds (which fixes how writes coalesce into
/// commits) are one fixed instance per workload; the seed shuffles the
/// inserts and draws the rest of the stream (serve-mixed arrivals, reads and
/// removals). Every seed thus applies the same work, so the spread between
/// seeds measures the machine rather than which edges were drawn.
/// Graph-to-graph differences would dominate it even more.
Inputs generate(const Workload& w, std::uint64_t seed, double seconds) {
  Rand graph_rng(w.salt);
  Inputs in;
  in.sources_seed = graph_rng.next();
  EdgeSet g;
  if (w.name == "window-pref") {
    g = preferential_attachment(100000, 5, graph_rng);
  } else if (w.name == "edge-router") {
    g = router_level(14000, graph_rng);
  } else {
    g = small_world(20000, 4, 0.1, graph_rng);
  }
  const auto length = static_cast<std::size_t>(
      std::lround(seconds * w.rate / static_cast<double>(kReplays)));
  Rand stream_rng(seed * 0x2545f4914f6cdd1dULL ^ w.salt);
  if (w.service) {
    const std::vector<bc::RequestKind> kinds =
        request_kinds(std::max(kMinRequests, length), graph_rng);
    std::vector<Edge> fresh = fresh_edges(
        g, kinds.size() / 10, [&] { return graph_rng.vertex(g.n); });
    shuffle(fresh, stream_rng);
    in.requests = mixed_requests(kinds, fresh, g.n, stream_rng);
  } else {
    // New links attach preferentially: endpoints are degree-proportional.
    const std::size_t inserts = (std::max(kMinCalls, length) + 1) / 2;
    const std::uint64_t m = g.edges.size();
    std::vector<Edge> fresh = fresh_edges(g, inserts, [&] {
      const Edge& e = g.edges[graph_rng.below(m)];
      return (graph_rng.next() & 1) ? e.first : e.second;
    });
    shuffle(fresh, stream_rng);
    in.ops = sliding_window(fresh);
  }
  in.n = g.n;
  in.edges = std::move(g.edges);
  return in;
}

// ---- statistics -----------------------------------------------------------

/// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t h = s.size() / 2;
  return s.size() % 2 ? s[h] : 0.5 * (s[h - 1] + s[h]);
}

/// Quantile q of the wait a reader arriving at a uniformly random instant
/// of a closed-loop stream of calls lasting `d` has until the call in
/// flight completes: P(wait > t) = sum(max(0, d_i - t)) / sum(d).
double residual_quantile(std::vector<double> d, double q) {
  std::sort(d.begin(), d.end(), std::greater<>());
  double total = 0.0;
  for (double x : d) total += x;
  const double target = (1.0 - q) * total;
  if (d.empty() || total <= 0.0) return 0.0;
  if (target <= 0.0) return d.front();
  // On [d_k, d_{k-1}] the tail mass is (d_0 + ... + d_{k-1}) - k t.
  double head = d.front();
  for (std::size_t k = 1; k < d.size(); ++k) {
    if (head - static_cast<double>(k) * d[k] >= target) {
      return (head - target) / static_cast<double>(k);
    }
    head += d[k];
  }
  return (head - target) / static_cast<double>(d.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- placement ------------------------------------------------------------

/// Other tenants share the host's cores, so one CPU of a virtual machine can
/// run a third slower than another for seconds at a time. A fixed probe finds
/// the CPU that runs fastest now; a run moves there before each set-up and
/// every kRepinCalls calls, outside the timed calls.
class CpuPicker {
 public:
  CpuPicker() : scratch_(std::size_t{1} << 20, 1) {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) {
      CPU_ZERO(&allowed_);
    }
  }

  void pin_fastest() {
    int best_cpu = -1;
    double best = 0.0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_) || !pin(cpu)) continue;
      const double t = std::min({probe(), probe(), probe()});
      if (best_cpu < 0 || t < best) {
        best_cpu = cpu;
        best = t;
      }
    }
    if (best_cpu >= 0) pin(best_cpu);
  }

 private:
  static bool pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }

  /// Seconds for a fixed mix of integer work and scattered loads and
  /// stores over 4 MiB.
  double probe() {
    const auto t0 = Clock::now();
    const std::size_t mask = scratch_.size() - 1;
    std::uint64_t x = 1;
    std::uint64_t sum = 0;
    for (int k = 0; k < 500000; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      sum += scratch_[(x >> 40) & mask] ^ (sum >> 3);
      scratch_[(x >> 20) & mask] = static_cast<std::uint32_t>(sum);
    }
    sink_ += sum;
    return since(t0);
  }

  cpu_set_t allowed_;
  std::vector<std::uint32_t> scratch_;
  std::uint64_t sink_ = 0;
};

CpuPicker& cpus() {
  static CpuPicker picker;
  return picker;
}

// ---- replays --------------------------------------------------------------

/// The quantities a replay of one seed must reproduce exactly.
struct Counts {
  int case1 = 0;
  int case2 = 0;
  int case3 = 0;
  double modeled_s = 0.0;
  std::uint64_t launches = 0;
  std::uint64_t blocks = 0;
  std::uint64_t commits = 0;
  std::uint64_t epochs = 0;
  double read_p99_s = 0.0;

  bool operator==(const Counts&) const = default;
};

void add_cases(Counts& c, const UpdateOutcome& o) {
  c.case1 += o.case1;
  c.case2 += o.case2;
  c.case3 += o.case3;
  c.modeled_s += o.modeled_seconds;
}

void take_kernel_counters(Counts& c) {
  c.launches = trace::metrics().counter_value("sim.launches");
  c.blocks = trace::metrics().counter_value("sim.blocks");
}

struct Replay {
  std::size_t calls = 0;  // front-door update calls (single-edge)
  std::size_t failed = 0;
  std::string error;
  std::vector<double> call_s;  // host wall per front-door call (commit)
  double wall_s = 0.0;         // Σ call_s, or run() wall for serve-mixed
  UpdateOutcome total;         // every outcome, absorbed
  Counts all;                  // exact counts over the replay
  std::vector<double> scores;
  // serve-mixed only
  bc::ServiceStats stats;
  std::vector<UpdateOutcome> commits;
  std::vector<bc::Response> responses;
};

/// Drives `ops` through the Session, one front-door call each.
Replay replay_ops(bc::Session& session, const std::vector<Op>& ops,
                  bool spans) {
  trace::metrics().reset();
  Replay r;
  r.call_s.reserve(ops.size());
  std::vector<double> modeled_s;  // per call
  for (const Op& op : ops) {
    if (r.calls % kRepinCalls == 0) cpus().pin_fastest();
    UpdateOutcome out;
    const auto c0 = Clock::now();
    try {
      if (spans) {
        trace::Span span(op.insert ? "perfbench.insert" : "perfbench.remove",
                         "perfbench");
        out = op.insert ? session.insert_edge(op.u, op.v)
                        : session.remove_edge(op.u, op.v);
      } else {
        out = op.insert ? session.insert_edge(op.u, op.v)
                        : session.remove_edge(op.u, op.v);
      }
    } catch (const std::exception& e) {
      r.error = e.what();
      break;
    }
    r.call_s.push_back(since(c0));
    ++r.calls;
    if (out.inserted != 1) ++r.failed;
    r.total.absorb(out);
    add_cases(r.all, out);
    modeled_s.push_back(out.modeled_seconds);
  }
  for (double s : r.call_s) r.wall_s += s;
  take_kernel_counters(r.all);
  r.all.read_p99_s = residual_quantile(modeled_s, kReaderQuantile);
  r.scores.assign(session.scores().begin(), session.scores().end());
  return r;
}

/// Runs the whole request stream through one Service::run() call.
Replay replay_service(bc::Service& service,
                      const std::vector<bc::Request>& requests, bool spans) {
  trace::metrics().reset();
  Replay r;
  const auto t0 = Clock::now();
  try {
    if (spans) {
      trace::Span span("perfbench.run", "perfbench");
      r.responses = service.run(requests);
    } else {
      r.responses = service.run(requests);
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.wall_s = since(t0);
  r.stats = service.stats();
  r.commits = service.commits();
  for (const UpdateOutcome& c : r.commits) {
    r.total.absorb(c);
    add_cases(r.all, c);
    r.call_s.push_back(c.structure_wall_seconds + c.update_wall_seconds);
  }
  r.calls = r.commits.size();
  // A write fails when its commit did not apply it; a read when it is shed.
  const auto applied = static_cast<std::uint64_t>(r.total.inserted);
  r.failed = r.stats.reads_shed +
             (r.stats.writes > applied ? r.stats.writes - applied : 0);
  take_kernel_counters(r.all);
  r.all.commits = r.stats.commits;
  r.all.epochs = service.snapshots().latest_epoch();
  r.all.read_p99_s = r.stats.read_p99_seconds;
  r.scores.assign(service.session().scores().begin(),
                  service.session().scores().end());
  return r;
}

bc::Options options_for(const Workload& w, const Inputs& in, bool tracing) {
  bc::Options o;
  o.engine = w.engine;
  o.approx = {.num_sources = kSources, .seed = in.sources_seed};
  o.num_devices = w.devices;
  o.adaptive.seed = in.sources_seed;
  o.runtime.tracing = tracing;
  return o;
}

bc::ServiceConfig service_config() {
  bc::ServiceConfig c;
  c.coalesce_depth = 16;
  c.fused_commits = true;
  return c;
}

/// verify_against_recompute() relative to the largest score.
double verify_error(const bc::Session& session) {
  double scale = 1.0;
  for (double s : session.scores()) scale = std::max(scale, std::abs(s));
  return session.verify_against_recompute() / scale;
}

// ---- trace analysis -------------------------------------------------------

struct TraceTotals {
  std::map<std::string, double> total_s;  // host span time by name
  std::map<std::string, double> self_s;   // minus child spans
  double launch_s = 0.0;                  // device launch-track time
  double wait_cycles = 0.0;               // Σ placement waits
};

TraceTotals analyse(const std::vector<trace::TraceEvent>& events) {
  struct Open {
    std::string name;
    double start_us;
    double child_us;
  };
  TraceTotals t;
  std::map<int, std::vector<Open>> stacks;  // host track -> open spans
  for (const trace::TraceEvent& e : events) {
    using Phase = trace::TraceEvent::Phase;
    if (e.pid == trace::kHostPid) {
      auto& stack = stacks[e.tid];
      if (e.phase == Phase::kBegin) {
        stack.push_back({e.name, e.ts_us, 0.0});
      } else if (e.phase == Phase::kEnd && !stack.empty()) {
        const Open open = stack.back();
        stack.pop_back();
        const double dur = e.ts_us - open.start_us;
        t.total_s[open.name] += dur * 1e-6;
        t.self_s[open.name] += (dur - open.child_us) * 1e-6;
        if (!stack.empty()) stack.back().child_us += dur;
      }
    } else if (e.phase == trace::TraceEvent::Phase::kComplete) {
      // Launch summaries sit on the launch track; block and job
      // placements on the SM tracks carry their queueing wait.
      if (e.cat == trace::kCatLaunch) t.launch_s += e.dur_us * 1e-6;
      for (const trace::TraceArg& a : e.args) {
        if (a.key == "wait_cycles") t.wait_cycles += a.value;
      }
    }
  }
  return t;
}

double span_s(const TraceTotals& t, const std::string& name) {
  const auto it = t.total_s.find(name);
  return it == t.total_s.end() ? 0.0 : it->second;
}

double histogram_mean(std::string_view a, std::string_view b = {}) {
  trace::HistogramSnapshot ha = trace::metrics().histogram(a);
  trace::HistogramSnapshot hb =
      b.empty() ? trace::HistogramSnapshot{} : trace::metrics().histogram(b);
  return ratio(ha.sum + hb.sum, static_cast<double>(ha.count + hb.count));
}

// ---- output ---------------------------------------------------------------

using Fields = std::vector<std::pair<std::string, double>>;

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string object(const Fields& fields) {
  std::string s = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + fields[i].first + "\": " + number(fields[i].second);
  }
  return s + "}";
}

Fields counts_fields(const Counts& c) {
  return {{"case1", c.case1},
          {"case2", c.case2},
          {"case3", c.case3},
          {"modeled_s", c.modeled_s},
          {"launches", static_cast<double>(c.launches)},
          {"blocks", static_cast<double>(c.blocks)},
          {"commits", static_cast<double>(c.commits)},
          {"epochs", static_cast<double>(c.epochs)},
          {"read_p99_us", c.read_p99_s * 1e6}};
}

/// Host-wall samples of a run's untraced replays.
struct Timings {
  std::vector<double> setup_s;              // one per replay
  std::vector<std::vector<double>> call_s;  // per replay, per call
  double updates = 0.0;                     // edge updates of one replay
  double fastest_other_s = INFINITY;        // replay wall outside its calls

  void add(double setup, double replay_updates, const Replay& r) {
    setup_s.push_back(setup);
    call_s.push_back(r.call_s);
    updates = replay_updates;
    double calls_s = 0.0;
    for (double s : r.call_s) calls_s += s;
    fastest_other_s =
        std::min(fastest_other_s, std::max(0.0, r.wall_s - calls_s));
  }

  /// Each call's host wall in its fastest replay.
  std::vector<double> fastest_calls() const {
    std::vector<double> fastest = call_s.front();
    for (const auto& r : call_s) {
      fastest.resize(std::min(fastest.size(), r.size()));
      for (std::size_t i = 0; i < fastest.size(); ++i) {
        fastest[i] = std::min(fastest[i], r[i]);
      }
    }
    return fastest;
  }

  /// Host wall of one replay made of each part's fastest replay: every
  /// call (commit), plus the wall outside them (serve-mixed: the rest of
  /// Service::run()).
  double fastest_s() const {
    double s = fastest_other_s;
    for (double c : fastest_calls()) s += c;
    return s;
  }

  Fields metrics(const Counts& c) const {
    const std::vector<double> fastest = fastest_calls();
    return {{"updates_per_s", ratio(updates, fastest_s())},
            {"op_p50_ms", percentile(fastest, 0.50) * 1e3},
            {"op_p90_ms", percentile(fastest, 0.90) * 1e3},
            {"modeled_s", c.modeled_s},
            {"read_p99_us", c.read_p99_s * 1e6},
            {"setup_s", median(setup_s)},
            {"peak_rss_mb", peak_rss_mb()}};
  }
};

struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  Fields metrics;
  Fields detail;
  Fields repeat;  // exact-repeat counts, compared across processes

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

void print(const Result& r) {
  std::string problems = "[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    if (i) problems += ", ";
    std::string escaped;
    for (char ch : r.problems[i]) {
      if (ch == '"' || ch == '\\') escaped += '\\';
      escaped += (ch == '\n' ? ' ' : ch);
    }
    problems += "\"" + escaped + "\"";
  }
  problems += "]";
  // A failed run reports no timing: its metrics are null.
  Fields metrics = r.metrics;
  if (!r.correct) {
    for (auto& m : metrics) m.second = NAN;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s, \"detail\": %s, \"repeat\": %s, \"problems\": %s}\n",
      r.correct ? "true" : "false", r.attempted, r.failed,
      object(metrics).c_str(), object(r.detail).c_str(),
      object(r.repeat).c_str(), problems.c_str());
}

// ---- runs -----------------------------------------------------------------

void check_replay(Result& res, const Replay& rep, const char* what) {
  if (!rep.error.empty()) res.fail(std::string(what) + ": " + rep.error);
  if (rep.failed > 0) {
    res.fail(std::string(what) + ": " + std::to_string(rep.failed) +
             " operations failed");
  }
}

void check_same(Result& res, const Replay& a, const Replay& b,
                const char* what) {
  if (a.scores.size() != b.scores.size() ||
      std::memcmp(a.scores.data(), b.scores.data(),
                  a.scores.size() * sizeof(double)) != 0) {
    res.fail(std::string(what) + ": final scores differ bitwise");
  }
  if (!(a.all == b.all)) {
    res.fail(std::string(what) + ": exact-repeat counts differ");
  }
}

struct Layers {
  Fields metrics;  // the per-layer metrics
  Fields detail;   // host self-time shares and per-span self time
};

/// Splits a traced replay (`traced`) across the layers; `untraced_wall_s`
/// is the untraced replays' host wall (Timings::fastest_s()).
Layers split_layers(double untraced_wall_s, const Replay& traced,
                    const TraceTotals& t, bool service) {
  const UpdateOutcome& o = traced.total;
  const double host_s =
      service ? span_s(t, "perfbench.run")
              : span_s(t, "perfbench.insert") + span_s(t, "perfbench.remove");
  // Self times: the engine's wall holds the adaptive-plan spans, and the
  // service's run() holds the commits' structure and engine wall.
  const double graph_s = o.structure_wall_seconds;
  const double plan_s = span_s(t, "bc.adaptive.plan");
  const double engine_s = o.update_wall_seconds - plan_s;
  const double service_s = service ? host_s - graph_s - o.update_wall_seconds
                                   : 0.0;
  const double cases = o.case1 + o.case2 + o.case3;
  auto& reg = trace::metrics();
  auto count = [&reg](std::string_view name) {
    return static_cast<double>(reg.counter_value(name));
  };
  double coalesce = 0.0;
  double read_wait_p99 = 0.0;
  if (service) {
    coalesce = ratio(static_cast<double>(traced.stats.coalesced_updates),
                     static_cast<double>(traced.stats.commits));
    std::vector<double> waits;
    for (const bc::Response& r : traced.responses) {
      if (r.kind == bc::RequestKind::kRead && !r.shed) {
        waits.push_back(r.start_time - r.arrival_time);
      }
    }
    read_wait_p99 = percentile(waits, 0.99) * 1e6;
  }
  Layers l;
  l.metrics = {
      {"graph.busy_s", graph_s},
      {"graph.share", ratio(graph_s, host_s)},
      {"engine.busy_s", o.update_wall_seconds},
      {"engine.share", ratio(engine_s, host_s)},
      {"engine.host_s_per_modeled_s",
       ratio(o.update_wall_seconds, o.modeled_seconds)},
      {"plan.case1", o.case1},
      {"plan.case2", o.case2},
      {"plan.case3", o.case3},
      {"plan.nowork_frac", ratio(o.case1, cases)},
      {"plan.busy_s", plan_s},
      {"plan.decisions", count("bc.adaptive.decisions.count")},
      {"plan.edge_frac", ratio(count("bc.adaptive.edge.count"),
                               count("bc.adaptive.decisions.count"))},
      {"kernel.modeled_s", t.launch_s},
      {"kernel.launches", static_cast<double>(traced.all.launches)},
      {"kernel.blocks", static_cast<double>(traced.all.blocks)},
      {"kernel.touched_frac",
       histogram_mean("bc.touched_fraction", "batch.touched_fraction")},
      {"kernel.recompute_frac", ratio(count("batch.fallback_recompute.count"),
                                      count("batch.jobs.count"))},
      {"sched.occupancy_mean", histogram_mean("sim.occupancy")},
      {"sched.imbalance_mean", histogram_mean("sim.imbalance")},
      {"sched.steals", count("sim.group.steals")},
      {"sched.wait_cycles", t.wait_cycles},
      {"service.self_s", service_s},
      {"service.commits", static_cast<double>(traced.stats.commits)},
      {"service.coalesce_mean", coalesce},
      {"service.reads_served", static_cast<double>(traced.stats.reads_served)},
      {"service.reads_shed", static_cast<double>(traced.stats.reads_shed)},
      {"service.queue_peak", static_cast<double>(traced.stats.queue_peak)},
      {"service.read_wait_p99_us", read_wait_p99},
      {"publish.epochs", static_cast<double>(traced.all.epochs)},
      {"trace.overhead_frac", 1.0 - ratio(untraced_wall_s, traced.wall_s)},
  };
  l.detail = {
      {"share.graph", ratio(graph_s, host_s)},
      {"share.bc.engine", ratio(engine_s, host_s)},
      {"share.bc.plan", ratio(plan_s, host_s)},
      {"share.bc.service", ratio(service_s, host_s)},
      {"share.front_door",
       ratio(host_s - graph_s - engine_s - plan_s - service_s, host_s)},
      {"traced_host_s", host_s},
  };
  for (const auto& [name, self] : t.self_s) {
    l.detail.push_back({"self_s." + name, self});
  }
  return l;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

Result run_single(const Args& a, const Inputs& in, const CSRGraph& g) {
  const Workload& w = *a.workload;
  Result res;
  auto make = [&](bool tracing) {
    auto s = std::make_unique<bc::Session>(g, options_for(w, in, tracing));
    s->compute();
    return s;
  };
  Timings times;
  Replay plain;
  double err = 0.0;
  for (std::size_t i = 0; i < kReplays; ++i) {
    cpus().pin_fastest();
    const auto t0 = Clock::now();
    const std::unique_ptr<bc::Session> session = make(false);
    const double setup = since(t0);
    Replay rep = replay_ops(*session, in.ops, false);
    check_replay(res, rep, "untraced replay");
    times.add(setup, static_cast<double>(rep.calls), rep);
    res.attempted += rep.calls;
    res.failed += rep.failed;
    if (i == 0) {
      err = verify_error(*session);
      plain = std::move(rep);
    } else {
      check_same(res, plain, rep, "replay vs first replay");
    }
  }
  if (!(err <= kTolerance)) {
    res.fail("scores differ from recompute by " + std::to_string(err));
  }
  res.repeat = counts_fields(plain.all);
  res.detail = {{"calls", static_cast<double>(plain.calls)},
                {"replays", static_cast<double>(times.setup_s.size())},
                {"verify_rel_err", err}};
  if (!a.trace) {
    res.metrics = times.metrics(plain.all);
    return res;
  }

  cpus().pin_fastest();
  const std::unique_ptr<bc::Session> session = make(true);
  trace::tracer().clear();
  const Replay traced = replay_ops(*session, in.ops, true);
  const TraceTotals totals = analyse(trace::tracer().events());
  check_replay(res, traced, "traced replay");
  check_same(res, plain, traced, "traced vs untraced");
  res.attempted += traced.calls;
  res.failed += traced.failed;
  Layers layers = split_layers(times.fastest_s(), traced, totals, false);
  res.metrics = std::move(layers.metrics);
  res.detail.insert(res.detail.end(), layers.detail.begin(),
                    layers.detail.end());
  res.detail.push_back(
      {"untraced_updates_per_s", ratio(times.updates, times.fastest_s())});
  return res;
}

Result run_service(const Args& a, const Inputs& in, const CSRGraph& g) {
  const Workload& w = *a.workload;
  Result res;
  auto make = [&](bool tracing) {
    auto s = std::make_unique<bc::Service>(g, options_for(w, in, tracing),
                                           service_config());
    s->start();
    return s;
  };
  Timings times;
  Replay plain;
  double err = 0.0;
  for (std::size_t i = 0; i < kReplays; ++i) {
    cpus().pin_fastest();
    const auto t0 = Clock::now();
    const std::unique_ptr<bc::Service> service = make(false);
    const double setup = since(t0);
    Replay rep = replay_service(*service, in.requests, false);
    check_replay(res, rep, "untraced replay");
    times.add(setup, static_cast<double>(rep.stats.writes), rep);
    res.attempted += in.requests.size();
    res.failed += rep.failed;
    if (i == 0) {
      err = verify_error(service->session());
      plain = std::move(rep);
    } else {
      check_same(res, plain, rep, "replay vs first replay");
    }
  }
  if (!(err <= kTolerance)) {
    res.fail("scores differ from recompute by " + std::to_string(err));
  }
  res.repeat = counts_fields(plain.all);
  res.detail = {{"requests", static_cast<double>(in.requests.size())},
                {"writes", static_cast<double>(plain.stats.writes)},
                {"reads_served", static_cast<double>(plain.stats.reads_served)},
                {"commit_samples", static_cast<double>(plain.call_s.size())},
                {"replays", static_cast<double>(times.setup_s.size())},
                {"verify_rel_err", err}};
  if (!a.trace) {
    res.metrics = times.metrics(plain.all);
    return res;
  }

  cpus().pin_fastest();
  const std::unique_ptr<bc::Service> service = make(true);
  trace::tracer().clear();
  const Replay traced = replay_service(*service, in.requests, true);
  const TraceTotals totals = analyse(trace::tracer().events());
  check_replay(res, traced, "traced replay");
  check_same(res, plain, traced, "traced vs untraced");
  res.attempted += in.requests.size();
  res.failed += traced.failed;
  Layers layers = split_layers(times.fastest_s(), traced, totals, true);
  res.metrics = std::move(layers.metrics);
  res.detail.insert(res.detail.end(), layers.detail.begin(),
                    layers.detail.end());
  res.detail.push_back(
      {"untraced_updates_per_s", ratio(times.updates, times.fastest_s())});
  return res;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == value) a.workload = &w;
      }
      if (!a.workload) {
        throw std::invalid_argument("unknown workload " + value);
      }
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value != "0";
    } else {
      throw std::invalid_argument("unknown flag " + std::string(key));
    }
  }
  if (!a.workload) throw std::invalid_argument("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
  const auto g0 = Clock::now();
  const Inputs in = generate(*args.workload, args.seed, args.seconds);
  const double gen_s = since(g0);
  const std::uint64_t hash = in.hash();
  const bool same_seed_same =
      generate(*args.workload, args.seed, args.seconds).hash() == hash;
  const bool other_seed_differs =
      generate(*args.workload, args.seed + 1, args.seconds).hash() != hash;
  const CSRGraph g = CSRGraph::from_coo(COOGraph{in.n, in.edges});

  Result res;
  try {
    res = args.workload->service ? run_service(args, in, g)
                                 : run_single(args, in, g);
  } catch (const std::exception& e) {
    res.fail(std::string("exception: ") + e.what());
    res.attempted = std::max<std::size_t>(res.attempted, 1);
    res.failed = res.attempted;
  }
  if (!same_seed_same) res.fail("same seed regenerated different inputs");
  if (!other_seed_differs) {
    res.fail("another seed regenerated the same inputs");
  }
  if (!res.correct) res.failed = res.attempted;
  res.detail.insert(
      res.detail.end(),
      {{"vertices", static_cast<double>(g.num_vertices())},
       {"edges", static_cast<double>(g.num_edges())},
       {"generate_s", gen_s},
       {"input_hash_lo32", static_cast<double>(hash & 0xffffffffu)}});
  print(res);
  return 0;
}
