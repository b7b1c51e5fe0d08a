// Serving-layer coalescing (DESIGN.md "Serving layer"): replay the same
// mixed 90/10 read/write request stream through bc::Service with
// coalescing off (depth 1: one commit per write, the STINGER-style
// one-update-per-request baseline) and with coalescing on (--depths),
// on every suite graph. Coalesced insert runs dispatch through the
// fused batch engine and amortize the per-commit dispatch cost, so the
// virtual makespan must come in below the baseline's; the bench fails
// (exit 1) if the geomean speedup at the deepest setting falls below
// --min-speedup (1.3x full-size; relaxed to break-even in --smoke) or
// if any depth's final scores drift more than 1e-7 (relative) from the
// depth-1 reference - the same batch==sequential equivalence
// tests/test_batch_update.cpp pins down. Replays of one configuration
// are byte-identical; everything here is virtual time, never wall clock.
//
// Extra flags on top of bench_common's and the shared --service-* set
// (--service-depth is ignored: the depth sweep comes from --depths):
//   --requests=N          requests per graph (default 600)
//   --read-frac=F         fraction of requests that are reads (0.9)
//   --remove-frac=F       fraction of writes that remove (0.2; removals
//                         apply sequentially in both configurations and
//                         break insert adjacency, so they dilute the
//                         coalescing win - try 0.5 to see it shrink)
//   --interarrival-us=T   virtual us between arrivals (5.0)
//   --depths=a,b          coalescing depths to compare (default 4,16)
//   --min-speedup=X       geomean gate at the deepest setting
#include <climits>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bc/api.hpp"
#include "bench_common.hpp"
#include "util/rng.hpp"

using namespace bcdyn;

namespace {

/// Deterministic mixed request stream (a pure function of graph + seed):
/// reads query random vertices; inserts draw edges absent from the
/// starting graph and not currently live; removals target a live prior
/// insertion, so the stream is valid in application order at every
/// coalescing depth.
std::vector<bc::Request> make_stream(const CSRGraph& g, int requests,
                                     double read_frac, double remove_frac,
                                     double interarrival_us,
                                     std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5e21e77ULL);
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  std::vector<std::pair<VertexId, VertexId>> live;
  std::vector<bc::Request> stream;
  stream.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    bc::Request req;
    req.client_id = i % 4;
    req.arrival_time = interarrival_us * 1e-6 * (i + 1);
    if (rng.next_double() < read_frac) {
      req.kind = bc::RequestKind::kRead;
      req.u = static_cast<VertexId>(rng.next_below(n));
    } else if (!live.empty() && rng.next_double() < remove_frac) {
      req.kind = bc::RequestKind::kRemove;
      const std::size_t pick = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(live.size())));
      req.u = live[pick].first;
      req.v = live[pick].second;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      req.kind = bc::RequestKind::kInsert;
      VertexId u = kNoVertex;
      VertexId v = kNoVertex;
      for (int attempt = 0; attempt < 64; ++attempt) {
        u = static_cast<VertexId>(rng.next_below(n));
        v = static_cast<VertexId>(rng.next_below(n));
        if (u == v || g.has_edge(u, v)) continue;
        bool in_live = false;
        for (const auto& e : live) {
          if ((e.first == u && e.second == v) ||
              (e.first == v && e.second == u)) {
            in_live = true;
            break;
          }
        }
        if (!in_live) break;
        u = kNoVertex;
      }
      if (u == kNoVertex) {
        req.kind = bc::RequestKind::kRead;
        req.u = static_cast<VertexId>(rng.next_below(n));
      } else {
        req.u = u;
        req.v = v;
        live.emplace_back(u, v);
      }
    }
    stream.push_back(req);
  }
  return stream;
}

struct DepthResult {
  double makespan = 0.0;
  double read_p99 = 0.0;
  std::uint64_t commits = 0;
  std::uint64_t shed = 0;
  std::vector<double> scores;
};

DepthResult run_depth(const gen::SuiteEntry& entry, const bc::Options& options,
                      bc::ServiceConfig config, int depth,
                      const std::vector<bc::Request>& stream) {
  config.coalesce_depth = depth;
  bc::Service service(entry.graph, options, config);
  service.run(stream);
  const bc::ServiceStats stats = service.stats();
  DepthResult r;
  r.makespan = stats.makespan_seconds;
  r.read_p99 = stats.read_p99_seconds;
  r.commits = stats.commits;
  r.shed = stats.reads_shed;
  r.scores.assign(service.session().scores().begin(),
                  service.session().scores().end());
  return r;
}

/// Max relative difference with the same scale expect_near_spans uses.
double max_rel_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double scale = std::max(1.0, std::abs(b[i]));
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  // Serving streams want fewer sources than bench_common's default 32:
  // single-edge commits at the baseline depth keep the engine in the
  // per-update-overhead regime coalescing exists for. Registered before
  // parse_common (first registration wins) so --help shows the real
  // default.
  const int sources = cli.get_count(
      "sources", 16, "BC approximation sources (paper: 256)");
  bench::CommonConfig cfg = bench::parse_common(cli);
  cfg.sources = sources;
  const util::ServiceFlags service_flags = util::parse_service_flags(cli);
  int requests = cli.get_count("requests", 600, "requests per graph");
  const double read_frac = cli.get_double(
      "read-frac", 0.9, "fraction of requests that are reads");
  const double remove_frac = cli.get_double(
      "remove-frac", 0.2, "fraction of writes that remove");
  const double interarrival_us = cli.get_double(
      "interarrival-us", 5.0, "virtual us between request arrivals");
  const std::vector<std::int64_t> depth_flags = cli.get_int_list(
      "depths", {4, 16}, "coalescing depths to compare against depth 1");
  const int devices = cli.get_count(
      "devices", 1, "simulated devices to shard the kernels across");
  const double min_speedup = cli.get_double(
      "min-speedup", cfg.smoke ? 1.0 : 1.3,
      "fail unless the deepest setting's geomean speedup reaches this");
  if (bench::handle_help(cli, "service_throughput",
                         "Coalesced vs one-update-per-request virtual "
                         "makespan of the same 90/10 request stream.")) {
    return 0;
  }
  bench::warn_unused(cli);
  if (!bench::counts_at_least_one("depths", depth_flags)) return 2;
  std::vector<int> depths;
  std::string depths_spec;
  for (const std::int64_t depth : depth_flags) {
    if (depth > INT_MAX) cli.reject("depths", "int-sized depths");
    depths.push_back(static_cast<int>(depth));
    depths_spec += (depths_spec.empty() ? "" : ",") + std::to_string(depth);
  }
  if (cfg.smoke) requests = std::min(requests, 160);
  const auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  bc::Options options;
  options.engine = EngineKind::kGpuEdge;
  options.approx = {.num_sources = cfg.sources, .seed = cfg.seed};
  options.num_devices = devices;
  bc::ServiceConfig base_config = bc::service_config_from_flags(service_flags);

  std::cout << "\nServing-layer coalescing: " << requests << " requests ("
            << read_frac * 100 << "% reads), depth 1 vs {" << depths_spec
            << "}, window " << service_flags.window_us << " us, "
            << cfg.sources << " sources, engine "
            << to_string(options.engine) << "\n";

  const int deepest = depths.empty() ? 1 : depths.back();
  util::Table table({"Graph", "Depth1 (ms)", "Deep (ms)", "Speedup",
                     "Commits", "p99 d1 (us)", "p99 deep (us)", "MaxRelDiff"});
  double geo = 0.0;
  int count = 0;
  bool scores_agree = true;

  for (const auto& entry : graphs) {
    std::cerr << "  " << entry.name << "..." << std::flush;
    const auto stream =
        make_stream(entry.graph, requests, read_frac, remove_frac,
                    interarrival_us, cfg.seed);
    const DepthResult baseline =
        run_depth(entry, options, base_config, 1, stream);
    bench::record_result("service_throughput", entry.name,
                         "depth1_makespan_seconds", baseline.makespan);
    bench::record_result("service_throughput", entry.name,
                         "depth1_read_p99_seconds", baseline.read_p99);
    DepthResult deep;
    double worst_rel = 0.0;
    for (const int depth : depths) {
      const DepthResult r = run_depth(entry, options, base_config, depth,
                                      stream);
      worst_rel = std::max(worst_rel, max_rel_diff(r.scores, baseline.scores));
      if (depth == deepest) deep = r;
    }
    std::cerr << " done\n";
    // The fused batch path's established sequential-equivalence bound.
    scores_agree = scores_agree && worst_rel <= 1e-7;
    const double speedup = baseline.makespan / deep.makespan;
    bench::record_result("service_throughput", entry.name,
                         "coalesced_makespan_seconds", deep.makespan);
    bench::record_result("service_throughput", entry.name,
                         "coalesced_read_p99_seconds", deep.read_p99);
    bench::record_result("service_throughput", entry.name, "speedup", speedup);
    geo += std::log(speedup);
    ++count;
    table.add_row({entry.name, util::Table::fmt(baseline.makespan * 1e3, 3),
                   util::Table::fmt(deep.makespan * 1e3, 3),
                   util::Table::fmt(speedup, 2) + "x",
                   std::to_string(baseline.commits) + " -> " +
                       std::to_string(deep.commits),
                   util::Table::fmt(baseline.read_p99 * 1e6, 2),
                   util::Table::fmt(deep.read_p99 * 1e6, 2),
                   util::Table::fmt(worst_rel, 2)});
  }

  const double geomean = count > 0 ? std::exp(geo / count) : 1.0;
  analysis::emit_table(table, bench::csv_path(cfg, "service_throughput"));
  trace::metrics().set_gauge("service_throughput.geomean_speedup", geomean);
  bench::emit_metrics(cfg);
  std::cout << "Geo-mean virtual-makespan speedup from depth-" << deepest
            << " coalescing: " << util::Table::fmt(geomean, 2) << "x\n";
  if (!scores_agree) {
    std::cerr << "VERIFY FAILED: coalesced scores drifted beyond 1e-7 from "
                 "the depth-1 reference\n";
    return 1;
  }
  if (geomean < min_speedup) {
    std::cerr << "REGRESSION: geomean speedup "
              << util::Table::fmt(geomean, 3) << "x below the "
              << util::Table::fmt(min_speedup, 2) << "x gate\n";
    return 1;
  }
  return 0;
}
