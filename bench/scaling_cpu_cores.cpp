// Extension bench (paper §VI future work: multi-core CPU parallelism):
// strong scaling of the dynamic analytic across CPU worker lanes. Sources
// are dealt to lanes in contiguous chunks of ceil(k / lanes); the modeled
// parallel time of an update is the *makespan* over lanes (max per-lane
// operation cost), so the numbers show both the parallel speedup and the
// load-imbalance loss.
//
// No threads run: one sequential engine updates every source and reports
// each source's integer operation counters. A source's charges do not
// depend on which source ran before it, so a lane's cost is exactly the
// sum of its chunk's counters, and one pass over the stream serves every
// lane count.
//
// Flags: common flags plus --lanes=1,2,4,... (each >= 1)
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_cpu.hpp"
#include "gpusim/cost_model.hpp"

using namespace bcdyn;

namespace {

/// Modeled makespan of one update with `lanes` lanes: the costliest
/// contiguous chunk of per-source counters.
double lane_makespan(const sim::CostModel& cm,
                     std::span<const CpuOpCounters> source_ops,
                     std::int64_t lanes) {
  const auto k = static_cast<std::int64_t>(source_ops.size());
  const std::int64_t chunk = k / lanes + (k % lanes != 0 ? 1 : 0);
  double worst = 0.0;
  for (std::int64_t begin = 0; begin < k; begin += chunk) {
    CpuOpCounters lane;
    for (std::int64_t si = begin; si < std::min(k, begin + chunk); ++si) {
      lane += source_ops[static_cast<std::size_t>(si)];
    }
    worst = std::max(worst,
                     sim::cpu_seconds(cm, lane.instrs, lane.reads, lane.writes));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::CommonConfig cfg = bench::parse_common(cli);
  const auto lane_counts = cli.get_int_list("lanes", {1, 2, 4, 8, 16});
  bench::warn_unused(cli);
  if (!bench::counts_at_least_one("lanes", lane_counts)) return 2;
  if (!cli.has("graphs") && cfg.graph_file.empty()) {
    cfg.graph_names = {"caida", "pref", "small"};
  }
  if (!cli.has("sources")) cfg.sources = 64;
  const auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  const ApproxConfig approx{.num_sources = cfg.sources, .seed = cfg.seed};
  const sim::CostModel cm;

  std::vector<std::string> header = {"Graph"};
  for (auto lanes : lane_counts) {
    header.push_back(std::to_string(lanes) + " lanes");
  }
  util::Table table(header);

  for (const auto& entry : graphs) {
    const auto stream = analysis::make_insertion_stream(
        entry.graph, {.num_insertions = cfg.insertions, .seed = cfg.seed});
    CSRGraph g = stream.base;
    BcStore store(g.num_vertices(), approx);
    brandes_all(g, store);
    DynamicCpuEngine engine(g.num_vertices());
    std::vector<CpuOpCounters> source_ops(
        static_cast<std::size_t>(store.num_sources()));
    std::vector<double> makespans(lane_counts.size(), 0.0);
    for (const auto& [u, v] : stream.insertions) {
      g.insert_edge(u, v);
      engine.insert_edge_update(g, store, u, v, source_ops);
      for (std::size_t i = 0; i < lane_counts.size(); ++i) {
        makespans[i] += lane_makespan(cm, source_ops, lane_counts[i]);
      }
    }

    std::vector<std::string> row = {entry.name};
    for (std::size_t i = 0; i < lane_counts.size(); ++i) {
      const double makespan = makespans[i];
      const double speedup = makespans.front() / makespan;
      const std::string lane_key = "lanes" + std::to_string(lane_counts[i]);
      bench::record_result("scaling_cpu_cores", entry.name,
                           lane_key + ".makespan_seconds", makespan);
      bench::record_result("scaling_cpu_cores", entry.name,
                           lane_key + ".speedup", speedup);
      row.push_back(util::Table::fmt_speedup(speedup));
      std::cerr << "  " << entry.name << " " << lane_counts[i]
                << " lanes: " << util::Table::fmt(makespan, 5) << "s\n";
    }
    table.add_row(std::move(row));
  }

  analysis::print_header(
      "Extension: multi-core CPU strong scaling (modeled lane makespan, "
      "speedup vs 1 lane)");
  analysis::emit_table(table, bench::csv_path(cfg, "scaling_cpu_cores"));
  bench::emit_metrics(cfg);
  std::cout << "\nExpected: near-linear while every lane gets several "
               "work-requiring sources; sub-linear beyond that as the "
               "slowest chunk dominates (source-level load imbalance).\n";
  return 0;
}
