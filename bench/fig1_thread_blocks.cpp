// Figure 1: static betweenness centrality speedup vs number of thread
// blocks, relative to one block, for a 7-SM (GTX 560) and a 14-SM
// (Tesla C2075) device.
//
// The paper runs exact static BC on three DIMACS graphs and finds the best
// performance at block counts equal to (multiples of) the SM count. Here
// the same sweep runs on the simulated devices; the plateau emerges from
// the block->SM makespan schedule.
//
// Flags: common flags (bench_common.hpp) plus
//   --blocks=1,2,...   block counts to sweep (default 1..8,14,28,56)
//   --exact            use exact BC (paper's setup; default: true for the
//                      small fig1 graphs)
#include <cstdio>
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "bc/dynamic_gpu.hpp"

using namespace bcdyn;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::CommonConfig cfg = bench::parse_common(cli);
  auto blocks = cli.get_int_list("blocks", {1, 2, 3, 4, 5, 6, 7, 8, 14, 28, 56});
  const bool exact = cli.get_bool("exact", true);
  bench::warn_unused(cli);

  // The paper uses the largest DIMACS graphs feasible for exact BC; at
  // simulator-on-one-host speed that is a few thousand vertices, so Fig. 1
  // defaults to small instances of three suite classes.
  if (!cli.has("graphs") && cfg.graph_file.empty()) {
    cfg.graph_names = {"del", "pref", "small"};
    cfg.scale = cli.get_double("scale", 0.06);
  }
  auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  const ApproxConfig approx{.num_sources = exact ? 0 : cfg.sources,
                            .seed = cfg.seed};
  const sim::DeviceSpec devices[] = {sim::DeviceSpec::gtx_560(),
                                     sim::DeviceSpec::tesla_c2075()};

  std::vector<std::string> header = {"Device", "Graph"};
  for (auto b : blocks) header.push_back(std::to_string(b) + " blk");
  util::Table table(header);

  for (const auto& spec : devices) {
    for (const auto& entry : graphs) {
      DynamicGpuBc engine(spec, Parallelism::kNode);
      double base = 0.0;
      std::vector<std::string> row = {spec.name, entry.name};
      for (auto b : blocks) {
        BcStore store(entry.graph.num_vertices(), approx);
        const auto stats = engine.compute(entry.graph, store,
                                          static_cast<int>(b));
        if (base == 0.0) base = stats.seconds;
        row.push_back(util::Table::fmt_speedup(base / stats.seconds));
        bench::record_result(
            "fig1", "sm" + std::to_string(spec.num_sms) + "." + entry.name,
            "b" + std::to_string(b) + ".seconds", stats.seconds);
        std::fprintf(stderr, "  %s/%s blocks=%lld: %.4fs\n",
                     spec.name.c_str(), entry.name.c_str(),
                     static_cast<long long>(b), stats.seconds);
      }
      table.add_row(std::move(row));
    }
  }

  analysis::print_header(
      "Figure 1: static BC speedup relative to one thread block");
  analysis::emit_table(table, bench::csv_path(cfg, "fig1_thread_blocks"));
  bench::emit_metrics(cfg);
  std::cout << "\nExpected shape: speedup rises until #blocks = #SMs (7 or "
               "14), then plateaus at multiples of the SM count.\n";
  return 0;
}
