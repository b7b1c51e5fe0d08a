// Extension bench (paper §VI future work): strong scaling of the dynamic
// node-parallel analytic across devices with more SMs. The paper expects
// "excellent strong scaling" from the coarse-grained (per-source)
// parallelism; simulated devices with 7..112 SMs test that directly.
//
// Flags: common flags plus --sms=7,14,28,...
#include <iostream>

#include "bench_common.hpp"

using namespace bcdyn;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::CommonConfig cfg = bench::parse_common(cli);
  const auto sm_counts = cli.get_int_list("sms", {7, 14, 28, 56, 112});
  bench::warn_unused(cli);
  if (!bench::counts_at_least_one("sms", sm_counts)) return 2;
  if (!cli.has("graphs") && cfg.graph_file.empty()) {
    cfg.graph_names = {"caida", "pref", "small"};
  }
  // Strong scaling needs enough sources to keep many SMs busy.
  if (!cli.has("sources")) cfg.sources = 128;
  const auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  const ApproxConfig approx{.num_sources = cfg.sources, .seed = cfg.seed};
  std::vector<std::string> header = {"Graph"};
  for (auto sms : sm_counts) header.push_back(std::to_string(sms) + " SMs");
  util::Table table(header);

  for (const auto& entry : graphs) {
    const auto stream = analysis::make_insertion_stream(
        entry.graph, {.num_insertions = cfg.insertions, .seed = cfg.seed});
    std::vector<std::string> row = {entry.name};
    double base = 0.0;
    for (auto sms : sm_counts) {
      sim::DeviceSpec spec = sim::DeviceSpec::tesla_c2075();
      spec.num_sms = static_cast<int>(sms);
      spec.name = std::to_string(sms) + "sm";
      const auto run = analysis::run_gpu_dynamic(stream, approx,
                                                 Parallelism::kNode, spec);
      if (base == 0.0) base = run.modeled_seconds;
      const std::string sm_key = "sm" + std::to_string(sms);
      bench::record_result("scaling_sm_count", entry.name,
                           sm_key + ".modeled_seconds", run.modeled_seconds);
      bench::record_result("scaling_sm_count", entry.name,
                           sm_key + ".speedup", base / run.modeled_seconds);
      row.push_back(util::Table::fmt_speedup(base / run.modeled_seconds));
      std::cerr << "  " << entry.name << " " << sms
                << " SMs: " << util::Table::fmt(run.modeled_seconds, 5)
                << "s\n";
    }
    table.add_row(std::move(row));
  }

  analysis::print_header(
      "Extension: strong scaling of dynamic updates with SM count "
      "(speedup vs fewest SMs)");
  analysis::emit_table(table, bench::csv_path(cfg, "scaling_sm_count"));
  bench::emit_metrics(cfg);
  std::cout << "\nExpected: near-linear until #SMs approaches the number of "
               "work-requiring sources per insertion, then saturating at "
               "the per-insertion critical path (slowest single source).\n";
  return 0;
}
