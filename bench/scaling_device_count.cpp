// Extension bench (paper §VI future work): strong scaling of the dynamic
// analytic across multiple simulated devices. The coarse-grained
// decomposition (one source per thread block) shards across devices the
// same way it shards across SMs, so a k-source update stream should scale
// until k / devices approaches the per-device block capacity; work
// stealing covers the skew between cheap (case-1) and expensive
// (recompute) sources.
//
// Headline: modeled update-stream makespan per device count, speedup vs
// one device, and the steal/imbalance telemetry behind it. Scores are
// bit-identical across device counts by construction; --verify checks it.
//
// Flags: common flags plus --devices=1,2,4,8 --policy=round-robin|lpt
//        --mode=edge|node
#include <cmath>
#include <iostream>

#include "bc/dynamic_gpu.hpp"
#include "bench_common.hpp"

using namespace bcdyn;

namespace {

struct ShardedRunResult {
  double compute_seconds = 0.0;  // modeled static pass
  double update_seconds = 0.0;   // modeled makespan summed over the stream
  int steals = 0;                // summed over the stream
  std::vector<double> final_bc;
};

ShardedRunResult run_sharded(const analysis::EdgeStream& stream,
                             const ApproxConfig& approx, Parallelism mode,
                             int devices, ShardPolicy policy) {
  ShardedRunResult result;
  CSRGraph g = stream.base;
  BcStore store(g.num_vertices(), approx);
  DynamicGpuBc bc(devices, sim::DeviceSpec::tesla_c2075(), mode, {},
                  /*track_atomic_conflicts=*/false, policy);
  result.compute_seconds = bc.compute(g, store).seconds;
  for (const auto& [u, v] : stream.insertions) {
    g.insert_edge(u, v);
    const GpuUpdateResult r = bc.insert_edge_update(g, store, u, v);
    result.update_seconds += r.stats.seconds;
    result.steals += r.group.steals;
  }
  result.final_bc.assign(store.bc().begin(), store.bc().end());
  return result;
}

ShardPolicy parse_policy(const std::string& name) {
  if (name == "round-robin") return ShardPolicy::kRoundRobin;
  if (name == "lpt") return ShardPolicy::kLptTouched;
  throw std::invalid_argument("unknown policy '" + name +
                              "' (want round-robin|lpt)");
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::CommonConfig cfg = bench::parse_common(cli);
  const auto device_counts = cli.get_int_list("devices", {1, 2, 4, 8});
  const ShardPolicy policy = parse_policy(cli.get("policy", "lpt"));
  // Edge-parallel is the paper's winning fine-grained mapping on power-law
  // social graphs (degree divergence hurts node-parallel), and its more
  // uniform per-source cost also shards better.
  const std::string mode_name = cli.get("mode", "edge");
  bench::warn_unused(cli);
  if (!bench::counts_at_least_one("devices", device_counts)) return 2;
  const Parallelism mode =
      mode_name == "edge" ? Parallelism::kEdge : Parallelism::kNode;
  if (!cli.has("graphs") && cfg.graph_file.empty()) {
    // The paper's motivating workload: the social-network stand-in.
    cfg.graph_names = {"pref"};
  }
  // Sharding needs enough sources to keep N x 14 SMs busy (paper: 256).
  if (!cli.has("sources")) cfg.sources = 256;
  const auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  const ApproxConfig approx{.num_sources = cfg.sources, .seed = cfg.seed};
  std::vector<std::string> header = {"Graph"};
  for (auto d : device_counts) {
    header.push_back(std::to_string(d) + (d == 1 ? " device" : " devices"));
  }
  util::Table table(header);

  for (const auto& entry : graphs) {
    const auto stream = analysis::make_insertion_stream(
        entry.graph, {.num_insertions = cfg.insertions, .seed = cfg.seed});
    std::vector<std::string> row = {entry.name};
    double base = 0.0;
    std::vector<double> base_bc;
    for (auto d : device_counts) {
      const int devices = static_cast<int>(d);
      const ShardedRunResult run =
          run_sharded(stream, approx, mode, devices, policy);
      if (base == 0.0) {
        base = run.update_seconds;
        base_bc = run.final_bc;
      }
      const double speedup = base / run.update_seconds;
      row.push_back(util::Table::fmt_speedup(speedup));
      const std::string key = "d" + std::to_string(devices);
      bench::record_result("scaling_device_count", entry.name,
                           key + ".update_seconds", run.update_seconds);
      bench::record_result("scaling_device_count", entry.name,
                           key + ".compute_seconds", run.compute_seconds);
      bench::record_result("scaling_device_count", entry.name,
                           key + ".speedup", speedup);
      bench::record_result("scaling_device_count", entry.name,
                           key + ".steals", static_cast<double>(run.steals));
      std::cerr << "  " << entry.name << " " << devices
                << " devices: update " << util::Table::fmt(run.update_seconds, 5)
                << "s (compute " << util::Table::fmt(run.compute_seconds, 5)
                << "s, " << run.steals << " steals)\n";
      if (cfg.verify && devices > 1) {
        for (std::size_t v = 0; v < base_bc.size(); ++v) {
          if (run.final_bc[v] != base_bc[v]) {
            std::cerr << "VERIFY FAILED: bc[" << v << "] differs at "
                      << devices << " devices\n";
            return 1;
          }
        }
      }
    }
    table.add_row(std::move(row));
  }

  analysis::print_header(
      "Extension: strong scaling of dynamic updates with device count "
      "(speedup vs one device, policy=" + std::string(to_string(policy)) +
      ", " + std::string(to_string(mode)) + "-parallel)");
  analysis::emit_table(table, bench::csv_path(cfg, "scaling_device_count"));
  bench::emit_metrics(cfg);
  std::cout << "\nExpected: near-linear while sources/devices stays well "
               "above each device's SM count, then saturating at the "
               "per-update critical path (slowest single source) plus the "
               "steal overhead on the last wave.\n";
  return 0;
}
