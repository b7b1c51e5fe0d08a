// Ablation: atomic contention in the dynamic kernels, edge- vs node-parallel
// discussion). The paper argues the atomics its kernels issue are in low
// contention because few threads target the same address at once. Here the
// node-parallel engine runs with same-address conflict tracking enabled and
// reports, per graph, how many atomics conflicted within a SIMT round and
// what the modeled serialization penalty would be.
//
// Flags: common flags (bench_common.hpp).
#include <iostream>

#include "bench_common.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_gpu.hpp"

using namespace bcdyn;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const bench::CommonConfig cfg = bench::parse_common(cli);
  bench::warn_unused(cli);
  const auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  const ApproxConfig approx{.num_sources = cfg.sources, .seed = cfg.seed};
  util::Table table({"Graph", "Method", "Atomics", "Conflicts",
                     "Conflict rate", "Work penalty"});

  for (const auto& entry : graphs) {
    const auto stream = analysis::make_insertion_stream(
        entry.graph, {.num_insertions = cfg.insertions, .seed = cfg.seed});
    bool first = true;
    for (Parallelism mode : {Parallelism::kEdge, Parallelism::kNode}) {
      CSRGraph g = stream.base;
      BcStore store(g.num_vertices(), approx);
      brandes_all(g, store);

      const sim::CostModel with_conflicts;
      const sim::DeviceSpec spec = sim::DeviceSpec::tesla_c2075();
      DynamicGpuBc engine(spec, mode, with_conflicts,
                          /*track_atomic_conflicts=*/true);

      std::uint64_t atomics = 0;
      std::uint64_t conflicts = 0;
      double total_cycles = 0.0;
      double conflict_cycles = 0.0;
      for (const auto& [u, v] : stream.insertions) {
        g.insert_edge(u, v);
        const auto r = engine.insert_edge_update(g, store, u, v);
        atomics += r.stats.total.atomics;
        conflicts += r.stats.total.atomic_conflicts;
        total_cycles += r.stats.total.cycles;
        conflict_cycles +=
            static_cast<double>(r.stats.total.atomic_conflicts) *
            with_conflicts.atomic_conflict_cycles;
      }
      const double rate = atomics == 0
                              ? 0.0
                              : static_cast<double>(conflicts) /
                                    static_cast<double>(atomics);
      // Serialization share of the summed per-block work cycles.
      const double penalty =
          total_cycles <= 0.0 ? 0.0 : conflict_cycles / total_cycles;
      const std::string mode_key =
          mode == Parallelism::kEdge ? "edge" : "node";
      bench::record_result("ablation_contention", entry.name,
                           mode_key + ".atomics",
                           static_cast<double>(atomics));
      bench::record_result("ablation_contention", entry.name,
                           mode_key + ".conflicts",
                           static_cast<double>(conflicts));
      bench::record_result("ablation_contention", entry.name,
                           mode_key + ".conflict_rate", rate);
      bench::record_result("ablation_contention", entry.name,
                           mode_key + ".work_penalty", penalty);
      table.add_row({first ? entry.name : "", to_string(mode),
                     std::to_string(atomics), std::to_string(conflicts),
                     util::Table::fmt(100.0 * rate, 2) + "%",
                     util::Table::fmt(100.0 * penalty, 2) + "%"});
      first = false;
    }
  }

  analysis::print_header(
      "Ablation: same-address atomic conflicts, edge- vs node-parallel updates");
  analysis::emit_table(table, bench::csv_path(cfg, "ablation_contention"));
  bench::emit_metrics(cfg);
  std::cout << "\nPaper claims (§I, §III): node-parallel has less "
               "contention over shared resources than edge-parallel, and "
               "the cross-block BC additions are effectively uncontended. "
               "Residual conflicts concentrate in sigma/delta accumulation "
               "on clustered graphs (many children sharing a predecessor "
               "inside one warp).\n";
  return 0;
}
