// Batched updates vs one-at-a-time (Table II companion): for each suite
// graph and each fine-grained mapping, replay the same k insertions as k
// single-edge analytic updates (k kernel launches) and as ONE batched
// update (a single work-queue launch, Device::launch_queue), and compare
// modeled times. The batch path pays the kernel-launch overhead once and
// lets the greedy next-free-SM schedule balance skewed per-source work, so
// its modeled time must come in below the single-edge total on every
// graph; the gap is widest when per-edge work is small relative to launch
// overhead.
//
// Extra flags on top of bench_common's:
//   --batch-size=K   edges per batch (default 16)
//   --threshold=F    batch recompute-fallback threshold (default 0.25)
#include <cmath>
#include <iostream>

#include "bc/batch_update.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_gpu.hpp"
#include "bench_common.hpp"

using namespace bcdyn;

namespace {

struct ModeResult {
  double single_seconds = 0.0;
  double batch_seconds = 0.0;
  int recomputed = 0;
  double verify_diff = 0.0;
};

ModeResult run_mode(const analysis::EdgeStream& stream,
                    const BatchSnapshots& batch, const ApproxConfig& approx,
                    Parallelism mode, const sim::DeviceSpec& spec,
                    double threshold) {
  const VertexId n = stream.base.num_vertices();
  ModeResult out;

  BcStore single_store(n, approx);
  brandes_all(stream.base, single_store);
  DynamicGpuBc single(spec, mode);
  CSRGraph g = stream.base;
  for (const auto& [u, v] : stream.insertions) {
    g.insert_edge(u, v);
    out.single_seconds +=
        single.edge_update(/*removal=*/false, g, single_store, u, v)
            .stats.seconds;
  }

  BcStore batch_store(n, approx);
  brandes_all(stream.base, batch_store);
  DynamicGpuBc batched(spec, mode);
  const GpuBatchResult result =
      batched.insert_edge_batch(batch, batch_store, threshold);
  out.batch_seconds = result.stats.seconds;
  for (const auto& o : result.outcomes) {
    if (o.recomputed) ++out.recomputed;
  }
  out.verify_diff = analysis::max_abs_diff(
      std::vector<double>(single_store.bc().begin(), single_store.bc().end()),
      std::vector<double>(batch_store.bc().begin(), batch_store.bc().end()));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::CommonConfig cfg = bench::parse_common(cli);
  const int batch_size = cli.get_count("batch-size", 16);
  const double threshold = cli.get_double("threshold", 0.25);
  if (!(threshold >= 0.0)) cli.reject("threshold", "a number >= 0");
  bench::warn_unused(cli);
  const auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  const ApproxConfig approx{.num_sources = cfg.sources, .seed = cfg.seed};
  const auto spec = sim::DeviceSpec::tesla_c2075();
  std::cout << "\nBatched vs single-edge updates: k = " << batch_size
            << " insertions, recompute threshold = " << threshold << ", "
            << cfg.sources << " sources, " << spec.name << "\n";

  util::Table table({"Graph", "Method", "k Singles (s)", "Batch (s)",
                     "Speedup", "Recomp", "MaxDiff"});
  double geo = 0.0;
  int count = 0;
  bool all_faster = true;
  bool all_match = true;

  for (const auto& entry : graphs) {
    const auto stream = analysis::make_insertion_stream(
        entry.graph, {.num_insertions = batch_size, .seed = cfg.seed});
    const auto batch = build_batch_snapshots(stream.base, stream.insertions);
    for (const Parallelism mode : {Parallelism::kEdge, Parallelism::kNode}) {
      std::cerr << "  " << entry.name << " " << to_string(mode) << "..."
                << std::flush;
      const ModeResult r =
          run_mode(stream, batch, approx, mode, spec, threshold);
      std::cerr << " done\n";
      const double speedup = r.single_seconds / r.batch_seconds;
      const std::string key = entry.name + "." + to_string(mode);
      bench::record_result("batch", key, "single_seconds", r.single_seconds);
      bench::record_result("batch", key, "batch_seconds", r.batch_seconds);
      bench::record_result("batch", key, "speedup", speedup);
      bench::record_result("batch", key, "recomputed_sources", r.recomputed);
      geo += std::log(speedup);
      ++count;
      all_faster = all_faster && r.batch_seconds < r.single_seconds;
      all_match = all_match && r.verify_diff < 1e-6;
      table.add_row({entry.name, to_string(mode),
                     util::Table::fmt(r.single_seconds, 5),
                     util::Table::fmt(r.batch_seconds, 5),
                     util::Table::fmt(speedup, 2) + "x",
                     std::to_string(r.recomputed),
                     util::Table::fmt(r.verify_diff, 2)});
    }
  }

  const std::string csv = cfg.csv_dir.empty()
                              ? ""
                              : cfg.csv_dir + "/bench_batch_update.csv";
  analysis::emit_table(table, csv);
  trace::metrics().set_gauge("batch.geomean_speedup", std::exp(geo / count));
  bench::emit_metrics(cfg);
  std::cout << "Geo-mean batch speedup over single-edge launches: "
            << util::Table::fmt(std::exp(geo / count), 2) << "x\n";
  if (!all_match) {
    std::cerr << "VERIFY FAILED: batched scores diverged from single-edge\n";
    return 1;
  }
  if (!all_faster) {
    std::cerr << "REGRESSION: a batch modeled slower than its single-edge "
                 "equivalent\n";
    return 1;
  }
  return 0;
}
