// Async pipeline overlap (DESIGN.md "Async pipeline"): replay the same
// stream of insertion batches through DynamicBc::insert_edge_batches at
// depth 1 (the fully serialized classify -> upload -> kernels -> download
// chain) and at --depth (double buffering by default), on every suite
// graph. The pipelined schedule overlaps batch k+1's host staging and H2D
// uploads with batch k's kernels on the simulated copy engines, so its
// transfer-inclusive modeled makespan must come in below the serial
// chain's; scores are bit-identical by construction, and the bench fails
// (exit 1) if they ever diverge or if the geomean modeled speedup falls
// below --min-speedup (1.2x full-size; relaxed to break-even in --smoke,
// where a single tiny graph's batches are too small to amortize setup).
//
// The default configuration is a STINGER-style single-edge update stream
// (32 batches of one edge, 8 approximate sources): each update re-sends
// the CSR, so the chain is upload-dominated and overlap pays - the suite
// geomean sits around 1.3x, with only the high-diameter Delaunay graph
// staying kernel-bound near 1.0x. Large batches amortize the upload over
// more kernel work and push every graph toward compute-bound (try
// --batch-size=24 --sources=32 to see the overlap benefit shrink).
//
// Extra flags on top of bench_common's (--sources defaults to 8 here, not
// bench_common's 32, unless passed explicitly):
//   --batches=B       batches in the stream (default 32)
//   --batch-size=K    edges per batch (default 1)
//   --depth=D         pipeline staging depth to compare (default 2)
//   --threshold=F     Options::batch_recompute_threshold (default 0.25)
//   --min-speedup=X   geomean gate (default 1.2; 1.0 under --smoke)
#include <cmath>
#include <iostream>
#include <utility>
#include <vector>

#include "bc/dynamic_bc.hpp"
#include "bc/pipeline.hpp"
#include "bench_common.hpp"
#include "gpusim/fault_injector.hpp"
#include "util/rng.hpp"

using namespace bcdyn;

namespace {

/// Deterministic stream of edge batches: endpoints drawn uniformly,
/// duplicates and self-loops left in (stage_batch filters them, as a real
/// ingest feed would contain them too).
std::vector<std::vector<std::pair<VertexId, VertexId>>> make_stream(
    const CSRGraph& g, int batches, int batch_size, std::uint64_t seed) {
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  std::vector<std::vector<std::pair<VertexId, VertexId>>> stream;
  stream.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    std::vector<std::pair<VertexId, VertexId>> edges;
    edges.reserve(static_cast<std::size_t>(batch_size));
    for (int i = 0; i < batch_size; ++i) {
      edges.emplace_back(static_cast<VertexId>(rng.next_below(n)),
                         static_cast<VertexId>(rng.next_below(n)));
    }
    stream.push_back(std::move(edges));
  }
  return stream;
}

PipelineResult run_depth(
    const gen::SuiteEntry& entry, const ApproxConfig& approx,
    EngineKind engine, int devices,
    std::span<const std::vector<std::pair<VertexId, VertexId>>> stream,
    int depth, double threshold, std::vector<double>* scores,
    const RecoveryPolicy& recovery = {}) {
  DynamicBc analytic(entry.graph, {.engine = engine,
                                   .approx = approx,
                                   .num_devices = devices,
                                   .batch_recompute_threshold = threshold,
                                   .recovery = recovery,
                                   .pipeline_depth = depth});
  analytic.compute();
  const PipelineResult r = analytic.insert_edge_batches(stream);
  if (scores) {
    scores->assign(analytic.scores().begin(), analytic.scores().end());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  // Single-edge ingest wants fewer sources than bench_common's default 32:
  // small kernels keep the chain upload-bound, the regime pipelining
  // exists for. Registered before parse_common (first registration wins)
  // so --help shows this bench's real default.
  const int sources =
      cli.get_count("sources", 8, "BC approximation sources (paper: 256)");
  bench::CommonConfig cfg = bench::parse_common(cli);
  cfg.sources = sources;
  int batches = cli.get_count("batches", 32, "batches in the stream");
  int batch_size = cli.get_count("batch-size", 1, "edges per batch");
  const int depth = cli.get_count(
      "depth", 2, "pipeline staging depth to compare against depth 1");
  if (depth < 1) cli.reject("depth", "a depth >= 1");
  const double threshold = cli.get_double(
      "threshold", 0.25, "batch recompute-fallback threshold");
  if (!(threshold >= 0.0)) cli.reject("threshold", "a number >= 0");
  const int devices = cli.get_count(
      "devices", 1, "simulated devices to shard the kernels across");
  const double min_speedup = cli.get_double(
      "min-speedup", cfg.smoke ? 1.0 : 1.2,
      "fail unless geomean modeled speedup reaches this");
  if (bench::handle_help(cli, "pipeline_overlap",
                         "Depth-1 vs pipelined modeled makespan of the same "
                         "batch stream; transfer-inclusive.")) {
    return 0;
  }
  bench::warn_unused(cli);
  if (cfg.smoke) {
    batches = std::min(batches, 4);
    batch_size = std::min(batch_size, 8);
  }
  const auto graphs = bench::build_graphs(cfg);
  bench::print_graph_summary(graphs);

  const ApproxConfig approx{.num_sources = cfg.sources, .seed = cfg.seed};
  const EngineKind engine = EngineKind::kGpuEdge;
  std::cout << "\nPipelined batch ingest: " << batches << " batches x "
            << batch_size << " edges, depth 1 vs depth " << depth << ", "
            << cfg.sources << " sources, engine " << to_string(engine)
            << "\n";

  util::Table table({"Graph", "Serial (s)", "Pipelined (s)", "Speedup",
                     "Overlap", "H2D (MB)", "MaxDiff"});
  double geo = 0.0;
  int count = 0;
  bool all_match = true;

  for (const auto& entry : graphs) {
    std::cerr << "  " << entry.name << "..." << std::flush;
    const auto stream =
        make_stream(entry.graph, batches, batch_size, cfg.seed);
    std::vector<double> serial_scores;
    std::vector<double> piped_scores;
    const PipelineResult serial =
        run_depth(entry, approx, engine, devices, stream, 1, threshold,
                  &serial_scores);
    const PipelineResult piped = run_depth(entry, approx, engine, devices,
                                           stream, depth, threshold,
                                           &piped_scores);
    std::cerr << " done\n";
    const double speedup = serial.modeled_seconds / piped.modeled_seconds;
    const double diff = analysis::max_abs_diff(serial_scores, piped_scores);
    all_match = all_match && diff == 0.0;
    bench::record_result("pipeline_overlap", entry.name, "depth1_seconds",
                         serial.modeled_seconds);
    bench::record_result("pipeline_overlap", entry.name, "pipelined_seconds",
                         piped.modeled_seconds);
    bench::record_result("pipeline_overlap", entry.name, "speedup", speedup);
    geo += std::log(speedup);
    ++count;
    table.add_row({entry.name, util::Table::fmt(serial.modeled_seconds, 5),
                   util::Table::fmt(piped.modeled_seconds, 5),
                   util::Table::fmt(speedup, 2) + "x",
                   util::Table::fmt(piped.overlap_efficiency, 2) + "x",
                   util::Table::fmt(
                       static_cast<double>(piped.h2d_bytes) / 1e6, 1),
                   util::Table::fmt(diff, 2)});
  }

  const double geomean = std::exp(geo / count);
  analysis::emit_table(table, bench::csv_path(cfg, "pipeline_overlap"));
  trace::metrics().set_gauge("pipeline_overlap.geomean_speedup", geomean);

  // Fault-recovery leg: replay the first graph's pipelined stream with the
  // deterministic injector firing transfer failures and stalls. Bounded
  // retries must recover to bit-identical scores; the makespan-overhead
  // gauge reports how much modeled time the retries and backoff cost
  // relative to the clean run (>= 1.0 whenever anything fired).
  bool fault_match = true;
  {
    const auto& entry = graphs.front();
    const auto stream =
        make_stream(entry.graph, batches, batch_size, cfg.seed);
    std::vector<double> clean_scores;
    std::vector<double> faulted_scores;
    const PipelineResult clean = run_depth(entry, approx, engine, devices,
                                           stream, depth, threshold,
                                           &clean_scores);
    sim::FaultPlan plan;
    plan.seed = cfg.seed ^ 0xFA17ULL;
    plan.transfer_fail_rate = 0.05;
    plan.stall_rate = 0.10;
    auto& m = trace::metrics();
    const std::uint64_t injected0 = m.counter_value("sim.fault.injected.count");
    const std::uint64_t retries0 = m.counter_value("bc.fault.retries.count");
    const std::uint64_t recovered0 = m.counter_value("bc.fault.recovered.count");
    sim::faults().configure(plan);
    sim::faults().set_enabled(true);
    const PipelineResult faulted = run_depth(
        entry, approx, engine, devices, stream, depth, threshold,
        &faulted_scores, {.max_retries = 8, .fallback_recompute = false});
    sim::faults().set_enabled(false);
    fault_match =
        analysis::max_abs_diff(clean_scores, faulted_scores) == 0.0;
    m.set_gauge("pipeline_overlap.fault.injected",
                static_cast<double>(
                    m.counter_value("sim.fault.injected.count") - injected0));
    m.set_gauge("pipeline_overlap.fault.retries",
                static_cast<double>(
                    m.counter_value("bc.fault.retries.count") - retries0));
    m.set_gauge("pipeline_overlap.fault.recovered",
                static_cast<double>(
                    m.counter_value("bc.fault.recovered.count") - recovered0));
    m.set_gauge("pipeline_overlap.fault.makespan_overhead",
                faulted.modeled_seconds / clean.modeled_seconds);
  }
  bench::emit_metrics(cfg);
  std::cout << "Geo-mean modeled speedup from depth-" << depth
            << " pipelining (transfers included): "
            << util::Table::fmt(geomean, 2) << "x\n";
  if (!all_match) {
    std::cerr << "VERIFY FAILED: pipelined scores diverged from depth-1\n";
    return 1;
  }
  if (!fault_match) {
    std::cerr << "VERIFY FAILED: fault-recovered scores diverged from the "
                 "clean pipelined run\n";
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
