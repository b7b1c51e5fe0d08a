// Social-network stream: a preferential-attachment graph grows by batches
// of friendships while the analytic tracks who the current "influencers"
// (highest-BC vertices) are - the paper's §I motivating workload.
//
//   $ ./social_stream [--users=N] [--batches=B] [--batch-size=K]
//                     [--engine=cpu|gpu-node|gpu-edge] [--threshold=F]
//                     [--devices=N] [--pipeline=D]
//
// Demonstrates: GPU-simulated engines behind the consolidated bc::Session
// API, batched updates (each batch of friendships is ONE analytic update /
// work-queue kernel launch), the recompute fallback for sources the batch
// touches too heavily, rank-churn tracking, and (with --pipeline=D > 1)
// the double-buffered async ingest path that overlaps a batch's staged
// upload with the previous batch's kernels.
//
// Shared flag spellings/defaults come from util::parse_std_flags; run with
// --help for the list. (The engine default is the canonical gpu-edge; it
// was gpu-node before the flags were unified.)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/session.hpp"
#include "gen/generators.hpp"
#include "util/rng.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace bcdyn;
  util::Cli cli(argc, argv);
  const VertexId users =
      cli.get_count("users", 4000, "users (vertices) in the social graph");
  if (users <= 4) cli.reject("users", "a count > 4");
  const int batches =
      cli.get_count("batches", 6, "friendship batches to stream in");
  const int batch_size =
      cli.get_count("batch-size", 20, "friendships per batch");
  const double threshold = cli.get_double(
      "threshold", 0.25, "batch recompute-fallback threshold");
  if (!(threshold >= 0.0)) cli.reject("threshold", "a number >= 0");
  const util::StdFlags std_flags = util::parse_std_flags(cli);
  const int pipeline = cli.get_count(
      "pipeline", 1, "async ingest depth (1 = per-batch synchronous)");
  if (pipeline < 1) cli.reject("pipeline", "a depth >= 1");
  if (cli.help_requested()) {
    cli.print_help("social_stream",
                   "Stream preferential-attachment friendship batches "
                   "through the analytic and track influencer churn.",
                   std::cout);
    return 0;
  }
  const EngineKind kind = parse_engine_flag(std_flags.engine);

  const CSRGraph graph = gen::preferential_attachment(users, 4, 11);
  // draw_batch draws absent friendships until a batch is full, so it would
  // never finish on a graph with too few. Pipelined, every batch is drawn
  // against the initial graph; synchronous batches add up.
  const std::int64_t n = graph.num_vertices();
  const std::int64_t absent = n * (n - 1) / 2 - graph.num_edges();
  const std::int64_t wanted =
      pipeline > 1 ? batch_size : std::int64_t{batches} * batch_size;
  if (wanted > absent) {
    cli.reject("batch-size", "batches that fit the graph's absent edges");
  }
  std::printf("social graph: %d users, %lld friendships, engine=%s"
              " devices=%d\n",
              graph.num_vertices(), static_cast<long long>(graph.num_edges()),
              to_string(kind), std_flags.devices);

  bc::Session analytic(graph, {.engine = kind,
                               .approx = {.num_sources = 64, .seed = 2},
                               .num_devices = std_flags.devices,
                               .batch_recompute_threshold = threshold,
                               .pipeline_depth = pipeline});
  analytic.compute();

  auto top10 = analytic.top_k(10);
  std::printf("\ninitial influencers: ");
  for (const auto& [v, _] : top10) std::printf("%d ", v);
  std::printf("\n");

  util::Rng rng(99);
  auto draw_batch = [&] {
    // New friendships skew toward popular users (degree-biased endpoint),
    // like real social growth. The whole batch is collected first and
    // applied as ONE analytic update.
    std::vector<std::pair<VertexId, VertexId>> friendships;
    while (static_cast<int>(friendships.size()) < batch_size) {
      const auto u = static_cast<VertexId>(rng.next_below(
          static_cast<std::uint64_t>(users)));
      // Pick v via a random edge endpoint: degree-proportional.
      const auto arc = rng.next_below(
          static_cast<std::uint64_t>(analytic.graph().num_arcs()));
      const VertexId v = analytic.graph().arc_src()[static_cast<std::size_t>(arc)];
      if (u == v || analytic.graph().has_edge(u, v)) continue;
      // The batch is deduplicated by insert_edge_batch, but checking here
      // keeps the "+K friendships" count honest.
      const bool pending = std::any_of(
          friendships.begin(), friendships.end(), [&](const auto& e) {
            return (e.first == u && e.second == v) ||
                   (e.first == v && e.second == u);
          });
      if (!pending) friendships.emplace_back(u, v);
    }
    return friendships;
  };

  auto report_batch = [&](int batch, const UpdateOutcome& r) {
    const auto now = analytic.top_k(10);
    int churn = 0;
    for (const auto& [v, _] : now) {
      const bool was_in = std::any_of(top10.begin(), top10.end(),
                                      [&](const auto& p) { return p.first == v; });
      if (!was_in) ++churn;
    }
    top10 = now;
    std::printf(
        "batch %d: +%d friendships (1 launch)  cases(1/2/3)=%d/%d/%d  "
        "recomputed sources=%d  modeled update time=%.3fms  "
        "top-10 churn=%d  leader=%d\n",
        batch + 1, r.inserted, r.case1, r.case2, r.case3,
        r.recomputed_sources, r.modeled_seconds * 1e3, churn, top10[0].first);
  };

  if (pipeline > 1) {
    // Pipelined ingest: the whole stream is handed to the async driver at
    // once; it stages batch k+1's upload while batch k's kernels run.
    // Scores (and thus churn accounting) are bit-identical to the
    // synchronous loop below - only the modeled makespan changes. The
    // per-batch churn is reported after the fact from the pipeline's
    // per-batch outcomes, so ranks are read once at the end.
    std::vector<std::vector<std::pair<VertexId, VertexId>>> stream;
    stream.reserve(static_cast<std::size_t>(batches));
    for (int b = 0; b < batches; ++b) stream.push_back(draw_batch());
    const PipelineResult pr = analytic.insert_edge_batches(stream);
    for (int b = 0; b < static_cast<int>(pr.per_batch.size()); ++b) {
      report_batch(b, pr.per_batch[static_cast<std::size_t>(b)]);
    }
    std::printf(
        "\npipeline depth %d over %d batches: modeled %.3fms vs %.3fms "
        "serial (overlap efficiency %.2fx)\n",
        pr.depth, pr.batches, pr.modeled_seconds * 1e3,
        pr.serial_seconds * 1e3, pr.overlap_efficiency);
  } else {
    for (int batch = 0; batch < batches; ++batch) {
      report_batch(batch, analytic.insert_edge_batch(draw_batch()));
    }
  }

  std::printf("\nfinal influencers:\n");
  for (const auto& [v, score] : analytic.top_k(10)) {
    std::printf("  user %6d  bc=%.1f\n", v, score);
  }
  return 0;
}
