// Async streams/copy-engine semantics and the pipelined batch driver:
// FIFO order within a stream, transfer/compute overlap across streams,
// event dependency edges, the copy-engine cost model, depth-1 equivalence
// with the synchronous chain, and bit-identical scores at every depth.
//
// A separate binary (ctest -L pipeline) because the Session tests flip the
// per-thread tracer/hazard/telemetry singletons and the report test
// resets the global metrics registry.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/pipeline.hpp"
#include "bc/session.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/hazard_detector.hpp"
#include "gpusim/stream.hpp"
#include "trace/metrics.hpp"
#include "trace/report.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

// ---------------------------------------------------------------------
// Stream / event / copy-engine semantics (gpusim/stream.hpp)
// ---------------------------------------------------------------------

sim::DeviceSpec unit_clock_spec(int sms = 2) {
  sim::DeviceSpec s;
  s.name = "tiny";
  s.num_sms = sms;
  s.threads_per_block = 4;
  s.clock_ghz = 1.0;  // 1 cycle == 1 ns: seconds math is easy to check
  return s;
}

// A job kernel that charges a deterministic chunk of modeled work.
void busy_job(sim::BlockContext& ctx, int /*job*/) {
  ctx.parallel_for(64, [&](std::size_t) { ctx.charge_read(8); });
}

TEST(StreamModel, TransferCostIsSetupPlusPerByte) {
  const sim::CostModel cm;
  EXPECT_DOUBLE_EQ(
      transfer_cycles(cm, sim::TransferDir::kHostToDevice, 1000),
      cm.transfer_setup_cycles + 1000.0 * cm.h2d_cycles_per_byte);
  EXPECT_DOUBLE_EQ(
      transfer_cycles(cm, sim::TransferDir::kDeviceToHost, 1000),
      cm.transfer_setup_cycles + 1000.0 * cm.d2h_cycles_per_byte);
}

TEST(StreamModel, ZeroByteTransferStillPaysSetup) {
  const sim::CostModel cm;
  EXPECT_DOUBLE_EQ(transfer_cycles(cm, sim::TransferDir::kHostToDevice, 0),
                   cm.transfer_setup_cycles);
  sim::Device dev(unit_clock_spec());
  sim::Stream s(dev, "up");
  const sim::TransferStats t = s.memcpy_h2d(0, "empty");
  EXPECT_DOUBLE_EQ(t.end_cycles - t.start_cycles, cm.transfer_setup_cycles);
  EXPECT_DOUBLE_EQ(dev.copy_end_cycles(), cm.transfer_setup_cycles);
}

TEST(StreamModel, TransfersAreFifoWithinAStream) {
  sim::Device dev(unit_clock_spec());
  sim::Stream s(dev, "up");
  const sim::TransferStats t1 = s.memcpy_h2d(4096);
  const sim::TransferStats t2 = s.memcpy_h2d(4096);
  EXPECT_DOUBLE_EQ(t1.start_cycles, 0.0);
  EXPECT_DOUBLE_EQ(t2.start_cycles, t1.end_cycles);
  EXPECT_DOUBLE_EQ(s.ready_cycles(), t2.end_cycles);
}

TEST(StreamModel, CopyEngineSerializesAcrossStreams) {
  // One DMA engine: two streams' transfers queue behind each other even
  // with no dependency edge between them.
  sim::Device dev(unit_clock_spec());
  sim::Stream a(dev, "a");
  sim::Stream b(dev, "b");
  const sim::TransferStats t1 = a.memcpy_h2d(8192);
  const sim::TransferStats t2 = b.memcpy_h2d(8192);
  EXPECT_DOUBLE_EQ(t2.start_cycles, t1.end_cycles);
  EXPECT_DOUBLE_EQ(t2.wait_cycles, t1.end_cycles);
}

TEST(StreamModel, OppositeDirectionsUseSeparateEngines) {
  // Two DMA engines (Fermi dual copy engines): an H2D and a D2H issued
  // back to back on different streams both start at cycle 0.
  sim::Device dev(unit_clock_spec());
  sim::Stream up(dev, "up");
  sim::Stream down(dev, "down");
  const sim::TransferStats t1 = up.memcpy_h2d(8192);
  const sim::TransferStats t2 = down.memcpy_d2h(8192);
  EXPECT_DOUBLE_EQ(t1.start_cycles, 0.0);
  EXPECT_DOUBLE_EQ(t2.start_cycles, 0.0);
  EXPECT_DOUBLE_EQ(dev.h2d_end_cycles(), t1.end_cycles);
  EXPECT_DOUBLE_EQ(dev.d2h_end_cycles(), t2.end_cycles);
  EXPECT_DOUBLE_EQ(dev.copy_end_cycles(),
                   std::max(t1.end_cycles, t2.end_cycles));
}

TEST(StreamModel, TransferOverlapsComputeAcrossStreams) {
  sim::Device dev(unit_clock_spec());
  sim::Stream copy(dev, "copy");
  dev.launch_queue(8, busy_job, nullptr, "busy");
  ASSERT_GT(dev.compute_end_cycles(), 0.0);
  // The copy stream has no dependency on the kernel: its transfer starts
  // at cycle 0, fully under the running kernel.
  const sim::TransferStats t = copy.memcpy_h2d(64);
  EXPECT_DOUBLE_EQ(t.start_cycles, 0.0);
  EXPECT_LT(t.end_cycles, dev.compute_end_cycles());
  // Device makespan is the max of the two engine timelines.
  EXPECT_DOUBLE_EQ(dev.makespan_cycles(),
                   std::max(dev.compute_end_cycles(), dev.copy_end_cycles()));
  EXPECT_DOUBLE_EQ(dev.makespan_cycles(), dev.compute_end_cycles());
}

TEST(StreamModel, MakespanTracksCopyEngineWhenTransfersDominate) {
  sim::Device dev(unit_clock_spec());
  sim::Stream s(dev, "up");
  s.memcpy_h2d(1 << 22);  // 4 MiB: dwarfs the empty compute timeline
  EXPECT_DOUBLE_EQ(dev.compute_end_cycles(), 0.0);
  EXPECT_DOUBLE_EQ(dev.makespan_cycles(), dev.copy_end_cycles());
  EXPECT_DOUBLE_EQ(dev.makespan_seconds(),
                   dev.copy_end_cycles() / (unit_clock_spec().clock_ghz * 1e9));
}

TEST(StreamModel, EventWaitOrdersAcrossStreams) {
  sim::Device dev(unit_clock_spec());
  sim::Stream a(dev, "a");
  sim::Stream b(dev, "b");
  a.memcpy_h2d(4096);
  const sim::Event ev = a.record_event();
  EXPECT_TRUE(ev.recorded());
  EXPECT_DOUBLE_EQ(ev.cycles(), a.ready_cycles());
  b.wait_event(ev);
  EXPECT_GE(b.ready_cycles(), ev.cycles());
  // A synthesized far-future event is the binding constraint: the next op
  // starts exactly at the event, not at the engine-free time.
  const double far = 1e9;
  b.wait_event(sim::Event::at(far));
  const sim::TransferStats t = b.memcpy_d2h(16);
  EXPECT_DOUBLE_EQ(t.start_cycles, far);
}

TEST(StreamModel, UnrecordedEventWaitIsNoOp) {
  sim::Device dev(unit_clock_spec());
  sim::Stream s(dev, "s");
  const sim::Event never;
  EXPECT_FALSE(never.recorded());
  s.wait_event(never);
  EXPECT_DOUBLE_EQ(s.ready_cycles(), 0.0);
}

TEST(StreamModel, LaunchWaitsForTheStreamFrontier) {
  sim::Device dev(unit_clock_spec());
  sim::Stream s(dev, "s");
  const sim::TransferStats up = s.memcpy_h2d(1 << 20);
  dev.wait_compute_until(s.ready_cycles());
  dev.launch_queue(4, busy_job, nullptr, "after_upload");
  // The kernel could not start before its input landed.
  EXPECT_GE(dev.compute_end_cycles(), up.end_cycles);
}

// ---------------------------------------------------------------------
// Pipelined batch driver (bc/pipeline.cpp)
// ---------------------------------------------------------------------

/// Sequential non-overlapping batches of absent edges (each batch staged
/// against the graph all earlier batches produced).
std::vector<std::vector<std::pair<VertexId, VertexId>>> make_batches(
    const CSRGraph& g, int batches, int per_batch, std::uint64_t seed) {
  BCDYN_SEEDED_RNG(rng, seed);
  std::vector<std::vector<std::pair<VertexId, VertexId>>> out;
  CSRGraph cur = g;
  for (int b = 0; b < batches; ++b) {
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (int i = 0; i < per_batch; ++i) {
      const auto [u, v] = test::random_absent_edge(cur, rng);
      if (u == kNoVertex) break;
      cur = cur.with_edge(u, v);
      edges.emplace_back(u, v);
    }
    out.push_back(std::move(edges));
  }
  return out;
}

constexpr ApproxConfig kApprox{.num_sources = 16, .seed = 9};

void expect_scores_identical(std::span<const double> a,
                             std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "score diverged at vertex " << i;
  }
}

TEST(Pipeline, RequiresComputeFirst) {
  const auto g = test::gnp_graph(40, 0.06, 31);
  DynamicBc analytic(g, {.engine = EngineKind::kGpuEdge, .approx = kApprox});
  const auto batches = make_batches(g, 2, 3, 5);
  EXPECT_THROW(analytic.insert_edge_batches(batches), std::logic_error);
}

TEST(Pipeline, DepthOneModeledEqualsSerialChain) {
  const auto g = test::gnp_graph(80, 0.05, 41);
  const auto batches = make_batches(g, 4, 6, 7);
  DynamicBc analytic(g, {.engine = EngineKind::kGpuEdge,
                         .approx = kApprox,
                         .pipeline_depth = 1});
  analytic.compute();
  const PipelineResult r = analytic.insert_edge_batches(batches);
  EXPECT_EQ(r.depth, 1);
  EXPECT_EQ(r.batches, 4);
  // Depth 1 is the fully serialized chain by construction: the pipelined
  // makespan IS the sum of every batch's classify+upload+kernel+download.
  EXPECT_NEAR(r.modeled_seconds, r.serial_seconds,
              1e-9 * r.serial_seconds + 1e-15);
  EXPECT_NEAR(r.overlap_efficiency, 1.0, 1e-9);
  EXPECT_GT(r.h2d_bytes, 0u);
}

TEST(Pipeline, ScoresBitIdenticalToSynchronousPathAtEveryDepth) {
  const auto g = test::gnp_graph(80, 0.05, 43);
  const auto batches = make_batches(g, 4, 6, 11);

  DynamicBc sync(g, {.engine = EngineKind::kGpuEdge, .approx = kApprox});
  sync.compute();
  std::vector<UpdateOutcome> sync_outcomes;
  for (const auto& edges : batches) {
    sync_outcomes.push_back(sync.insert_edge_batch(edges));
  }

  for (const int depth : {1, 2, 4}) {
    DynamicBc piped(g, {.engine = EngineKind::kGpuEdge,
                        .approx = kApprox,
                        .pipeline_depth = depth});
    piped.compute();
    const PipelineResult r = piped.insert_edge_batches(batches);
    SCOPED_TRACE("depth " + std::to_string(depth));
    expect_scores_identical(sync.scores(), piped.scores());
    ASSERT_EQ(r.per_batch.size(), sync_outcomes.size());
    for (std::size_t j = 0; j < sync_outcomes.size(); ++j) {
      EXPECT_EQ(r.per_batch[j].inserted, sync_outcomes[j].inserted);
      EXPECT_EQ(r.per_batch[j].case2, sync_outcomes[j].case2);
      EXPECT_EQ(r.per_batch[j].case3, sync_outcomes[j].case3);
    }
  }
}

TEST(Pipeline, DeeperPipelinesNeverModelSlower) {
  const auto g = test::gnp_graph(100, 0.04, 47);
  const auto batches = make_batches(g, 6, 8, 13);
  double depth1_modeled = 0.0;
  for (const int depth : {1, 2, 4}) {
    DynamicBc analytic(g, {.engine = EngineKind::kGpuEdge,
                           .approx = kApprox,
                           .pipeline_depth = depth});
    analytic.compute();
    const PipelineResult r = analytic.insert_edge_batches(batches);
    if (depth == 1) depth1_modeled = r.modeled_seconds;
    EXPECT_GE(r.overlap_efficiency, 1.0 - 1e-9) << "depth " << depth;
    EXPECT_LE(r.modeled_seconds, depth1_modeled * (1.0 + 1e-9))
        << "depth " << depth;
    EXPECT_NEAR(r.overlap_efficiency, r.serial_seconds / r.modeled_seconds,
                1e-12);
  }
}

TEST(Pipeline, ByteAccountingMatchesTheDocumentedFormula) {
  const auto g = test::gnp_graph(60, 0.05, 53);
  const auto batches = make_batches(g, 3, 5, 17);

  // Replay the sync path to learn each batch's post-batch graph and
  // accepted count, then check the pipeline's ledger against the formula.
  DynamicBc sync(g, {.engine = EngineKind::kGpuEdge, .approx = kApprox});
  sync.compute();
  std::uint64_t expect_h2d = 0;
  std::uint64_t nonempty = 0;
  for (const auto& edges : batches) {
    const UpdateOutcome o = sync.insert_edge_batch(edges);
    if (o.inserted > 0) {
      expect_h2d += pipeline_upload_bytes(sync.graph(), o.inserted);
      ++nonempty;
    }
  }

  DynamicBc piped(g, {.engine = EngineKind::kGpuEdge, .approx = kApprox});
  piped.compute();
  const PipelineResult r = piped.insert_edge_batches(batches);
  EXPECT_EQ(r.h2d_bytes, expect_h2d);
  EXPECT_EQ(r.d2h_bytes, nonempty * static_cast<std::uint64_t>(
                                        g.num_vertices()) * sizeof(double));
}

TEST(Pipeline, EmptyAndDuplicateBatchesFlowThrough) {
  const auto g = test::gnp_graph(50, 0.06, 59);
  auto batches = make_batches(g, 2, 4, 19);
  // An all-duplicate batch (re-inserts base edges) and an empty one.
  std::vector<std::pair<VertexId, VertexId>> dupes;
  dupes.emplace_back(g.arc_src()[0], g.arc_dst()[0]);
  batches.insert(batches.begin() + 1, dupes);
  batches.push_back({});

  DynamicBc sync(g, {.engine = EngineKind::kGpuEdge, .approx = kApprox});
  sync.compute();
  for (const auto& edges : batches) {
    sync.insert_edge_batch(edges);
  }
  DynamicBc piped(g, {.engine = EngineKind::kGpuEdge, .approx = kApprox});
  piped.compute();
  const PipelineResult r = piped.insert_edge_batches(batches);
  EXPECT_EQ(r.batches, static_cast<int>(batches.size()));
  EXPECT_EQ(r.per_batch[1].inserted, 0);
  expect_scores_identical(sync.scores(), piped.scores());
}

TEST(Pipeline, ShardedEngineScoreParity) {
  const auto g = test::gnp_graph(70, 0.05, 61);
  const auto batches = make_batches(g, 3, 6, 23);
  // Pipelined vs synchronous on the SAME sharded config: bit-identical
  // (the depth-invariance contract holds per engine configuration).
  DynamicBc sync(g, {.engine = EngineKind::kGpuEdge,
                     .approx = kApprox,
                     .num_devices = 2});
  sync.compute();
  for (const auto& edges : batches) {
    sync.insert_edge_batch(edges);
  }
  DynamicBc sharded(g, {.engine = EngineKind::kGpuEdge,
                        .approx = kApprox,
                        .num_devices = 2});
  sharded.compute();
  const PipelineResult r = sharded.insert_edge_batches(batches);
  EXPECT_GE(r.overlap_efficiency, 1.0 - 1e-9);
  expect_scores_identical(sync.scores(), sharded.scores());
  // Against a single device only near-parity holds (cross-block atomic
  // reduction order differs across shards - the sharding suite's standing
  // 1e-7 contract, not a pipeline property).
  DynamicBc single(g, {.engine = EngineKind::kGpuEdge, .approx = kApprox});
  single.compute();
  for (const auto& edges : batches) {
    single.insert_edge_batch(edges);
  }
  test::expect_near_spans(single.scores(), sharded.scores(), 1e-7, "bc");
}

TEST(Pipeline, CpuEngineFallsBackToSerialChain) {
  const auto g = test::gnp_graph(50, 0.06, 67);
  const auto batches = make_batches(g, 3, 4, 29);
  DynamicBc sync(g, {.engine = EngineKind::kCpu, .approx = kApprox});
  sync.compute();
  for (const auto& edges : batches) {
    sync.insert_edge_batch(edges);
  }
  DynamicBc piped(g, {.engine = EngineKind::kCpu,
                      .approx = kApprox,
                      .pipeline_depth = 3});
  piped.compute();
  const PipelineResult r = piped.insert_edge_batches(batches);
  // No simulated device, no copy engine: the CPU engine executes the
  // batches serially and reports no overlap.
  EXPECT_DOUBLE_EQ(r.overlap_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(r.modeled_seconds, r.serial_seconds);
  EXPECT_EQ(r.h2d_bytes, 0u);
  expect_scores_identical(sync.scores(), piped.scores());
}

// ---------------------------------------------------------------------
// bc::Session (consolidated runtime wiring)
// ---------------------------------------------------------------------

TEST(Session, AppliesAndRestoresRuntimeToggles) {
  trace::tracer().set_enabled(false);
  sim::hazards().set_enabled(false);
  sim::hazards().set_strict(false);
  trace::telemetry().set_enabled(false);

  const auto g = test::gnp_graph(30, 0.08, 71);
  {
    bc::Session session(g, {.engine = EngineKind::kGpuEdge,
                            .approx = kApprox,
                            .runtime = {.tracing = true,
                                        .hazard_detection = true,
                                        .strict_hazards = true,
                                        .telemetry = true}});
    EXPECT_TRUE(trace::tracer().enabled());
    EXPECT_TRUE(sim::hazards().enabled());
    EXPECT_TRUE(sim::hazards().strict());
    EXPECT_TRUE(trace::telemetry().enabled());
    session.compute();
    session.insert_edge(1, 7);
  }
  EXPECT_FALSE(trace::tracer().enabled());
  EXPECT_FALSE(sim::hazards().enabled());
  EXPECT_FALSE(sim::hazards().strict());
  EXPECT_FALSE(trace::telemetry().enabled());
}

TEST(Session, PipelinedIngestMatchesBareAnalytic) {
  const auto g = test::gnp_graph(60, 0.05, 73);
  const auto batches = make_batches(g, 3, 5, 37);
  DynamicBc bare(g, {.engine = EngineKind::kGpuEdge, .approx = kApprox});
  bare.compute();
  for (const auto& edges : batches) {
    bare.insert_edge_batch(edges);
  }
  bc::Session session(g, {.engine = EngineKind::kGpuEdge,
                          .approx = kApprox,
                          .pipeline_depth = 2});
  session.compute();
  const PipelineResult r = session.insert_edge_batches(batches);
  EXPECT_EQ(r.depth, 2);
  expect_scores_identical(bare.scores(), session.scores());
}

TEST(Session, ReportGainsThePipelineSection) {
  trace::metrics().reset();
  const auto g = test::gnp_graph(50, 0.06, 79);
  const auto batches = make_batches(g, 2, 4, 41);
  bc::Session session(g, {.engine = EngineKind::kGpuEdge, .approx = kApprox});
  session.compute();
  EXPECT_EQ(session.report().find("== pipeline =="), std::string::npos);
  session.insert_edge_batches(batches);
  const std::string report = session.report();
  EXPECT_NE(report.find("== pipeline =="), std::string::npos);
  EXPECT_NE(report.find("copy engine:"), std::string::npos);
}

}  // namespace
}  // namespace bcdyn
