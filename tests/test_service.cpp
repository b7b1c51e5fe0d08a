// bc::Service and bc::SnapshotStore: the multi-client serving layer.
//
// The contracts under test are the ones DESIGN.md's serving-layer note
// states: (1) MVCC snapshot isolation - a read racing an in-flight batch
// pins epoch N, never a torn N+1; (2) virtual-time determinism - replaying
// a recorded request stream yields byte-identical responses; (3) final
// scores are bit-identical at every coalescing depth, engine, and device
// count, because coalesced batches reuse the batch path whose scores
// match sequential application; (4) bounded-queue admission sheds exactly
// the reads the policy names; (5) a mid-batch device loss under the
// recovery policy still publishes a correct epoch.
//
// This binary owns the per-thread telemetry/fault singletons for some
// cases (like the pipeline/chaos suites), so it runs under its own ctest
// label (`service`).
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bc/api.hpp"
#include "gen/generators.hpp"
#include "test_helpers.hpp"
#include "trace/metrics.hpp"
#include "trace/telemetry.hpp"
#include "util/cli.hpp"

namespace bcdyn {
namespace {

using bc::Request;
using bc::RequestKind;
using bc::Response;
using bc::Service;
using bc::ServiceConfig;
using bc::ShedPolicy;
using bc::Snapshot;
using bc::SnapshotStore;

// --- SnapshotStore --------------------------------------------------------

TEST(SnapshotStore, PublishesMonotoneEpochsAndPins) {
  SnapshotStore store(/*retain=*/4);
  EXPECT_TRUE(store.empty());
  EXPECT_FALSE(store.latest().valid());
  EXPECT_FALSE(store.pinned_at(1.0).valid());

  EXPECT_EQ(store.publish({1.0}, 0.0, 0), 0u);
  EXPECT_EQ(store.publish({2.0}, 1.0, 3), 1u);
  EXPECT_EQ(store.publish({3.0}, 2.5, 1), 2u);

  EXPECT_EQ(store.latest_epoch(), 2u);
  EXPECT_EQ(store.latest().coalesced_updates, 1);

  // The MVCC pin: latest commit_time <= t.
  EXPECT_EQ(store.pinned_at(0.0).epoch, 0u);
  EXPECT_EQ(store.pinned_at(0.99).epoch, 0u);
  EXPECT_EQ(store.pinned_at(1.0).epoch, 1u);
  EXPECT_EQ(store.pinned_at(2.49).epoch, 1u);
  EXPECT_EQ(store.pinned_at(100.0).epoch, 2u);
  EXPECT_DOUBLE_EQ((*store.pinned_at(1.5).scores)[0], 2.0);

  EXPECT_EQ(store.at_epoch(1).epoch, 1u);
  EXPECT_FALSE(store.at_epoch(7).valid());
}

TEST(SnapshotStore, RetentionDropsOldestAndDegradesDefined) {
  SnapshotStore store(/*retain=*/2);
  store.publish({0.0}, 0.0, 0);
  store.publish({1.0}, 1.0, 1);
  store.publish({2.0}, 2.0, 1);
  EXPECT_EQ(store.retained(), 2u);
  EXPECT_FALSE(store.at_epoch(0).valid());
  // A pin older than the retained horizon resolves to the oldest retained
  // snapshot rather than nothing.
  EXPECT_EQ(store.pinned_at(0.0).epoch, 1u);
  EXPECT_EQ(store.latest_epoch(), 2u);
}

TEST(SnapshotStore, RejectsRegressingCommitTime) {
  SnapshotStore store;
  store.publish({0.0}, 1.0, 0);
  EXPECT_THROW(store.publish({1.0}, 0.5, 1), std::invalid_argument);
}

// --- helpers --------------------------------------------------------------

bc::Options gpu_options(EngineKind engine = EngineKind::kGpuEdge,
                        int devices = 1) {
  bc::Options options;
  options.engine = engine;
  options.num_devices = devices;
  options.approx = {.num_sources = 8, .seed = 11};
  return options;
}

/// A deterministic mixed stream: `reads` read requests interleaved with
/// `writes` inserts of absent edges (and removals of just-inserted edges
/// when `with_removals`), spaced `gap` virtual seconds apart.
std::vector<Request> make_stream(const CSRGraph& g, int reads, int writes,
                                 double gap, util::Rng& rng,
                                 bool with_removals = false) {
  std::vector<Request> stream;
  const int total = reads + writes;
  int inserted = 0;
  std::vector<std::pair<VertexId, VertexId>> live;
  for (int i = 0; i < total; ++i) {
    Request r;
    r.client_id = static_cast<int>(rng.next_below(4));
    r.arrival_time = gap * static_cast<double>(i + 1);
    const bool write = (i % (total / std::max(1, writes)) == 0) &&
                       inserted < writes;
    if (write) {
      if (with_removals && !live.empty() && rng.next_bool(0.3)) {
        r.kind = RequestKind::kRemove;
        const auto idx = rng.next_below(live.size());
        r.u = live[idx].first;
        r.v = live[idx].second;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      } else {
        const auto [u, v] = test::random_absent_edge(g, rng);
        r.kind = RequestKind::kInsert;
        r.u = u;
        r.v = v;
        live.emplace_back(u, v);
      }
      ++inserted;
    } else {
      r.kind = RequestKind::kRead;
      r.u = static_cast<VertexId>(rng.next_below(
          static_cast<std::uint64_t>(g.num_vertices())));
    }
    stream.push_back(r);
  }
  return stream;
}

/// Byte-exact rendering of a response stream (doubles via %.17g so equal
/// strings mean bit-identical schedules).
std::string render(const std::vector<Response>& responses) {
  std::ostringstream out;
  for (const Response& r : responses) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%llu c%d %s (%d,%d) shed=%d epoch=%llu value=%.17g "
                  "t=[%.17g %.17g %.17g]\n",
                  static_cast<unsigned long long>(r.seq), r.client_id,
                  bc::to_string(r.kind), r.u, r.v, r.shed ? 1 : 0,
                  static_cast<unsigned long long>(r.epoch), r.value,
                  r.arrival_time, r.start_time, r.completion_time);
    out << line;
  }
  return out.str();
}

// --- snapshot isolation ---------------------------------------------------

TEST(Service, ReadDuringInFlightBatchSeesPreviousEpoch) {
  const CSRGraph g = test::gnp_graph(48, 0.15, 5);
  BCDYN_SEEDED_RNG(rng, 505);
  const auto [u, v] = test::random_absent_edge(g, rng);

  ServiceConfig config;
  config.coalesce_window_seconds = 100e-6;
  config.coalesce_depth = 16;
  Service service(g, gpu_options(), config);
  service.start();
  const std::vector<double> before(service.session().scores().begin(),
                                   service.session().scores().end());

  std::vector<Request> stream;
  stream.push_back({.client_id = 1,
                    .arrival_time = 0.0,
                    .kind = RequestKind::kInsert,
                    .u = u,
                    .v = v});
  // Arrives just after the window expires: the batch has dispatched but
  // its engine completion is still in the future, so the read must pin
  // epoch 0 (snapshot isolation).
  stream.push_back({.client_id = 2,
                    .arrival_time = 101e-6,
                    .kind = RequestKind::kRead,
                    .u = 0});
  // Arrives long after every commit completes: sees epoch 1.
  stream.push_back({.client_id = 2,
                    .arrival_time = 1e6,
                    .kind = RequestKind::kRead,
                    .u = 0});
  const auto responses = service.run(std::move(stream));
  ASSERT_EQ(responses.size(), 3u);

  const Response& write = responses[0];
  const Response& racing_read = responses[1];
  const Response& late_read = responses[2];
  EXPECT_EQ(write.epoch, 1u);
  EXPECT_LT(racing_read.start_time, write.completion_time)
      << "fixture must actually race the in-flight batch";
  EXPECT_EQ(racing_read.epoch, 0u);
  EXPECT_DOUBLE_EQ(racing_read.value, before[0]);
  EXPECT_EQ(late_read.epoch, 1u);
  EXPECT_DOUBLE_EQ(late_read.value, service.session().scores()[0]);
}

// --- determinism ----------------------------------------------------------

TEST(Service, ReplayOfRecordedStreamIsByteIdentical) {
  const CSRGraph g = gen::small_world(120, 3, 0.05, 9);
  BCDYN_SEEDED_RNG(rng, 606);
  const auto stream = make_stream(g, 60, 8, 3e-6, rng, /*with_removals=*/true);

  ServiceConfig config;
  config.coalesce_window_seconds = 50e-6;
  config.coalesce_depth = 4;
  config.queue_depth = 8;

  std::string renders[2];
  std::vector<double> finals[2];
  for (int pass = 0; pass < 2; ++pass) {
    Service service(g, gpu_options(), config);
    renders[pass] = render(service.run(stream));
    finals[pass].assign(service.session().scores().begin(),
                        service.session().scores().end());
  }
  EXPECT_EQ(renders[0], renders[1]);
  EXPECT_EQ(finals[0], finals[1]);
  EXPECT_FALSE(renders[0].empty());
}

// --- scores across coalescing depths / engines / devices ------------------
//
// Two contracts, matching the engines underneath:
//   * fused_commits = false applies every coalesced write individually,
//     so the engine sees the exact same operation sequence at every
//     depth and final scores are bit-identical by construction.
//   * fused_commits = true (the default) dispatches insert runs through
//     the fused batch kernel, whose floating-point summation order
//     differs from sequential application; scores agree to the same
//     1e-7 equivalence tests/test_batch_update.cpp establishes for the
//     batch path itself (measured divergence is ~1e-14).
// Replay of an identical config is byte-identical either way
// (Service.ReplayOfRecordedStreamIsByteIdentical).

TEST(Service, ScoresBitIdenticalAcrossCoalescingDepthsEnginesDevices) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 21);
  BCDYN_SEEDED_RNG(rng, 707);
  const auto stream = make_stream(g, 30, 10, 2e-6, rng, /*with_removals=*/true);

  const EngineKind engines[] = {EngineKind::kGpuEdge, EngineKind::kGpuNode,
                                EngineKind::kGpuAdaptive};
  const int device_counts[] = {1, 2};
  const int depths[] = {1, 4, 16};
  for (const EngineKind engine : engines) {
    for (const int devices : device_counts) {
      // The depth-1 run is the sequential one-update-per-request
      // reference; every coalescing depth must match it bit for bit.
      std::vector<double> reference;
      for (const int depth : depths) {
        SCOPED_TRACE(::testing::Message()
                     << to_string(engine) << " x" << devices
                     << " depth=" << depth);
        ServiceConfig config;
        config.coalesce_window_seconds = 40e-6;
        config.coalesce_depth = depth;
        config.fused_commits = false;
        Service service(g, gpu_options(engine, devices), config);
        service.run(stream);
        const std::vector<double> scores(service.session().scores().begin(),
                                         service.session().scores().end());
        ASSERT_GT(service.stats().commits, 0u);
        if (reference.empty()) {
          reference = scores;
        } else {
          EXPECT_EQ(scores, reference);
        }
      }
    }
  }
}

TEST(Service, FusedCommitScoresAgreeAcrossCoalescingDepths) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 21);
  BCDYN_SEEDED_RNG(rng, 707);
  const auto stream = make_stream(g, 30, 10, 2e-6, rng, /*with_removals=*/true);

  const EngineKind engines[] = {EngineKind::kGpuEdge, EngineKind::kGpuNode,
                                EngineKind::kGpuAdaptive};
  const int depths[] = {1, 4, 16};
  for (const EngineKind engine : engines) {
    std::vector<double> reference;
    for (const int depth : depths) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(engine) << " depth=" << depth);
      ServiceConfig config;
      config.coalesce_window_seconds = 40e-6;
      config.coalesce_depth = depth;
      Service service(g, gpu_options(engine), config);
      service.run(stream);
      const std::vector<double> scores(service.session().scores().begin(),
                                       service.session().scores().end());
      ASSERT_GT(service.stats().commits, 0u);
      if (reference.empty()) {
        reference = scores;
      } else {
        test::expect_near_spans(scores, reference, 1e-7, "fused coalescing");
      }
    }
  }
}

TEST(Service, CoalescedCommitsMatchSequentialSessionApplication) {
  const CSRGraph g = test::gnp_graph(36, 0.15, 33);
  BCDYN_SEEDED_RNG(rng, 808);
  const auto stream = make_stream(g, 20, 8, 2e-6, rng, /*with_removals=*/true);

  // Sequential reference: the same writes, one Session call each.
  bc::Session session(g, gpu_options());
  session.compute();
  for (const Request& r : stream) {
    if (r.kind == RequestKind::kInsert) session.insert_edge(r.u, r.v);
    if (r.kind == RequestKind::kRemove) session.remove_edge(r.u, r.v);
  }
  const std::vector<double> reference(session.scores().begin(),
                                      session.scores().end());

  ServiceConfig config;
  config.coalesce_window_seconds = 500e-6;  // wide: maximal coalescing
  config.coalesce_depth = 16;
  config.fused_commits = false;  // same op sequence -> bit-identical
  Service service(g, gpu_options(), config);
  service.run(stream);
  const std::vector<double> served(service.session().scores().begin(),
                                   service.session().scores().end());
  EXPECT_EQ(served, reference);
  // The wide window must actually have coalesced something.
  EXPECT_LT(service.stats().commits, service.stats().writes);

  // The fused default agrees with the same reference to the batch
  // path's established equivalence.
  ServiceConfig fused = config;
  fused.fused_commits = true;
  Service fused_service(g, gpu_options(), fused);
  fused_service.run(stream);
  const std::vector<double> fused_scores(
      fused_service.session().scores().begin(),
      fused_service.session().scores().end());
  test::expect_near_spans(fused_scores, reference, 1e-7, "fused commits");
}

// --- coalescing mechanics -------------------------------------------------

TEST(Service, AdjacencyAndDepthBoundCommits) {
  const CSRGraph g = test::gnp_graph(32, 0.2, 4);
  BCDYN_SEEDED_RNG(rng, 909);
  const auto [a1, b1] = test::random_absent_edge(g, rng);

  ServiceConfig config;
  config.coalesce_window_seconds = 1.0;  // window never expires mid-stream
  config.coalesce_depth = 16;
  Service service(g, gpu_options(), config);

  // insert, insert | remove | insert  ->  3 commits (kind breaks
  // adjacency), epochs 1..3, coalesced_updates 2/1/1.
  std::vector<Request> stream;
  auto push = [&stream](double t, RequestKind kind, VertexId u, VertexId v) {
    stream.push_back(
        {.client_id = 0, .arrival_time = t, .kind = kind, .u = u, .v = v});
  };
  const auto [a2, b2] = test::random_absent_edge(g, rng);
  push(1e-6, RequestKind::kInsert, a1, b1);
  push(2e-6, RequestKind::kInsert, a2, b2);
  push(3e-6, RequestKind::kRemove, a1, b1);
  push(4e-6, RequestKind::kInsert, a1, b1);
  const auto responses = service.run(std::move(stream));

  const auto& commits = service.commits();
  ASSERT_EQ(commits.size(), 3u);
  EXPECT_EQ(commits[0].epoch, 1u);
  EXPECT_EQ(commits[0].coalesced_updates, 2);
  EXPECT_EQ(commits[1].epoch, 2u);
  EXPECT_EQ(commits[1].coalesced_updates, 1);
  EXPECT_EQ(commits[2].epoch, 3u);
  EXPECT_EQ(commits[2].coalesced_updates, 1);
  EXPECT_EQ(responses[0].epoch, 1u);
  EXPECT_EQ(responses[1].epoch, 1u);
  EXPECT_EQ(responses[2].epoch, 2u);
  EXPECT_EQ(responses[3].epoch, 3u);
  EXPECT_EQ(service.snapshots().latest_epoch(), 3u);
}

TEST(Service, DepthOneCommitsEveryWriteIndividually) {
  const CSRGraph g = test::gnp_graph(32, 0.2, 8);
  BCDYN_SEEDED_RNG(rng, 111);
  const auto stream = make_stream(g, 10, 6, 2e-6, rng);

  ServiceConfig config;
  config.coalesce_depth = 1;
  Service service(g, gpu_options(), config);
  service.run(stream);
  EXPECT_EQ(service.stats().commits, service.stats().writes);
  for (const UpdateOutcome& o : service.commits()) {
    EXPECT_EQ(o.coalesced_updates, 1);
  }
}

TEST(Service, UnfusedCommitCountsAppliedAndSkippedWrites) {
  // One coalesced run of four inserts - two new edges, one duplicate, one
  // self loop - applied one by one: the commit counts what it applied and
  // what it skipped.
  const auto g = test::path_graph(6);
  ServiceConfig config;
  config.coalesce_window_seconds = 1.0;  // all four writes coalesce
  config.fused_commits = false;
  Service service(g, {.approx = {.num_sources = 0, .seed = 1}}, config);
  std::vector<Request> stream;
  const std::pair<VertexId, VertexId> edges[] = {{0, 2}, {0, 1}, {3, 3},
                                                 {1, 5}};
  for (int i = 0; i < 4; ++i) {
    stream.push_back({.arrival_time = 1e-6 * (i + 1),
                      .kind = RequestKind::kInsert,
                      .u = edges[i].first,
                      .v = edges[i].second});
  }
  service.run(std::move(stream));

  ASSERT_EQ(service.commits().size(), 1u);
  const UpdateOutcome& total = service.commits().front();
  EXPECT_EQ(total.coalesced_updates, 4);
  EXPECT_EQ(total.inserted, 2);
  EXPECT_EQ(total.skipped, 2);
  // Every applied edge classifies every source; skipped edges classify none.
  EXPECT_EQ(total.case1 + total.case2 + total.case3, 2 * 6);
  EXPECT_EQ(service.session().verify_against_recompute(), 0.0);
}

// --- backpressure / shed accounting ---------------------------------------

TEST(Service, ShedOldestReadFreesQueueForNewcomers) {
  const CSRGraph g = test::gnp_graph(24, 0.25, 2);
  ServiceConfig config;
  config.queue_depth = 2;
  config.shed = ShedPolicy::kOldestRead;
  // Reads so slow that after the first one starts, the front-end stays
  // busy past every later arrival: the queue can only back up.
  config.read_cost_seconds = 1.0;
  Service service(g, gpu_options(), config);

  std::vector<Request> stream;
  for (int i = 0; i < 5; ++i) {
    stream.push_back({.client_id = i,
                      .arrival_time = 1e-6 * static_cast<double>(i + 1),
                      .kind = RequestKind::kRead,
                      .u = 0});
  }
  const auto responses = service.run(std::move(stream));
  ASSERT_EQ(responses.size(), 5u);
  // Read 0 starts on the idle front-end before read 1 arrives. Reads 1,2
  // queue (depth 2); reads 3 and 4 each shed the oldest queued read
  // (1, then 2) and take its slot. Survivors: 0, 3, 4.
  EXPECT_FALSE(responses[0].shed);
  EXPECT_TRUE(responses[1].shed);
  EXPECT_TRUE(responses[2].shed);
  EXPECT_FALSE(responses[3].shed);
  EXPECT_FALSE(responses[4].shed);

  const auto stats = service.stats();
  EXPECT_EQ(stats.reads, 5u);
  EXPECT_EQ(stats.reads_shed, 2u);
  EXPECT_EQ(stats.reads_served, 3u);
  EXPECT_EQ(stats.queue_peak, 2u);
}

TEST(Service, RejectNewShedsTheIncomingRead) {
  const CSRGraph g = test::gnp_graph(24, 0.25, 2);
  ServiceConfig config;
  config.queue_depth = 2;
  config.shed = ShedPolicy::kRejectNew;
  config.read_cost_seconds = 1.0;
  Service service(g, gpu_options(), config);

  std::vector<Request> stream;
  for (int i = 0; i < 5; ++i) {
    stream.push_back({.client_id = i,
                      .arrival_time = 1e-6 * static_cast<double>(i + 1),
                      .kind = RequestKind::kRead,
                      .u = 0});
  }
  const auto responses = service.run(std::move(stream));
  // Read 0 is served off the idle front-end; reads 1,2 fill the queue;
  // the late arrivals 3 and 4 are rejected on arrival.
  EXPECT_FALSE(responses[0].shed);
  EXPECT_FALSE(responses[1].shed);
  EXPECT_FALSE(responses[2].shed);
  EXPECT_TRUE(responses[3].shed);
  EXPECT_TRUE(responses[4].shed);
  EXPECT_EQ(service.stats().reads_shed, 2u);
}

TEST(Service, ShedAccountingMatchesMetrics) {
  trace::metrics().reset();
  const CSRGraph g = test::gnp_graph(24, 0.25, 2);
  ServiceConfig config;
  config.queue_depth = 1;
  config.read_cost_seconds = 1.0;
  Service service(g, gpu_options(), config);
  std::vector<Request> stream;
  for (int i = 0; i < 4; ++i) {
    stream.push_back({.client_id = 7,
                      .arrival_time = 1e-6 * static_cast<double>(i + 1),
                      .kind = RequestKind::kRead,
                      .u = 1});
  }
  service.run(std::move(stream));
  auto& m = trace::metrics();
  EXPECT_EQ(m.counter_value("bc.service.requests.count"), 4u);
  EXPECT_EQ(m.counter_value("bc.service.reads.count"), 4u);
  EXPECT_EQ(m.counter_value("bc.service.reads.shed.count"),
            service.stats().reads_shed);
  EXPECT_EQ(m.counter_value("bc.service.client.7.requests.count"), 4u);
  EXPECT_EQ(m.counter_value("bc.service.client.7.shed.count"),
            service.stats().reads_shed);
}

// --- the disabled layer's zero footprint ----------------------------------

TEST(Service, NoServiceMeansNoServiceKeysAndUnchangedReport) {
  trace::metrics().reset();
  const CSRGraph g = test::gnp_graph(28, 0.2, 6);
  bc::Session session(g, gpu_options());
  session.compute();
  session.insert_edge(0, 9);
  for (const auto& [name, value] : trace::metrics().counters()) {
    EXPECT_EQ(name.rfind("bc.service.", 0), std::string::npos)
        << "unexpected service key " << name;
  }
  EXPECT_EQ(session.report().find("== service =="), std::string::npos);
}

TEST(Service, ReportGainsServiceSectionAfterTraffic) {
  trace::metrics().reset();
  const CSRGraph g = test::gnp_graph(28, 0.2, 6);
  BCDYN_SEEDED_RNG(rng, 222);
  Service service(g, gpu_options());
  service.run(make_stream(g, 12, 3, 2e-6, rng));
  const std::string report = service.session().report();
  EXPECT_NE(report.find("== service =="), std::string::npos);
  EXPECT_NE(report.find("reads shed"), std::string::npos);
}

// --- telemetry read series ------------------------------------------------

TEST(Service, ServedReadsFeedTelemetryKindReadSeries) {
  trace::metrics().reset();
  const CSRGraph g = test::gnp_graph(28, 0.2, 3);
  BCDYN_SEEDED_RNG(rng, 333);
  bc::Options options = gpu_options();
  options.runtime.telemetry = true;
  options.runtime.telemetry_config.window = 64;
  Service service(g, options);
  service.run(make_stream(g, 20, 4, 2e-6, rng));

  const auto snapshot = trace::telemetry().snapshot();
  ASSERT_TRUE(snapshot.series.count("kind:read"));
  EXPECT_EQ(snapshot.series.at("kind:read").total,
            service.stats().reads_served);
  trace::telemetry().set_enabled(false);
}

// --- fault soak -----------------------------------------------------------

TEST(Service, MidBatchDeviceLossStillPublishesCorrectEpochs) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 12);
  BCDYN_SEEDED_RNG(rng, 444);
  const auto stream = make_stream(g, 20, 10, 2e-6, rng, /*with_removals=*/true);

  ServiceConfig config;
  config.coalesce_window_seconds = 40e-6;
  config.coalesce_depth = 8;

  // Fault-free reference.
  std::vector<double> reference;
  std::uint64_t reference_epoch = 0;
  {
    Service service(g, gpu_options(EngineKind::kGpuEdge, 2), config);
    service.run(stream);
    reference.assign(service.session().scores().begin(),
                     service.session().scores().end());
    reference_epoch = service.snapshots().latest_epoch();
  }

  // Same stream with a deterministic device loss: dev0 dies at the first
  // armed launch (rate 1.0, aimed by site_filter), so the loss lands
  // mid-stream and the survivor absorbs the resharded jobs. The
  // recompute fallback stays off - it would swap the incremental path
  // for a static recompute and break bit-identity (the same reason the
  // chaos soak disables it).
  trace::metrics().reset();
  bc::Options options = gpu_options(EngineKind::kGpuEdge, 2);
  options.runtime.fault_injection = true;
  options.runtime.fault_plan.seed = 2024;
  options.runtime.fault_plan.device_loss_rate = 1.0;
  options.runtime.fault_plan.site_filter = "dev0.loss";
  options.recovery = {.max_retries = 10, .fallback_recompute = false};
  Service service(g, options, config);
  service.run(stream);

  EXPECT_GT(trace::metrics().counter_value("sim.fault.injected.count"), 0u)
      << "fixture must actually inject faults";
  EXPECT_EQ(service.snapshots().latest_epoch(), reference_epoch);
  const std::vector<double> recovered(service.session().scores().begin(),
                                      service.session().scores().end());
  EXPECT_EQ(recovered, reference);
  EXPECT_TRUE(service.snapshots().latest().valid());
}

// --- UpdateOutcome aggregation --------------------------------------------

TEST(UpdateOutcomeAbsorb, SumsCountsAndTakesMaxEpoch) {
  UpdateOutcome a;
  a.inserted = 1;
  a.case2 = 3;
  a.max_touched = 10;
  a.modeled_seconds = 0.5;
  a.epoch = 4;
  a.coalesced_updates = 2;
  UpdateOutcome b;
  b.inserted = 2;
  b.case3 = 1;
  b.max_touched = 7;
  b.modeled_seconds = 0.25;
  b.epoch = 6;
  b.coalesced_updates = 1;
  a.absorb(b);
  EXPECT_EQ(a.inserted, 3);
  EXPECT_EQ(a.case2, 3);
  EXPECT_EQ(a.case3, 1);
  EXPECT_EQ(a.max_touched, 10);
  EXPECT_DOUBLE_EQ(a.modeled_seconds, 0.75);
  EXPECT_EQ(a.epoch, 6u);
  EXPECT_EQ(a.coalesced_updates, 3);
}

// --- input validation -----------------------------------------------------

const double kBadSeconds[] = {-1.0, std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()};

/// Runs `call`, expecting std::invalid_argument whose message names `field`.
template <typename Call>
void expect_rejected(Call&& call, const std::string& field, double value) {
  try {
    call();
    ADD_FAILURE() << field << "=" << value << ": no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << field << "=" << value << ": " << e.what();
  }
}

/// Builds a Service whose config has `field` set to each bad value.
void expect_config_rejected(double ServiceConfig::*field,
                            const std::string& name) {
  const CSRGraph g = test::gnp_graph(12, 0.3, 3);
  for (double bad : kBadSeconds) {
    ServiceConfig config;
    config.*field = bad;
    expect_rejected(
        [&] { Service service(g, gpu_options(), config); }, name, bad);
  }
}

TEST(ServiceValidation, RejectsBadCoalesceWindow) {
  expect_config_rejected(&ServiceConfig::coalesce_window_seconds,
                         "coalesce_window_seconds");
}

TEST(ServiceValidation, RejectsBadReadCost) {
  expect_config_rejected(&ServiceConfig::read_cost_seconds,
                         "read_cost_seconds");
}

TEST(ServiceValidation, RejectsBadCommitCost) {
  expect_config_rejected(&ServiceConfig::commit_cost_seconds,
                         "commit_cost_seconds");
}

TEST(ServiceValidation, RejectsNonFiniteArrivalTime) {
  const CSRGraph g = test::gnp_graph(12, 0.3, 3);
  Service service(g, gpu_options());
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    std::vector<Request> stream = {
        {.arrival_time = 1e-6, .kind = RequestKind::kRead, .u = 0},
        {.arrival_time = bad, .kind = RequestKind::kRead, .u = 1}};
    expect_rejected([&] { service.run(std::move(stream)); }, "arrival_time",
                    bad);
  }
  // A rejected stream admits nothing; the service stays usable.
  const auto responses = service.run(
      {{.arrival_time = 1e-6, .kind = RequestKind::kRead, .u = 0}});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(service.stats().requests, 1u);
}

// --- CLI flags ------------------------------------------------------------

TEST(ServiceFlags, ParseAndConvert) {
  const char* argv[] = {"test", "--service-window-us=250",
                        "--service-depth=4", "--service-queue=16",
                        "--service-shed=reject-new"};
  const util::Cli cli(5, argv);
  const util::ServiceFlags flags = util::parse_service_flags(cli);
  const ServiceConfig config = bc::service_config_from_flags(flags);
  EXPECT_DOUBLE_EQ(config.coalesce_window_seconds, 250e-6);
  EXPECT_EQ(config.coalesce_depth, 4);
  EXPECT_EQ(config.queue_depth, 16u);
  EXPECT_EQ(config.shed, ShedPolicy::kRejectNew);
}

TEST(ServiceFlags, RejectsUnknownShedPolicy) {
  util::ServiceFlags flags;
  flags.shed = "coin-flip";
  EXPECT_THROW(bc::service_config_from_flags(flags), std::invalid_argument);
}

}  // namespace
}  // namespace bcdyn
