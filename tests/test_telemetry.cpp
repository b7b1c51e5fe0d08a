// Stream-telemetry correctness: windowed quantiles vs an offline
// reference (bit-equal, per the determinism rule), anomaly/SLO flagging,
// exporter round-trips, replay determinism, and the disabled layer's
// zero-footprint contract. A separate binary because these tests flip the
// per-thread telemetry singleton (and reset the global metrics
// registry), which must never happen under the main suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/dynamic_bc.hpp"
#include "test_helpers.hpp"
#include "trace/json.hpp"
#include "trace/metrics.hpp"
#include "trace/report.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"

namespace bcdyn {
namespace {

using trace::StreamTelemetry;
using trace::TelemetryConfig;
using trace::UpdateKind;
using trace::UpdateSample;

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::metrics().reset();
    trace::telemetry().set_event_sink(nullptr);
    trace::telemetry().configure({});  // implies clear()
    trace::telemetry().set_enabled(true);
  }
  void TearDown() override {
    trace::telemetry().set_enabled(false);
    trace::telemetry().set_event_sink(nullptr);
    trace::telemetry().configure({});
    trace::metrics().reset();
  }
};

UpdateSample sample_with(double seconds, UpdateKind kind = UpdateKind::kInsert,
                         const char* engine = "test") {
  UpdateSample s;
  s.kind = kind;
  s.engine = engine;
  s.modeled_seconds = seconds;
  return s;
}

/// Offline reference: nearest-rank quantile over the last `window` values.
double offline_quantile(std::vector<double> values, std::size_t window,
                        double q) {
  if (values.size() > window) {
    values.erase(values.begin(),
                 values.begin() +
                     static_cast<std::ptrdiff_t>(values.size() - window));
  }
  std::sort(values.begin(), values.end());
  return StreamTelemetry::exact_quantile(values, q);
}

TEST(ExactQuantile, NearestRankDefinition) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(StreamTelemetry::exact_quantile(v, 0.0), 1.0);
  EXPECT_EQ(StreamTelemetry::exact_quantile(v, 0.5), 3.0);   // ceil(2.5)=3rd
  EXPECT_EQ(StreamTelemetry::exact_quantile(v, 0.6), 3.0);   // ceil(3.0)=3rd
  EXPECT_EQ(StreamTelemetry::exact_quantile(v, 0.61), 4.0);  // ceil(3.05)=4th
  EXPECT_EQ(StreamTelemetry::exact_quantile(v, 0.99), 5.0);
  EXPECT_EQ(StreamTelemetry::exact_quantile(v, 1.0), 5.0);
  EXPECT_EQ(StreamTelemetry::exact_quantile({}, 0.5), 0.0);
  EXPECT_EQ(StreamTelemetry::exact_quantile({7.0}, 0.25), 7.0);
}

// The acceptance criterion: windowed percentiles reported by the hook-fed
// singleton match exact quantiles computed offline from the same update
// stream - bit-equal, because both sides see the same modeled seconds.
TEST_F(TelemetryTest, WindowedQuantilesMatchOfflineReference) {
  constexpr std::size_t kWindow = 8;
  auto& tel = trace::telemetry();
  tel.configure({.window = kWindow});
  tel.set_enabled(true);

  const auto g = test::gnp_graph(40, 0.08, 19);
  DynamicBc analytic(g, {.engine = EngineKind::kGpuEdge,
                         .approx = {.num_sources = 10, .seed = 3}});
  analytic.compute();
  EXPECT_EQ(tel.total_updates(), 0u);  // compute() is not an update

  std::vector<double> all;
  std::vector<double> inserts;
  std::vector<double> removes;
  std::vector<std::pair<VertexId, VertexId>> added;
  BCDYN_SEEDED_RNG(rng, 23);
  for (int step = 0; step < 30; ++step) {
    if (step % 5 == 4 && !added.empty()) {
      const auto [u, v] = added.back();
      added.pop_back();
      const auto o = analytic.remove_edge(u, v);
      ASSERT_TRUE(o.inserted);  // applied
      all.push_back(o.modeled_seconds);
      removes.push_back(o.modeled_seconds);
    } else {
      const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
      const auto o = analytic.insert_edge(u, v);
      ASSERT_TRUE(o.inserted);
      added.emplace_back(u, v);
      all.push_back(o.modeled_seconds);
      inserts.push_back(o.modeled_seconds);
    }
  }

  const auto snap = tel.snapshot();
  EXPECT_EQ(snap.updates, all.size());
  ASSERT_TRUE(snap.series.count("all"));
  ASSERT_TRUE(snap.series.count("kind:insert"));
  ASSERT_TRUE(snap.series.count("kind:remove"));
  ASSERT_TRUE(snap.series.count("engine:gpu-edge"));

  struct Case {
    const char* key;
    const std::vector<double>* mirror;
  };
  for (const Case& c : {Case{"all", &all}, Case{"kind:insert", &inserts},
                        Case{"kind:remove", &removes},
                        Case{"engine:gpu-edge", &all}}) {
    const auto& s = snap.series.at(c.key);
    EXPECT_EQ(s.total, c.mirror->size()) << c.key;
    EXPECT_EQ(s.window_count, std::min(kWindow, c.mirror->size())) << c.key;
    EXPECT_EQ(s.p50, offline_quantile(*c.mirror, kWindow, 0.50)) << c.key;
    EXPECT_EQ(s.p90, offline_quantile(*c.mirror, kWindow, 0.90)) << c.key;
    EXPECT_EQ(s.p99, offline_quantile(*c.mirror, kWindow, 0.99)) << c.key;
    EXPECT_EQ(s.max, offline_quantile(*c.mirror, kWindow, 1.0)) << c.key;
    EXPECT_EQ(s.cumulative_us.count, c.mirror->size()) << c.key;
  }

  // The always-on counters agree with the stream.
  EXPECT_EQ(trace::metrics().counter_value("bc.telemetry.updates.count"),
            all.size());
  EXPECT_EQ(trace::metrics().counter_value("bc.telemetry.insert.count"),
            inserts.size());
  EXPECT_EQ(trace::metrics().counter_value("bc.telemetry.remove.count"),
            removes.size());
}

TEST_F(TelemetryTest, BatchUpdateRecordsOneSample) {
  auto& tel = trace::telemetry();
  const auto g = test::gnp_graph(30, 0.1, 7);
  DynamicBc analytic(g, {.engine = EngineKind::kGpuNode,
                         .approx = {.num_sources = 8, .seed = 5}});
  analytic.compute();

  BCDYN_SEEDED_RNG(rng, 11);
  std::vector<std::pair<VertexId, VertexId>> edges;
  CSRGraph probe = analytic.graph();
  for (int i = 0; i < 4; ++i) {
    const auto [u, v] = test::random_absent_edge(probe, rng);
    probe = probe.with_edge(u, v);
    edges.emplace_back(u, v);
  }
  const auto o = analytic.insert_edge_batch(edges);
  EXPECT_TRUE(o.inserted);

  const auto snap = tel.snapshot();
  EXPECT_EQ(snap.updates, 1u);  // one sample per batch, not per edge
  ASSERT_TRUE(snap.series.count("kind:batch"));
  EXPECT_EQ(snap.series.at("kind:batch").total, 1u);
  EXPECT_EQ(snap.series.at("kind:batch").p99, o.modeled_seconds);
}

// Telemetry off => no lock, no samples, no bc.telemetry.* metric keys, no
// report section, and bit-identical scores.
TEST_F(TelemetryTest, DisabledLayerHasZeroFootprint) {
  auto& tel = trace::telemetry();
  tel.set_enabled(false);

  const auto g = test::gnp_graph(35, 0.08, 29);
  auto run = [&] {
    DynamicBc analytic(g, {.engine = EngineKind::kGpuEdge,
                           .approx = {.num_sources = 10, .seed = 3}});
    analytic.compute();
    BCDYN_SEEDED_RNG(rng, 31);
    for (int step = 0; step < 6; ++step) {
      const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
      analytic.insert_edge(u, v);
    }
    return std::vector<double>(analytic.scores().begin(),
                               analytic.scores().end());
  };

  const auto scores_off = run();
  EXPECT_EQ(tel.total_updates(), 0u);
  for (const auto& [name, value] : trace::metrics().counters()) {
    EXPECT_EQ(name.find("bc.telemetry."), std::string::npos) << name;
  }
  const std::string report =
      trace::report_string(trace::tracer(), trace::metrics());
  EXPECT_EQ(report.find("stream telemetry"), std::string::npos);

  // Same stream with telemetry on: scores are bit-identical (the layer
  // observes outcomes; it must never feed back into modeled results).
  tel.set_enabled(true);
  const auto scores_on = run();
  EXPECT_GT(tel.total_updates(), 0u);
  ASSERT_EQ(scores_on.size(), scores_off.size());
  for (std::size_t v = 0; v < scores_on.size(); ++v) {
    EXPECT_EQ(scores_on[v], scores_off[v]) << "vertex " << v;
  }
}

TEST_F(TelemetryTest, SpikeDetectionFlagsOutlierWithAttribution) {
  auto& tel = trace::telemetry();
  tel.configure({.window = 32, .spike_factor = 4.0, .min_history = 4});
  tel.set_enabled(true);
  std::ostringstream sink;
  tel.set_event_sink(&sink);

  for (int i = 0; i < 20; ++i) tel.record(sample_with(1e-3));
  EXPECT_EQ(tel.spike_count(), 0u);

  UpdateSample outlier = sample_with(1e-1, UpdateKind::kRemove, "gpu-node");
  outlier.case3 = 2;
  outlier.touched_fraction = 0.75;
  tel.record(outlier);

  EXPECT_EQ(tel.spike_count(), 1u);
  const auto events = tel.events();
  ASSERT_EQ(events.size(), 1u);
  const auto& ev = events[0];
  EXPECT_EQ(ev.type, trace::AnomalyEvent::Type::kSpike);
  EXPECT_EQ(ev.seq, 21u);
  EXPECT_EQ(ev.sample.kind, UpdateKind::kRemove);
  EXPECT_STREQ(ev.sample.engine, "gpu-node");
  EXPECT_EQ(ev.sample.modeled_seconds, 1e-1);
  EXPECT_EQ(ev.median_seconds, 1e-3);  // window median before the outlier
  EXPECT_EQ(ev.threshold_seconds, 4e-3);

  // The sink saw exactly the retained event, as parseable JSONL.
  const std::string line = sink.str();
  EXPECT_EQ(line, ev.to_jsonl() + "\n");
  const auto parsed = trace::parse_json(ev.to_jsonl());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_NE(parsed.value.find("seq"), nullptr);
  EXPECT_EQ(parsed.value.find("seq")->number, 21.0);

  // Below the cold-start guard nothing is flagged even for huge values.
  tel.configure({.window = 32, .spike_factor = 4.0, .min_history = 16});
  tel.record(sample_with(1e-3));
  tel.record(sample_with(10.0));
  EXPECT_EQ(tel.spike_count(), 0u);
}

TEST_F(TelemetryTest, SloBreachesCountAgainstBudget) {
  auto& tel = trace::telemetry();
  tel.configure({.window = 16, .slo_p99_seconds = 1e-9, .min_history = 2});
  tel.set_enabled(true);
  for (int i = 0; i < 8; ++i) tel.record(sample_with(1e-3));
  EXPECT_GT(tel.slo_breach_count(), 0u);
  EXPECT_TRUE(tel.snapshot().slo_violated);

  // A generous budget is never breached by the same stream.
  tel.configure({.window = 16, .slo_p99_seconds = 10.0, .min_history = 2});
  for (int i = 0; i < 8; ++i) tel.record(sample_with(1e-3));
  EXPECT_EQ(tel.slo_breach_count(), 0u);
  EXPECT_FALSE(tel.snapshot().slo_violated);

  // Budget 0 disables the monitor entirely.
  tel.configure({.window = 16, .slo_p99_seconds = 0.0, .min_history = 2});
  for (int i = 0; i < 8; ++i) tel.record(sample_with(1e-3));
  EXPECT_EQ(tel.slo_breach_count(), 0u);
}

TEST_F(TelemetryTest, EventRetentionIsCappedButCountersAreNot) {
  auto& tel = trace::telemetry();
  tel.configure({.window = 64, .spike_factor = 2.0, .min_history = 2});
  tel.set_enabled(true);
  // Alternate tiny/huge so every huge sample spikes vs the tiny median:
  // 1,100 spikes, past the 1,024 retained.
  for (int i = 0; i < 1100; ++i) {
    tel.record(sample_with(1e-6));
    tel.record(sample_with(1e-6));
    tel.record(sample_with(1.0));
  }
  EXPECT_EQ(tel.spike_count(), 1100u);
  const auto events = tel.events();
  ASSERT_EQ(events.size(), 1024u);  // oldest dropped past the cap
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 3) << i;
  }
  EXPECT_EQ(events.back().seq, 3300u);  // the most recent flagged update
}

TEST_F(TelemetryTest, SnapshotAndPrometheusExportersRoundTrip) {
  auto& tel = trace::telemetry();
  tel.configure({.window = 8, .slo_p99_seconds = 0.5});
  tel.set_enabled(true);
  for (int i = 1; i <= 12; ++i) {
    tel.record(sample_with(1e-4 * i,
                           i % 3 == 0 ? UpdateKind::kBatch : UpdateKind::kInsert,
                           i % 2 == 0 ? "gpu-edge" : "gpu-node"));
  }

  std::ostringstream json;
  tel.write_json_snapshot(json);
  const auto parsed = trace::parse_json(json.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto* series = parsed.value.find("series");
  ASSERT_NE(series, nullptr);
  const auto* all = series->find("all");
  ASSERT_NE(all, nullptr);
  const auto snap = tel.snapshot();
  EXPECT_EQ(all->find("p99_seconds")->number, snap.series.at("all").p99);
  EXPECT_EQ(all->find("window_count")->number,
            static_cast<double>(snap.series.at("all").window_count));
  const auto* totals = parsed.value.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->find("updates")->number, 12.0);

  std::ostringstream prom;
  tel.write_prometheus(prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("bcdyn_telemetry_updates_total 12"), std::string::npos);
  EXPECT_NE(text.find("bcdyn_telemetry_update_latency_seconds{"
                      "series=\"all\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("series=\"kind:batch\""), std::string::npos);
  EXPECT_NE(text.find("bcdyn_telemetry_slo_p99_budget_seconds 0.5"),
            std::string::npos);

  // publish_gauges mirrors the snapshot into bc.telemetry.* gauges.
  tel.publish_gauges(trace::metrics());
  EXPECT_EQ(trace::metrics().gauge_value("bc.telemetry.all.p99_seconds"),
            snap.series.at("all").p99);
  EXPECT_EQ(trace::metrics().gauge_value("bc.telemetry.window"), 8.0);
}

// The determinism rule, end to end: replaying the same stream produces a
// byte-identical snapshot (sequence-number windows, no wall clock).
TEST_F(TelemetryTest, ReplayedStreamSnapshotsAreByteIdentical) {
  auto& tel = trace::telemetry();
  auto run = [&] {
    tel.configure({.window = 8, .slo_p99_seconds = 1e-4,
                   .spike_factor = 3.0, .min_history = 4});
    tel.set_enabled(true);
    for (int i = 1; i <= 25; ++i) {
      tel.record(sample_with((i % 7 == 0 ? 5e-3 : 1e-4) + 1e-6 * i,
                             i % 4 == 0 ? UpdateKind::kRemove
                                        : UpdateKind::kInsert,
                             "gpu-edge"));
    }
    std::ostringstream out;
    tel.write_json_snapshot(out);
    return out.str();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"spikes\""), std::string::npos);
}

}  // namespace
}  // namespace bcdyn
