// Trace-correctness tests for the observability layer: span nesting, the
// launch-timeline accounting contract (every queue job placed exactly
// once), zero-overhead disabled mode, exporter round-trips through the
// strict JSON parser, and per-thread registries.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bc/session.hpp"
#include "gen/generators.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fault_injector.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/json.hpp"
#include "trace/metrics.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"

namespace bcdyn {
namespace {

using trace::TraceEvent;

/// Every test runs against the thread's tracer, so reset it around
/// each test and leave it disabled (the default) afterwards.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::tracer().set_enabled(true);
    trace::tracer().clear();
  }
  void TearDown() override {
    trace::tracer().set_enabled(false);
    trace::tracer().clear();
  }
};

TEST_F(TraceTest, SpansStrictlyNestAndValidate) {
  {
    trace::Span outer("outer", "test", {{"depth", 0}});
    {
      trace::Span inner("inner", "test", {{"depth", 1}});
    }
    trace::Span sibling("sibling", "test");
  }
  const auto events = trace::tracer().events();
  ASSERT_EQ(events.size(), 6u);  // three B/E pairs

  // B(outer) B(inner) E B(sibling) E E — sibling closes before outer
  // (reverse destruction order at the end of the block).
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kEnd);
  EXPECT_EQ(events[3].name, "sibling");
  EXPECT_EQ(events[3].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(events[4].phase, TraceEvent::Phase::kEnd);
  EXPECT_EQ(events[5].phase, TraceEvent::Phase::kEnd);

  // Same host track throughout, monotonic timestamps, clean validation.
  for (const auto& ev : events) {
    EXPECT_EQ(ev.pid, trace::kHostPid);
    EXPECT_EQ(ev.tid, events[0].tid);
  }
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
  EXPECT_TRUE(trace::validate_events(events).empty());
}

TEST_F(TraceTest, UnbalancedSpanFailsValidation) {
  trace::tracer().begin("left-open", "test");
  const auto problems = trace::validate_events(trace::tracer().events());
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("left-open"), std::string::npos);
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  trace::tracer().set_enabled(false);
  trace::tracer().clear();
  {
    trace::Span span("ignored", "test");
    trace::tracer().instant("ignored", "test");
    trace::tracer().counter("ignored", 1.0);
  }
  sim::Device device(sim::DeviceSpec::gtx_560());
  device.launch(4, [](sim::BlockContext& ctx) { ctx.charge_instr(8); },
                "untraced");
  EXPECT_EQ(trace::tracer().event_count(), 0u);
  // The schedule is still recorded locally (it never depends on tracing).
  EXPECT_EQ(device.last_timeline().placements.size(), 4u);
}

TEST_F(TraceTest, LaunchBlocksAppearExactlyOnce) {
  sim::Device device(sim::DeviceSpec::gtx_560());
  constexpr int kBlocks = 11;  // more blocks than the 7 SMs => queuing
  device.launch(
      kBlocks,
      [](sim::BlockContext& ctx) {
        ctx.charge_instr(static_cast<std::size_t>(ctx.block_id() + 1));
      },
      "test.launch");

  const auto events = trace::tracer().events();
  EXPECT_TRUE(trace::validate_events(events).empty());

  std::vector<int> indices;
  int summaries = 0;
  for (const auto& ev : events) {
    if (ev.pid != device.trace_pid()) continue;
    if (ev.cat == trace::kCatLaunch) {
      ++summaries;
      EXPECT_EQ(ev.name, "test.launch");
      EXPECT_EQ(trace::arg_value(ev, trace::kArgBlocks, -1), kBlocks);
    } else if (ev.cat == trace::kCatBlock) {
      indices.push_back(
          static_cast<int>(trace::arg_value(ev, trace::kArgIndex, -1)));
      EXPECT_GE(ev.tid, 0);
      EXPECT_LT(ev.tid, device.spec().num_sms);
      EXPECT_GT(ev.dur_us, 0.0);
    }
  }
  EXPECT_EQ(summaries, 1);
  ASSERT_EQ(indices.size(), static_cast<std::size_t>(kBlocks));
  std::sort(indices.begin(), indices.end());
  for (int i = 0; i < kBlocks; ++i) EXPECT_EQ(indices[i], i);
}

TEST_F(TraceTest, LaunchQueueJobsAppearExactlyOnce) {
  sim::Device device(sim::DeviceSpec::tesla_c2075());
  constexpr int kJobs = 37;  // skewed job sizes across 14 resident lanes
  device.launch_queue(
      kJobs,
      [](sim::BlockContext& ctx, int job) {
        ctx.parallel_for(static_cast<std::size_t>(1 + 7 * (job % 5)),
                         [&](std::size_t) { ctx.charge_read(); });
      },
      nullptr, "test.batch");

  const auto events = trace::tracer().events();
  EXPECT_TRUE(trace::validate_events(events).empty());

  std::vector<int> indices;
  for (const auto& ev : events) {
    if (ev.pid != device.trace_pid() || ev.cat != trace::kCatJob) continue;
    indices.push_back(
        static_cast<int>(trace::arg_value(ev, trace::kArgIndex, -1)));
  }
  ASSERT_EQ(indices.size(), static_cast<std::size_t>(kJobs));
  std::sort(indices.begin(), indices.end());
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(indices[i], i);
}

TEST_F(TraceTest, BackToBackLaunchesDoNotOverlap) {
  sim::Device device(sim::DeviceSpec::gtx_560());
  for (int rep = 0; rep < 3; ++rep) {
    device.launch(9, [](sim::BlockContext& ctx) { ctx.charge_instr(16); },
                  "test.repeat");
  }
  const auto events = trace::tracer().events();
  // The validator includes the per-SM overlap check: three launches on a
  // shared modeled-time axis must lay out back to back.
  EXPECT_TRUE(trace::validate_events(events).empty());
  int summaries = 0;
  for (const auto& ev : events) {
    if (ev.pid == device.trace_pid() && ev.cat == trace::kCatLaunch) {
      ++summaries;
    }
  }
  EXPECT_EQ(summaries, 3);
}

TEST_F(TraceTest, ValidatorFlagsManufacturedOverlap) {
  std::vector<TraceEvent> events;
  TraceEvent a;
  a.phase = TraceEvent::Phase::kComplete;
  a.name = "block";
  a.cat = trace::kCatBlock;
  a.pid = trace::kDevicePidBase;
  a.tid = 0;
  a.ts_us = 0.0;
  a.dur_us = 10.0;
  TraceEvent b = a;
  b.ts_us = 5.0;  // overlaps [0, 10) on the same SM track
  events.push_back(a);
  events.push_back(b);
  EXPECT_FALSE(trace::validate_events(events).empty());
}

TEST_F(TraceTest, ChromeTraceRoundTripsThroughParser) {
  {
    trace::Span span("host.work", "test", {{"n", 42}});
    sim::Device device(sim::DeviceSpec::gtx_560());
    device.launch(5, [](sim::BlockContext& ctx) { ctx.charge_instr(4); },
                  "test.export");
  }
  const auto events = trace::tracer().events();
  ASSERT_FALSE(events.empty());

  const std::string json = trace::chrome_trace_string(trace::tracer());
  const auto parsed = trace::parse_json(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto* trace_events = parsed.value.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());

  // Every recorded event appears exactly once; the rest are "M" metadata.
  std::size_t non_meta = 0;
  for (const auto& ev : trace_events->array) {
    const auto* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    ASSERT_NE(ev.find("pid"), nullptr);
    if (ph->str != "M") ++non_meta;
  }
  EXPECT_EQ(non_meta, events.size());
}

TEST_F(TraceTest, MetricsJsonRoundTripsThroughParser) {
  trace::MetricsRegistry reg;
  reg.add("bc.case1.count", 3);
  reg.add("bc.case2.count", 2);
  reg.set_gauge("batch.geomean_speedup", 1.75);
  reg.observe("bc.touched_fraction", 0.25);
  reg.observe("bc.touched_fraction", 0.5);
  reg.observe("bc.frontier_size", 12.0);

  std::ostringstream out;
  reg.write_json(out);
  const auto parsed = trace::parse_json(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;

  const auto* counters = parsed.value.find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* case1 = counters->find("bc.case1.count");
  ASSERT_NE(case1, nullptr);
  EXPECT_DOUBLE_EQ(case1->number, 3.0);

  const auto* gauges = parsed.value.find("gauges");
  ASSERT_NE(gauges, nullptr);
  const auto* speedup = gauges->find("batch.geomean_speedup");
  ASSERT_NE(speedup, nullptr);
  EXPECT_DOUBLE_EQ(speedup->number, 1.75);

  const auto* histograms = parsed.value.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const auto* touched = histograms->find("bc.touched_fraction");
  ASSERT_NE(touched, nullptr);
  const auto* count = touched->find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->number, 2.0);
  const auto* max = touched->find("max");
  ASSERT_NE(max, nullptr);
  EXPECT_DOUBLE_EQ(max->number, 0.5);
}

TEST_F(TraceTest, JsonParserRejectsMalformedInput) {
  EXPECT_FALSE(trace::parse_json("{\"a\": 1,}").ok);      // trailing comma
  EXPECT_FALSE(trace::parse_json("{\"a\": 1} x").ok);     // trailing garbage
  EXPECT_FALSE(trace::parse_json("{\"a\": 1 \"b\"}").ok); // missing comma
  EXPECT_FALSE(trace::parse_json("[1, 2").ok);            // unterminated
  EXPECT_TRUE(trace::parse_json("{\"a\": [1, -2.5e3, null, true]}").ok);
}

TEST_F(TraceTest, JsonParserRejectsTruncatedInput) {
  // Every prefix of a valid document must fail, not silently succeed.
  const std::string doc = "{\"series\": {\"all\": [1.5, true, \"x\"]}}";
  ASSERT_TRUE(trace::parse_json(doc).ok);
  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_FALSE(trace::parse_json(doc.substr(0, len)).ok)
        << "prefix of length " << len << " parsed";
  }
}

TEST_F(TraceTest, JsonParserRejectsBadEscapes) {
  EXPECT_FALSE(trace::parse_json("{\"a\": \"\\q\"}").ok);      // unknown escape
  EXPECT_FALSE(trace::parse_json("{\"a\": \"\\u12\"}").ok);    // short \u
  EXPECT_FALSE(trace::parse_json("{\"a\": \"\\u12G4\"}").ok);  // bad hex digit
  EXPECT_FALSE(trace::parse_json("{\"a\": \"\\\"}").ok);       // escaped close
  EXPECT_FALSE(trace::parse_json("{\"a\": \"no end").ok);      // unterminated
  std::string ctrl = "{\"a\": \"x\"}";
  ctrl[7] = '\n';  // raw control character inside a string
  EXPECT_FALSE(trace::parse_json(ctrl).ok);
  const auto ok = trace::parse_json("{\"a\": \"q\\\"\\\\\\n\\t\\u0041\"}");
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.value.find("a")->str, "q\"\\\n\tA");
}

TEST_F(TraceTest, JsonParserRejectsDuplicateKeys) {
  const auto dup = trace::parse_json("{\"a\": 1, \"a\": 2}");
  ASSERT_FALSE(dup.ok);
  EXPECT_NE(dup.error.find("duplicate"), std::string::npos) << dup.error;
  // Duplicates nested below the top level are caught too.
  EXPECT_FALSE(trace::parse_json("{\"o\": {\"k\": 1, \"k\": 1}}").ok);
  EXPECT_TRUE(trace::parse_json("{\"a\": {\"a\": 1}}").ok);  // nesting != dup
}

TEST_F(TraceTest, HistogramQuantileInterpolatesWithinBounds) {
  // All-equal samples: every quantile collapses to the value exactly
  // (the clamp to [min, max] pins it).
  trace::MetricsRegistry reg;
  for (int i = 0; i < 100; ++i) reg.observe("flat", 5.0);
  const auto flat = reg.histogram("flat");
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(flat.quantile(q), 5.0) << "q=" << q;
  }

  // Uniform 1..1024: exact at the ends, and mid quantiles must land within
  // the true value's log2 bucket, i.e. within a factor of 2 (the documented
  // bound); uniform occupancy makes the interpolation much tighter - pin
  // 25% relative error.
  for (int i = 1; i <= 1024; ++i) {
    reg.observe("uniform", static_cast<double>(i));
  }
  const auto uni = reg.histogram("uniform");
  EXPECT_DOUBLE_EQ(uni.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(uni.quantile(1.0), 1024.0);
  for (double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = q * 1024.0;  // true quantile of the uniform ramp
    const double est = uni.quantile(q);
    EXPECT_GT(est, exact / 2.0) << "q=" << q;
    EXPECT_LT(est, exact * 2.0) << "q=" << q;
    EXPECT_NEAR(est, exact, 0.25 * exact) << "q=" << q;
  }

  // Quantiles never decrease in q and stay inside [min, max].
  double prev = uni.quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = uni.quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    EXPECT_GE(cur, uni.min);
    EXPECT_LE(cur, uni.max);
    prev = cur;
  }

  // Empty histogram and out-of-range q are total.
  const trace::HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(uni.quantile(-3.0), uni.quantile(0.0));
  EXPECT_DOUBLE_EQ(uni.quantile(7.0), uni.quantile(1.0));
}

TEST_F(TraceTest, HistogramSnapshotRoundTripsThroughMetricsJson) {
  trace::MetricsRegistry reg;
  const std::vector<double> samples{0.25, 1.0, 3.5, 3.6, 100.0, 1e6};
  for (double v : samples) reg.observe("lat", v);
  const auto before = reg.histogram("lat");

  std::ostringstream out;
  reg.write_json(out);
  const auto parsed = trace::parse_json(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto* hist = parsed.value.find("histograms");
  ASSERT_NE(hist, nullptr);
  const auto* lat = hist->find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->find("count")->number,
                   static_cast<double>(before.count));
  EXPECT_DOUBLE_EQ(lat->find("sum")->number, before.sum);
  EXPECT_DOUBLE_EQ(lat->find("min")->number, before.min);
  EXPECT_DOUBLE_EQ(lat->find("max")->number, before.max);
  const auto* buckets = lat->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  std::uint64_t exported = 0;
  for (std::size_t i = 0; i < buckets->array.size(); ++i) {
    ASSERT_LT(i, before.buckets.size());
    EXPECT_DOUBLE_EQ(buckets->array[i].number,
                     static_cast<double>(before.buckets[i]));
    exported += static_cast<std::uint64_t>(buckets->array[i].number);
  }
  EXPECT_EQ(exported, before.count);  // trailing zero buckets are elided
}

TEST_F(TraceTest, HistogramBucketsAreLog2) {
  trace::MetricsRegistry reg;
  reg.observe("h", 0.5);   // bucket 0: < 1
  reg.observe("h", 1.0);   // bucket 1: [1, 2)
  reg.observe("h", 3.0);   // bucket 2: [2, 4)
  reg.observe("h", 5.0);   // bucket 3: [4, 8)
  const auto h = reg.histogram("h");
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 5.0);
}

TEST_F(TraceTest, ReportMentionsNamedLaunches) {
  sim::Device device(sim::DeviceSpec::gtx_560());
  device.launch(4, [](sim::BlockContext& ctx) { ctx.charge_instr(8); },
                "test.report_kernel");
  trace::MetricsRegistry reg;
  reg.add("bc.case2.count", 9);
  const std::string report =
      trace::report_string(trace::tracer(), reg);
  EXPECT_NE(report.find("test.report_kernel"), std::string::npos);
  EXPECT_NE(report.find("case mix"), std::string::npos);
}

/// One insert, one remove and one batch through a traced Session; returns
/// the metrics JSON the run leaves behind.
std::string traced_structure_session_metrics() {
  trace::metrics().reset();
  trace::tracer().clear();
  bc::Session session(gen::small_world(60, 2, 0.1, 3),
                      {.engine = EngineKind::kGpuNode,
                       .approx = {.num_sources = 6, .seed = 1},
                       .runtime = {.tracing = true}});
  session.compute();
  EXPECT_EQ(session.insert_edge(0, 30).inserted, 1);
  EXPECT_EQ(session.remove_edge(0, 30).inserted, 1);
  const std::vector<std::pair<VertexId, VertexId>> batch = {{1, 40}, {2, 50}};
  EXPECT_EQ(session.insert_edge_batch(batch).inserted, 2);
  std::ostringstream json;
  trace::metrics().write_json(json);
  return json.str();
}

// Graph maintenance is a host span per update call, shown by the report in
// wall time. It must stay out of the metrics registry: the bcdyn_trace
// selftest compares two runs' metrics JSON byte for byte, and a wall-time
// gauge would differ between them.
TEST_F(TraceTest, StructureSpanPerUpdateCallStaysOutOfMetrics) {
  const std::string first = traced_structure_session_metrics();
  const std::string second = traced_structure_session_metrics();
  EXPECT_EQ(first, second);
  EXPECT_EQ(second.find("structure"), std::string::npos);
  const auto& events = trace::tracer().events();
  const auto spans = std::count_if(
      events.begin(), events.end(), [](const TraceEvent& ev) {
        return ev.phase == TraceEvent::Phase::kBegin &&
               ev.name == "bc.structure";
      });
  EXPECT_EQ(spans, 3);
  const std::string report =
      trace::report_string(trace::tracer(), trace::metrics());
  EXPECT_NE(report.find("  structure: "), std::string::npos);
  EXPECT_NE(report.find("3 calls"), std::string::npos);
}

// The library is single-threaded by contract: every thread gets its own
// metrics registry, tracer and fault injector. A traced, fault-injected
// Session on a second thread therefore starts from empty registries and
// leaves the main thread's untouched.
TEST_F(TraceTest, SecondThreadHasItsOwnRegistries) {
  trace::metrics().reset();
  trace::metrics().add("test.main_thread");
  trace::tracer().instant("main", "test");
  const std::map<std::string, std::uint64_t> main_counters =
      trace::metrics().counters();
  const std::size_t main_events = trace::tracer().event_count();
  const std::uint64_t main_injected = sim::faults().injected();

  std::size_t worker_counters_before = 1;
  std::size_t worker_events_before = 1;
  std::uint64_t worker_injected_before = 1;
  std::uint64_t worker_launches = 0;
  std::size_t worker_events = 0;
  std::uint64_t worker_injected = 0;
  std::exception_ptr worker_error;
  std::thread worker([&] {
    try {
      worker_counters_before = trace::metrics().counters().size();
      worker_events_before = trace::tracer().event_count();
      worker_injected_before = sim::faults().injected();
      bc::Session session(
          gen::small_world(40, 2, 0.1, 3),
          {.engine = EngineKind::kGpuNode,
           .approx = {.num_sources = 4, .seed = 1},
           .runtime = {.tracing = true,
                       .fault_injection = true,
                       .fault_plan = {.seed = 17, .stall_rate = 1.0}}});
      session.compute();
      const std::vector<std::vector<std::pair<VertexId, VertexId>>> batches =
          {{{1, 20}}, {{2, 30}}};
      session.insert_edge_batches(batches);  // stream ops poll the injector
      worker_launches = trace::metrics().counter_value("sim.launches");
      worker_events = trace::tracer().event_count();
      worker_injected = sim::faults().injected();
    } catch (...) {
      worker_error = std::current_exception();
    }
  });
  worker.join();
  if (worker_error) std::rethrow_exception(worker_error);

  EXPECT_EQ(worker_counters_before, 0u);
  EXPECT_EQ(worker_events_before, 0u);
  EXPECT_EQ(worker_injected_before, 0u);
  EXPECT_GT(worker_launches, 0u);
  EXPECT_GT(worker_events, 0u);
  EXPECT_GT(worker_injected, 0u);

  EXPECT_EQ(trace::metrics().counters(), main_counters);
  EXPECT_EQ(trace::tracer().event_count(), main_events);
  EXPECT_EQ(sim::faults().injected(), main_injected);
}

}  // namespace
}  // namespace bcdyn
