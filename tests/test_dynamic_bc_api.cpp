// Public DynamicBc API: lifecycle, engine parity, degenerate inputs,
// removal fallback, ranking, and the front door's graph structure under
// mixed update streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <set>
#include <type_traits>

#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/session.hpp"
#include "gen/generators.hpp"
#include "gpusim/fault_injector.hpp"
#include "gpusim/hazard_detector.hpp"
#include "test_helpers.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"

namespace bcdyn {
namespace {

TEST(DynamicBcApi, ComputeThenInsertMatchesStatic) {
  const auto g = test::gnp_graph(50, 0.06, 41);
  DynamicBc analytic(g, {.approx = {.num_sources = 0, .seed = 1}});
  analytic.compute();
  EXPECT_TRUE(analytic.computed());

  BCDYN_SEEDED_RNG(rng, 91);
  for (int step = 0; step < 5; ++step) {
    const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
    const auto outcome = analytic.insert_edge(u, v);
    EXPECT_TRUE(outcome.inserted);
    EXPECT_EQ(outcome.case1 + outcome.case2 + outcome.case3, 50);
    EXPECT_GE(outcome.modeled_seconds, 0.0);
  }
  const auto expected = betweenness_exact(analytic.graph());
  test::expect_near_spans(analytic.scores(), expected, 1e-7, "scores");
}

TEST(DynamicBcApi, InsertBeforeComputeThrows) {
  const auto g = test::path_graph(5);
  DynamicBc analytic(g, {.approx = {.num_sources = 0, .seed = 1}});
  EXPECT_THROW(analytic.insert_edge(0, 2), std::logic_error);
}

TEST(DynamicBcApi, RejectsDegenerateInsertions) {
  const auto g = test::path_graph(5);
  DynamicBc analytic(g, {.approx = {.num_sources = 0, .seed = 1}});
  analytic.compute();
  EXPECT_FALSE(analytic.insert_edge(1, 1).inserted);   // self loop
  EXPECT_FALSE(analytic.insert_edge(0, 1).inserted);   // already present
  EXPECT_FALSE(analytic.insert_edge(0, 99).inserted);  // out of range
  EXPECT_FALSE(analytic.insert_edge(-1, 2).inserted);
}

TEST(DynamicBcApi, AllThreeEnginesAgree) {
  const auto g = test::gnp_graph(40, 0.08, 61);
  std::vector<std::unique_ptr<DynamicBc>> analytics;
  for (EngineKind kind :
       {EngineKind::kCpu, EngineKind::kGpuEdge, EngineKind::kGpuNode}) {
    analytics.push_back(std::make_unique<DynamicBc>(
        g, bc::Options{.engine = kind,
                       .approx = {.num_sources = 10, .seed = 3}}));
    analytics.back()->compute();
  }
  BCDYN_SEEDED_RNG(rng, 77);
  for (int step = 0; step < 6; ++step) {
    const auto [u, v] = test::random_absent_edge(analytics[0]->graph(), rng);
    for (auto& a : analytics) {
      EXPECT_TRUE(a->insert_edge(u, v).inserted);
    }
  }
  test::expect_near_spans(analytics[1]->scores(), analytics[0]->scores(),
                          1e-7, "edge vs cpu");
  test::expect_near_spans(analytics[2]->scores(), analytics[0]->scores(),
                          1e-7, "node vs cpu");
}

TEST(DynamicBcApi, RemoveEdgeRecomputes) {
  const auto g = test::cycle_graph(12);
  DynamicBc analytic(g, {.approx = {.num_sources = 0, .seed = 1}});
  analytic.compute();
  const auto outcome = analytic.remove_edge(0, 1);
  EXPECT_TRUE(outcome.inserted);  // "applied"
  EXPECT_FALSE(analytic.graph().has_edge(0, 1));
  // Removing the cycle edge turns it into a path: closed-form check.
  const auto expected = betweenness_exact(analytic.graph());
  test::expect_near_spans(analytic.scores(), expected, 1e-9, "scores");
  EXPECT_FALSE(analytic.remove_edge(0, 1).inserted);  // already gone
}

TEST(DynamicBcApi, TopKRanking) {
  const auto g = test::star_graph(8);
  DynamicBc analytic(g, {.approx = {.num_sources = 0, .seed = 1}});
  analytic.compute();
  const auto top = analytic.top_k(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 0);  // hub
  EXPECT_GT(top[0].second, 0.0);
  EXPECT_DOUBLE_EQ(top[1].second, 0.0);
  EXPECT_LT(top[1].first, top[2].first);  // tie-break by id
  EXPECT_EQ(analytic.top_k(0).size(), 0u);
  EXPECT_EQ(analytic.top_k(100).size(), 8u);
}

TEST(DynamicBcApi, CaseCountsMatchFigure2Semantics) {
  const auto g = gen::small_world(200, 4, 0.1, 7);
  DynamicBc analytic(g, {.approx = {.num_sources = 32, .seed = 5}});
  analytic.compute();
  BCDYN_SEEDED_RNG(rng, 3);
  const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
  const auto outcome = analytic.insert_edge(u, v);
  EXPECT_EQ(outcome.case1 + outcome.case2 + outcome.case3, 32);
  EXPECT_LE(outcome.max_touched, 200);
}

TEST(DynamicBcApi, EngineNames) {
  EXPECT_STREQ(to_string(EngineKind::kCpu), "cpu");
  EXPECT_STREQ(to_string(EngineKind::kGpuEdge), "gpu-edge");
  EXPECT_STREQ(to_string(EngineKind::kGpuNode), "gpu-node");
  EXPECT_STREQ(to_string(EngineKind::kGpuAdaptive), "gpu-adaptive");
  EXPECT_STREQ(to_string(Parallelism::kEdge), "Edge");
  EXPECT_STREQ(to_string(Parallelism::kNode), "Node");
}

TEST(DynamicBcApi, EngineParsingRoundTrips) {
  for (EngineKind kind : {EngineKind::kCpu, EngineKind::kGpuEdge,
                          EngineKind::kGpuNode, EngineKind::kGpuAdaptive}) {
    const auto parsed = engine_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
    EXPECT_EQ(parse_engine_flag(to_string(kind)), kind);
  }
  EXPECT_FALSE(engine_from_string("gpu").has_value());
  EXPECT_FALSE(engine_from_string("").has_value());
  EXPECT_FALSE(engine_from_string("CPU").has_value());
  EXPECT_FALSE(engine_from_string("gpu-Adaptive").has_value());
  EXPECT_FALSE(engine_from_string(" gpu-edge").has_value());
  EXPECT_FALSE(engine_from_string("gpu-node ").has_value());
  EXPECT_FALSE(engine_from_string("adaptive").has_value());
  EXPECT_THROW(parse_engine_flag("warp"), std::invalid_argument);
  // The error names the flag's value and every accepted engine.
  try {
    parse_engine_flag("gpu-warp");
    FAIL() << "parse_engine_flag accepted an unknown engine";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gpu-warp"), std::string::npos);
    for (const char* name : {"cpu", "gpu-edge", "gpu-node", "gpu-adaptive"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TEST(DynamicBcApi, AdaptiveEngineAgreesWithCpuAndExposesPolicy) {
  const auto g = test::gnp_graph(40, 0.08, 61);
  DynamicBc cpu(g, {.engine = EngineKind::kCpu,
                    .approx = {.num_sources = 10, .seed = 3}});
  DynamicBc adaptive(g, {.engine = EngineKind::kGpuAdaptive,
                         .approx = {.num_sources = 10, .seed = 3}});
  EXPECT_EQ(cpu.policy(), nullptr);
  ASSERT_NE(adaptive.policy(), nullptr);
  cpu.compute();
  adaptive.compute();
  BCDYN_SEEDED_RNG(rng, 77);
  for (int step = 0; step < 4; ++step) {
    const auto [u, v] = test::random_absent_edge(cpu.graph(), rng);
    EXPECT_TRUE(cpu.insert_edge(u, v).inserted);
    EXPECT_TRUE(adaptive.insert_edge(u, v).inserted);
  }
  test::expect_near_spans(adaptive.scores(), cpu.scores(), 1e-7,
                          "adaptive vs cpu");
  // The policy decided the static pass and every update's non-case-1
  // sources, and logged each decision.
  const ParallelismPolicy& p = *adaptive.policy();
  EXPECT_GT(p.decisions(Parallelism::kEdge) + p.decisions(Parallelism::kNode),
            0u);
  EXPECT_EQ(p.log().size(), p.decisions(Parallelism::kEdge) +
                                p.decisions(Parallelism::kNode));
}

TEST(DynamicBcApi, RejectsBadBatchSettingsNamingTheField) {
  // The constructor is the one place the batch settings are checked: a
  // bad value fails there, on every engine, with an error naming the
  // field (a NaN threshold would otherwise switch the recompute fallback
  // off without a word).
  const auto g = test::path_graph(6);
  const struct {
    const char* field;
    void (*corrupt)(bc::Options&);
  } cases[] = {
      {"pipeline_depth", [](bc::Options& o) { o.pipeline_depth = 0; }},
      {"pipeline_depth", [](bc::Options& o) { o.pipeline_depth = -2; }},
      {"batch_recompute_threshold",
       [](bc::Options& o) { o.batch_recompute_threshold = -0.1; }},
      {"batch_recompute_threshold",
       [](bc::Options& o) {
         o.batch_recompute_threshold =
             std::numeric_limits<double>::quiet_NaN();
       }},
  };
  for (const EngineKind engine : {EngineKind::kCpu, EngineKind::kGpuEdge}) {
    for (const auto& c : cases) {
      bc::Options o{.engine = engine, .approx = {.num_sources = 2, .seed = 1}};
      c.corrupt(o);
      const std::string where =
          std::string(c.field) + " engine=" + to_string(engine);
      try {
        DynamicBc analytic(g, o);
        ADD_FAILURE() << where << ": no exception";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
            << where << ": " << e.what();
      }
    }
  }
  // The boundary values themselves are valid settings.
  EXPECT_NO_THROW(DynamicBc(g, {.batch_recompute_threshold = 0.0,
                                .pipeline_depth = 1}));
}

TEST(DynamicBcApi, UpdateOutcomeDefaultsAreEmpty) {
  const UpdateOutcome outcome;
  EXPECT_EQ(outcome.inserted, 0);
  EXPECT_FALSE(outcome.inserted);  // usable as a bool for single-edge ops
  EXPECT_EQ(outcome.skipped, 0);
  EXPECT_EQ(outcome.case1 + outcome.case2 + outcome.case3, 0);
  EXPECT_EQ(outcome.recomputed_sources, 0);
  EXPECT_EQ(outcome.max_touched, 0);
}

TEST(DynamicBcApi, SessionMatchesBareAnalytic) {
  // bc::Session is a DynamicBc plus the runtime wiring, which does not
  // change its results: same engine, same config -> bit-identical scores.
  const auto g = test::gnp_graph(30, 0.1, 17);
  bc::Session session(g, {.engine = EngineKind::kGpuEdge,
                          .approx = {.num_sources = 8, .seed = 2}});
  DynamicBc bare(g, {.engine = EngineKind::kGpuEdge,
                     .approx = {.num_sources = 8, .seed = 2}});
  session.compute();
  bare.compute();
  EXPECT_EQ(session.engine(), EngineKind::kGpuEdge);
  EXPECT_EQ(session.num_devices(), 1);
  BCDYN_SEEDED_RNG(rng, 5);
  const auto [u, v] = test::random_absent_edge(session.graph(), rng);
  EXPECT_TRUE(session.insert_edge(u, v).inserted);
  EXPECT_TRUE(bare.insert_edge(u, v).inserted);
  for (std::size_t i = 0; i < session.scores().size(); ++i) {
    EXPECT_EQ(session.scores()[i], bare.scores()[i]);
  }
}

TEST(DynamicBcApi, FrontDoorGraphMatchesFromCooAfterEveryCall) {
  // A mixed insert/remove stream through bc::Session, rejected calls
  // included: after every call the analytic's patched graph is laid out
  // exactly as from_coo builds the reference edge set, and the outcome
  // applies or rejects exactly what the rules say (self loops, endpoints
  // out of range, present edges on insert, absent edges on remove).
  using Edge = std::pair<VertexId, VertexId>;
  const VertexId n = 30;
  const auto g0 = test::gnp_graph(n, 0.1, 23);
  const auto expect_layout = [n](const CSRGraph& got,
                                 const std::set<Edge>& ref,
                                 const std::string& where) {
    COOGraph coo;
    coo.num_vertices = n;
    coo.edges.assign(ref.begin(), ref.end());
    const CSRGraph want = CSRGraph::from_coo(std::move(coo));
    const auto same = [](auto a, auto b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    EXPECT_TRUE(same(got.row_offsets(), want.row_offsets())) << where;
    EXPECT_TRUE(same(got.arc_src(), want.arc_src())) << where;
    EXPECT_TRUE(same(got.arc_dst(), want.arc_dst())) << where;
  };
  // Applies `e` to the reference set under the rules; true if it applies.
  const auto apply = [n](std::set<Edge>& ref, Edge e, bool insert) {
    const auto [u, v] = e;
    if (u == v || u < 0 || v < 0 || u >= n || v >= n) return false;
    const Edge key{std::min(u, v), std::max(u, v)};
    return insert ? ref.insert(key).second : ref.erase(key) > 0;
  };
  const struct {
    EngineKind engine;
    int devices;
  } configs[] = {{EngineKind::kCpu, 1},
                 {EngineKind::kGpuEdge, 1},
                 {EngineKind::kGpuNode, 1},
                 {EngineKind::kGpuAdaptive, 2}};
  for (const auto& config : configs) {
    const std::string engine = to_string(config.engine);
    bc::Session session(g0, {.engine = config.engine,
                             .approx = {.num_sources = 6, .seed = 3},
                             .num_devices = config.devices});
    session.compute();
    std::set<Edge> ref;
    for (const Edge& e : g0.to_coo().edges) ref.insert(e);
    BCDYN_SEEDED_RNG(rng, 41);
    const auto any_vertex = [&] {
      return static_cast<VertexId>(rng.next_below(n));
    };
    Edge removed{0, 0};
    for (int step = 0; step < 30; ++step) {
      const std::string where = engine + " step " + std::to_string(step);
      bool insert = rng.next_bool(0.5);
      Edge e;
      switch (step % 6) {
        case 0:
        case 4:  // a random pair: mostly fresh, sometimes present
          insert = true;
          e = {any_vertex(), any_vertex()};
          break;
        case 1:  // self loop
          e.first = e.second = any_vertex();
          break;
        case 2:  // a present edge
          insert = false;
          e = *std::next(ref.begin(),
                         static_cast<std::ptrdiff_t>(rng.next_below(ref.size())));
          removed = e;
          break;
        case 3:  // duplicate insert, or removal of the edge just removed
          e = insert ? *ref.begin() : removed;
          break;
        default:  // out of range
          e = insert ? Edge{any_vertex(), n} : Edge{-1, any_vertex()};
          break;
      }
      const bool applies = apply(ref, e, insert);
      const UpdateOutcome out = insert ? session.insert_edge(e.first, e.second)
                                       : session.remove_edge(e.first, e.second);
      EXPECT_EQ(out.inserted, applies ? 1 : 0) << where;
      EXPECT_EQ(out.skipped, 0) << where;
      expect_layout(session.graph(), ref, where);
    }
    // A batch: fresh edges beside an in-batch duplicate (reversed), a self
    // loop, a present edge and an out-of-range endpoint.
    std::vector<Edge> batch;
    for (VertexId u = 0; u < n - 1 && batch.size() < 3; ++u) {
      if (!ref.count({u, n - 1})) batch.emplace_back(u, n - 1);
    }
    ASSERT_EQ(batch.size(), 3u) << engine;
    batch.insert(batch.end(), {{n - 1, batch[0].first},
                               {4, 4},
                               *ref.begin(),
                               {0, n + 3}});
    int inserted = 0;
    int skipped = 0;
    for (const Edge& e : batch) {
      if (apply(ref, e, true)) {
        ++inserted;
      } else {
        ++skipped;
      }
    }
    EXPECT_EQ(inserted, 3) << engine;
    const UpdateOutcome out = session.insert_edge_batch(batch);
    EXPECT_EQ(out.inserted, inserted) << engine;
    EXPECT_EQ(out.skipped, skipped) << engine;
    expect_layout(session.graph(), ref, engine + " batch");
    EXPECT_LT(session.verify_against_recompute(), 1e-9) << engine;
  }
}

TEST(DynamicBcApi, SessionRejectsMalformedDeviceSpec) {
  // A spec the simulator cannot run fails at construction with an error
  // naming the field, on one device and on a sharded group alike, and the
  // Session leaves the process runtime toggles as it found them.
  const auto g = test::gnp_graph(20, 0.2, 9);
  const struct {
    const char* field;
    void (*corrupt)(sim::DeviceSpec&);
  } cases[] = {
      {"num_sms", [](sim::DeviceSpec& s) { s.num_sms = 0; }},
      {"num_sms", [](sim::DeviceSpec& s) { s.num_sms = -1; }},
      {"threads_per_block",
       [](sim::DeviceSpec& s) { s.threads_per_block = 0; }},
      {"clock_ghz", [](sim::DeviceSpec& s) { s.clock_ghz = 0.0; }},
      {"clock_ghz", [](sim::DeviceSpec& s) { s.clock_ghz = -1.0; }},
      {"clock_ghz",
       [](sim::DeviceSpec& s) {
         s.clock_ghz = std::numeric_limits<double>::infinity();
       }},
      {"clock_ghz",
       [](sim::DeviceSpec& s) {
         s.clock_ghz = std::numeric_limits<double>::quiet_NaN();
       }},
  };
  // Every Runtime toggle is flipped, so each one's restore is checked.
  const char* const toggle_names[] = {"tracing", "hazard_detection",
                                      "strict_hazards", "telemetry",
                                      "fault_injection"};
  const auto toggles = [] {
    return std::array<bool, 5>{
        trace::tracer().enabled(), sim::hazards().enabled(),
        sim::hazards().strict(), trace::telemetry().enabled(),
        sim::faults().enabled()};
  };
  const std::array<bool, 5> before = toggles();
  for (int devices : {1, 2}) {
    for (const auto& c : cases) {
      bc::Options o{.engine = EngineKind::kGpuNode,
                    .approx = {.num_sources = 4, .seed = 1},
                    .num_devices = devices,
                    .runtime = {.tracing = !before[0],
                                .hazard_detection = !before[1],
                                .strict_hazards = !before[2],
                                .telemetry = !before[3],
                                .fault_injection = !before[4]}};
      c.corrupt(o.device_spec);
      const std::string where =
          std::string(c.field) + " devices=" + std::to_string(devices);
      try {
        bc::Session session(g, o);
        session.compute();
        session.insert_edge(0, 1);
        ADD_FAILURE() << where << ": no exception";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
            << where << ": " << e.what();
      }
      const std::array<bool, 5> after = toggles();
      for (std::size_t t = 0; t < after.size(); ++t) {
        EXPECT_EQ(after[t], before[t]) << where << ": " << toggle_names[t];
      }
    }
  }
}

}  // namespace
}  // namespace bcdyn
