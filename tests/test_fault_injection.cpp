// Chaos suite for deterministic fault injection (gpusim/fault_injector.hpp)
// and the bc recovery layer (bc/recovery.hpp).
//
// The load-bearing claims under test:
//   * every injection decision is a pure hash of (seed, site, sequence
//     index) - the same plan replays a byte-identical fault sequence;
//   * every fault site fires before analytic state is mutated, so a
//     recovered run's scores are bit-identical (==, not near) to a
//     fault-free run of the same workload, on every engine and device
//     count, including across device loss and resharding;
//   * retry exhaustion and the static-recompute fallback take the
//     documented error paths;
//   * every per-source launch keeps its exact name, which is also the
//     fault-site string seeded plans hash;
//   * the suite runs under ASan/UBSan via the `asan-chaos` preset.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/pipeline.hpp"
#include "bc/recovery.hpp"
#include "bc/session.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_group.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/fault_injector.hpp"
#include "gpusim/stream.hpp"
#include "test_helpers.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace bcdyn {
namespace {

/// RAII: installs a plan on the per-thread injector and enables it for
/// the scope; restores the previous enabled flag on exit. configure()
/// restarts every per-site decision sequence, so each scope replays its
/// plan from decision 0.
class FaultScope {
 public:
  explicit FaultScope(const sim::FaultPlan& plan)
      : was_enabled_(sim::faults().enabled()) {
    sim::faults().configure(plan);
    sim::faults().set_enabled(true);
  }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
  ~FaultScope() { sim::faults().set_enabled(was_enabled_); }

 private:
  bool was_enabled_;
};

void expect_bit_identical(std::span<const double> actual,
                          std::span<const double> expected,
                          const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << what << " differs at vertex " << i;
  }
}

std::vector<std::string> record_strings() {
  std::vector<std::string> out;
  for (const auto& rec : sim::faults().records()) {
    out.push_back(rec.to_string());
  }
  return out;
}

// --- FaultPlan parsing ----------------------------------------------------

TEST(FaultPlan, ParsesSeedWithDefaultRate) {
  const sim::FaultPlan plan = sim::FaultPlan::parse("42");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.transfer_fail_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.stall_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.kernel_abort_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.device_loss_rate, 0.02 / 16.0);
}

TEST(FaultPlan, ParsesExplicitRate) {
  const sim::FaultPlan plan = sim::FaultPlan::parse("7:0.5");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.kernel_abort_rate, 0.5);
  EXPECT_DOUBLE_EQ(plan.device_loss_rate, 0.5 / 16.0);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  for (const char* bad : {"", "x", "1x", ":0.5", "7:", "7:abc", "7:1.5",
                          "7:-0.1", "7:0.5z"}) {
    EXPECT_THROW(sim::FaultPlan::parse(bad), std::invalid_argument)
        << "spec '" << bad << "' should not parse";
  }
}

// --- decision hashing -----------------------------------------------------

TEST(FaultInjector, SameSeedReplaysByteIdenticalDecisions) {
  sim::FaultPlan plan;
  plan.seed = 1234;
  plan.kernel_abort_rate = 0.3;
  std::vector<std::uint64_t> first;
  {
    FaultScope scope(plan);
    for (int i = 0; i < 64; ++i) {
      sim::FaultRecord fired;
      if (sim::faults().should_abort_launch("dev.launch.k", &fired)) {
        first.push_back(fired.seq);
      }
    }
  }
  ASSERT_FALSE(first.empty()) << "rate 0.3 over 64 decisions fired nothing";
  ASSERT_LT(first.size(), 64u) << "rate 0.3 fired every decision";
  std::vector<std::uint64_t> second;
  {
    FaultScope scope(plan);
    for (int i = 0; i < 64; ++i) {
      sim::FaultRecord fired;
      if (sim::faults().should_abort_launch("dev.launch.k", &fired)) {
        second.push_back(fired.seq);
      }
    }
  }
  EXPECT_EQ(first, second);
}

TEST(FaultInjector, SitesDecideIndependently) {
  sim::FaultPlan plan;
  plan.seed = 99;
  plan.kernel_abort_rate = 0.25;
  const auto fired_at = [](std::string_view site, bool interleave) {
    std::vector<std::uint64_t> fired;
    for (int i = 0; i < 48; ++i) {
      sim::FaultRecord rec;
      if (sim::faults().should_abort_launch(site, &rec)) {
        fired.push_back(rec.seq);
      }
      if (interleave) sim::faults().should_abort_launch("other.site");
    }
    return fired;
  };
  std::vector<std::uint64_t> alone;
  {
    FaultScope scope(plan);
    alone = fired_at("dev.launch.k", false);
  }
  std::vector<std::uint64_t> interleaved;
  {
    FaultScope scope(plan);
    interleaved = fired_at("dev.launch.k", true);
  }
  // A site's decision stream depends only on its own poll count, never on
  // how often other sites were polled in between.
  EXPECT_EQ(alone, interleaved);
}

TEST(FaultInjector, SiteFilterOnlySuppressesNonMatchingSites) {
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.kernel_abort_rate = 0.5;
  const auto fired_seqs = [](std::string_view site) {
    std::vector<std::uint64_t> fired;
    for (int i = 0; i < 32; ++i) {
      sim::FaultRecord rec;
      if (sim::faults().should_abort_launch(site, &rec)) {
        fired.push_back(rec.seq);
      }
    }
    return fired;
  };
  std::vector<std::uint64_t> unfiltered;
  {
    FaultScope scope(plan);
    unfiltered = fired_seqs("a.launch.k");
  }
  ASSERT_FALSE(unfiltered.empty());
  plan.site_filter = "a.launch";
  {
    FaultScope scope(plan);
    // Non-matching sites never fire; matching sites decide exactly as the
    // filterless plan did (the filter gates firing, not the hash).
    EXPECT_TRUE(fired_seqs("b.launch.k").empty());
    EXPECT_EQ(fired_seqs("a.launch.k"), unfiltered);
  }
}

// --- per-kind fault sites -------------------------------------------------

TEST(FaultSites, TransferFailureThrowsWithSiteAndKind) {
  sim::Device dev(sim::DeviceSpec::tesla_c2075());
  sim::Stream stream(dev, "chaos");
  sim::FaultPlan plan;
  plan.seed = 11;
  plan.transfer_fail_rate = 1.0;
  FaultScope scope(plan);
  try {
    stream.memcpy_h2d(1 << 20, "chaos.upload");
    FAIL() << "transfer at rate 1.0 did not fail";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.record().kind, sim::FaultKind::kTransferFail);
    EXPECT_EQ(e.record().site, "dev.h2d");
    EXPECT_EQ(e.record().seq, 0u);
  }
  EXPECT_EQ(sim::faults().injected(sim::FaultKind::kTransferFail), 1u);
}

TEST(FaultSites, StallShiftsTransferCompletionByPlanCycles) {
  const auto transfer_end = [](bool faulty) {
    sim::Device dev(sim::DeviceSpec::tesla_c2075());
    sim::Stream stream(dev, "chaos");
    sim::FaultPlan plan;
    plan.seed = 3;
    plan.stall_rate = faulty ? 1.0 : 0.0;
    plan.stall_cycles = 12345.0;
    FaultScope scope(plan);
    return stream.memcpy_h2d(1 << 16, "chaos.upload").end_cycles;
  };
  const double clean = transfer_end(false);
  const double stalled = transfer_end(true);
  EXPECT_DOUBLE_EQ(stalled - clean, 12345.0);
}

TEST(FaultSites, LaunchAbortFiresBeforeAnyExecution) {
  sim::Device dev(sim::DeviceSpec::tesla_c2075());
  sim::FaultPlan plan;
  plan.seed = 21;
  plan.kernel_abort_rate = 1.0;
  FaultScope scope(plan);
  bool ran = false;
  try {
    dev.launch(2, [&](sim::BlockContext&) { ran = true; }, "chaos_kernel");
    FAIL() << "launch at abort rate 1.0 did not abort";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.record().kind, sim::FaultKind::kKernelAbort);
    EXPECT_EQ(e.record().site, "dev.launch.chaos_kernel");
  }
  EXPECT_FALSE(ran) << "aborted launch still executed a block";
}

TEST(FaultSites, DeviceLossReshardsOntoSurvivors) {
  sim::DeviceGroup group(2, sim::DeviceSpec::tesla_c2075());
  sim::FaultPlan plan;
  plan.seed = 8;
  plan.device_loss_rate = 1.0;
  plan.site_filter = "dev0.loss";
  FaultScope scope(plan);
  const std::vector<int> shard = {0, 1, 0, 1};
  std::vector<int> executed;
  const auto result = group.launch_sharded(
      4, shard, {},
      [&](sim::BlockContext&, int job) { executed.push_back(job); }, nullptr,
      "chaos_shard");
  EXPECT_TRUE(group.device_lost(0));
  EXPECT_FALSE(group.device_lost(1));
  EXPECT_EQ(group.num_alive(), 1);
  EXPECT_EQ(result.lost_devices, 1);
  EXPECT_EQ(result.resharded_jobs, 2);
  // Host execution stays in job-id order, and every placement lands on the
  // survivor.
  EXPECT_EQ(executed, (std::vector<int>{0, 1, 2, 3}));
  for (const auto& p : result.placements) EXPECT_EQ(p.device, 1);
  // The loss is permanent: the next launch reshards without a new loss.
  std::vector<int> again;
  const auto result2 = group.launch_sharded(
      4, shard, {}, [&](sim::BlockContext&, int job) { again.push_back(job); },
      nullptr, "chaos_shard");
  EXPECT_EQ(result2.lost_devices, 0);
  EXPECT_EQ(result2.resharded_jobs, 2);
  EXPECT_EQ(again, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FaultSites, AllDevicesLostThrows) {
  sim::DeviceGroup group(2, sim::DeviceSpec::tesla_c2075());
  sim::FaultPlan plan;
  plan.seed = 8;
  plan.device_loss_rate = 1.0;
  FaultScope scope(plan);
  try {
    group.launch_sharded(2, std::vector<int>{0, 1}, {},
                         [](sim::BlockContext&, int) {}, nullptr, "chaos");
    FAIL() << "losing every device did not throw";
  } catch (const sim::FaultError& e) {
    EXPECT_EQ(e.record().kind, sim::FaultKind::kDeviceLoss);
    EXPECT_EQ(e.record().site, "group.all_lost");
  }
}

// --- recovery error paths -------------------------------------------------

bc::Options gpu_options(int devices, const RecoveryPolicy& recovery) {
  bc::Options opt;
  opt.engine = EngineKind::kGpuEdge;
  opt.approx = {.num_sources = 12, .seed = 5};
  opt.num_devices = devices;
  opt.recovery = recovery;
  return opt;
}

TEST(Recovery, ExhaustionWithoutFallbackThrows) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 7);
  DynamicBc analytic(g,
                     gpu_options(1, {.max_retries = 2,
                                     .fallback_recompute = false}));
  analytic.compute();
  sim::FaultPlan plan;
  plan.seed = 17;
  plan.kernel_abort_rate = 1.0;
  plan.site_filter = "insert";
  FaultScope scope(plan);
  trace::metrics().reset();
  BCDYN_SEEDED_RNG(rng, 77);
  const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
  EXPECT_THROW(analytic.insert_edge(u, v), sim::FaultError);
  EXPECT_EQ(trace::metrics().counter_value("bc.fault.exhausted.count"), 1u);
  EXPECT_EQ(trace::metrics().counter_value("bc.fault.retries.count"), 2u);
  EXPECT_EQ(trace::metrics().counter_value("bc.fault.recovered.count"), 0u);
}

TEST(Recovery, FallbackRecomputesWhenRetriesExhaust) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 7);
  DynamicBc analytic(g, gpu_options(1, {.max_retries = 1,
                                        .fallback_recompute = true}));
  analytic.compute();
  sim::FaultPlan plan;
  plan.seed = 17;
  plan.kernel_abort_rate = 1.0;
  // Only dynamic-update launches fault; the static_bc.* fallback launches
  // stay clean, so the recompute succeeds.
  plan.site_filter = "insert";
  FaultScope scope(plan);
  trace::metrics().reset();
  BCDYN_SEEDED_RNG(rng, 78);
  const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
  const UpdateOutcome outcome = analytic.insert_edge(u, v);
  EXPECT_EQ(outcome.recomputed_sources, 12);
  EXPECT_EQ(
      trace::metrics().counter_value("bc.fault.fallback_recompute.count"), 1u);
  // The fallback abandons the incremental patch; scores match a from-
  // scratch recompute to FP rounding.
  EXPECT_LE(analytic.verify_against_recompute(), 1e-9);
}

TEST(Recovery, FaultedFallbackPropagates) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 7);
  DynamicBc analytic(g, gpu_options(1, {.max_retries = 1,
                                        .fallback_recompute = true}));
  analytic.compute();
  sim::FaultPlan plan;
  plan.seed = 17;
  plan.kernel_abort_rate = 1.0;  // every launch aborts, fallback included
  FaultScope scope(plan);
  trace::metrics().reset();
  BCDYN_SEEDED_RNG(rng, 79);
  const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
  EXPECT_THROW(analytic.insert_edge(u, v), sim::FaultError);
  // Both the update pass and the fallback recompute exhausted.
  EXPECT_EQ(trace::metrics().counter_value("bc.fault.exhausted.count"), 2u);
  EXPECT_EQ(
      trace::metrics().counter_value("bc.fault.fallback_recompute.count"), 1u);
}

TEST(Recovery, LongRetryBudgetKeepsBackoffFiniteAndPositive) {
  // The backoff doubles per attempt past 31 retries, where an int shift
  // would overflow (a negative wait at 31, undefined behaviour beyond).
  const CSRGraph g = test::gnp_graph(40, 0.12, 7);
  bc::Options opt = gpu_options(1, {.max_retries = 40});
  opt.runtime = {.fault_injection = true,
                 .fault_plan = {.seed = 17, .kernel_abort_rate = 1.0}};
  trace::metrics().reset();
  bc::Session session(g, opt);
  EXPECT_THROW(session.compute(), sim::FaultError);
  const trace::HistogramSnapshot waits =
      trace::metrics().histogram("bc.fault.backoff_cycles");
  EXPECT_EQ(waits.count, 40u);
  EXPECT_GT(waits.min, 0.0);
  EXPECT_TRUE(std::isfinite(waits.sum));
  EXPECT_EQ(waits.max, std::ldexp(opt.recovery.backoff_cycles, 39));
}

// --- recovered scores: bit-identical to the fault-free reference ----------

struct ChaosCase {
  EngineKind engine;
  int devices;
};

std::string chaos_name(const ::testing::TestParamInfo<ChaosCase>& info) {
  std::string name = to_string(info.param.engine);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_x" + std::to_string(info.param.devices);
}

class ChaosSoak : public ::testing::TestWithParam<ChaosCase> {};

/// Drives a mixed stream of single inserts, removals, and batch inserts
/// through `analytic`. The op sequence is a pure function of `seed`, so a
/// faulty run and its fault-free reference execute identical workloads.
void run_mixed_stream(DynamicBc& analytic, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> inserted;
  for (int step = 0; step < 12; ++step) {
    const std::uint64_t roll = rng.next_below(10);
    if (roll < 5) {
      const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
      if (u == kNoVertex) continue;
      if (analytic.insert_edge(u, v).inserted) inserted.emplace_back(u, v);
    } else if (roll < 7 && !inserted.empty()) {
      const std::size_t pick = rng.next_below(inserted.size());
      const auto [u, v] = inserted[pick];
      inserted.erase(inserted.begin() + static_cast<std::ptrdiff_t>(pick));
      analytic.remove_edge(u, v);
    } else {
      std::vector<std::pair<VertexId, VertexId>> batch;
      for (int i = 0; i < 6; ++i) {
        const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
        if (u != kNoVertex) batch.emplace_back(u, v);
      }
      analytic.insert_edge_batch(batch);
    }
  }
}

TEST_P(ChaosSoak, RecoveredScoresBitIdenticalToFaultFree) {
  const auto& param = GetParam();
  const CSRGraph g = test::gnp_graph(64, 0.1, 13);
  const RecoveryPolicy recovery{.max_retries = 10,
                                .fallback_recompute = false};
  bc::Options opt;
  opt.engine = param.engine;
  opt.approx = {.num_sources = 16, .seed = 5};
  opt.num_devices = param.devices;
  opt.recovery = recovery;

  // Fault-free reference.
  sim::faults().set_enabled(false);
  DynamicBc reference(g, opt);
  reference.compute();
  run_mixed_stream(reference, 4242);
  const std::vector<double> expected(reference.scores().begin(),
                                     reference.scores().end());

  // Faulty run: every fault kind live at a rate the retry budget absorbs.
  const sim::FaultPlan plan = sim::FaultPlan::uniform(0xFA17, 0.03);
  std::vector<std::string> first_records;
  std::uint64_t first_injected = 0;
  {
    FaultScope scope(plan);
    DynamicBc faulty(g, opt);
    faulty.compute();
    run_mixed_stream(faulty, 4242);
    expect_bit_identical(faulty.scores(), expected, "recovered scores");
    first_records = record_strings();
    first_injected = sim::faults().injected();
  }

  // Same plan, same workload: the fault trajectory replays byte-identically
  // and so do the recovered scores.
  {
    FaultScope scope(plan);
    DynamicBc faulty(g, opt);
    faulty.compute();
    run_mixed_stream(faulty, 4242);
    expect_bit_identical(faulty.scores(), expected, "replayed scores");
    EXPECT_EQ(record_strings(), first_records);
    EXPECT_EQ(sim::faults().injected(), first_injected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByDevices, ChaosSoak,
    ::testing::Values(ChaosCase{EngineKind::kGpuEdge, 1},
                      ChaosCase{EngineKind::kGpuEdge, 2},
                      ChaosCase{EngineKind::kGpuEdge, 4},
                      ChaosCase{EngineKind::kGpuNode, 1},
                      ChaosCase{EngineKind::kGpuNode, 2},
                      ChaosCase{EngineKind::kGpuNode, 4},
                      ChaosCase{EngineKind::kGpuAdaptive, 1},
                      ChaosCase{EngineKind::kGpuAdaptive, 2},
                      ChaosCase{EngineKind::kGpuAdaptive, 4}),
    chaos_name);

// --- launch names and fault sites: pinned ---------------------------------
//
// A launch's name labels its trace launch track, its hazard reports and its
// sim.atomic_conflicts.<name> metric, and it is the fault-site string every
// seeded plan hashes ("dev.launch.insert.edge", "group.launch.batch.node").
// Renaming a launch would silently reshuffle every seeded chaos decision,
// so the names of the four per-source launches are pinned exactly here.

class LaunchNames : public ::testing::TestWithParam<ChaosCase> {};

/// One fixed stream, one per-source launch per op: op 0 is the static
/// pass, then an insertion, its removal, and a three-edge batch.
struct LaunchStream {
  std::pair<VertexId, VertexId> edge;
  std::vector<std::pair<VertexId, VertexId>> batch;

  explicit LaunchStream(const CSRGraph& g) {
    BCDYN_SEEDED_RNG(rng, 41);
    edge = test::random_absent_edge(g, rng);
    while (batch.size() < 3) {
      const auto e = test::random_absent_edge(g, rng);
      if (e != edge) batch.push_back(e);
    }
  }

  void run(DynamicBc& analytic, int op) const {
    switch (op) {
      case 0:
        analytic.compute();
        break;
      case 1:
        analytic.insert_edge(edge.first, edge.second);
        break;
      case 2:
        analytic.remove_edge(edge.first, edge.second);
        break;
      default:
        analytic.insert_edge_batch(batch);
        break;
    }
  }
};

TEST_P(LaunchNames, LaunchNamesAndFaultSitesArePinned) {
  const auto& param = GetParam();
  const std::string mode = param.engine == EngineKind::kGpuEdge   ? "edge"
                           : param.engine == EngineKind::kGpuNode ? "node"
                                                                  : "adaptive";
  const std::vector<std::string> names = {
      "static_bc." + mode, "insert." + mode, "remove." + mode,
      "batch." + mode};
  const CSRGraph g = test::gnp_graph(40, 0.12, 7);
  const LaunchStream stream(g);
  bc::Options opt = gpu_options(
      param.devices, {.max_retries = 0, .fallback_recompute = false});
  opt.engine = param.engine;
  opt.approx = {.num_sources = 32, .seed = 5};

  // The launch track: one event per launch per device that ran jobs. With
  // 32 round-robin sources on 14-SM devices, each device of a two-device
  // group keeps jobs its peer cannot steal before its own SMs pop them.
  // The static pass and the updates share the session's devices, so the
  // four launches land on exactly `devices` timelines (pids).
  {
    const bool was_tracing = trace::tracer().enabled();
    trace::tracer().clear();
    trace::tracer().set_enabled(true);
    DynamicBc analytic(g, opt);
    for (int op = 0; op < 4; ++op) stream.run(analytic, op);
    trace::tracer().set_enabled(was_tracing);
    std::vector<std::string> launched;
    std::set<int> pids;
    for (const auto& ev : trace::tracer().events()) {
      if (ev.phase == trace::TraceEvent::Phase::kComplete &&
          ev.tid == trace::kLaunchTrackTid) {
        launched.push_back(ev.name);
        pids.insert(ev.pid);
      }
    }
    std::vector<std::string> expected;
    for (const auto& name : names) {
      expected.insert(expected.end(), static_cast<std::size_t>(param.devices),
                      name);
    }
    EXPECT_EQ(launched, expected);
    EXPECT_EQ(pids.size(), static_cast<std::size_t>(param.devices));
  }

  // The fault site each launch polls: a plan that aborts every launch site
  // fires exactly once per op, at "<domain>.launch.<name>".
  const std::string domain = param.devices == 1 ? "dev" : "group";
  for (int fail_at = 0; fail_at < 4; ++fail_at) {
    SCOPED_TRACE(names[static_cast<std::size_t>(fail_at)]);
    DynamicBc analytic(g, opt);
    for (int op = 0; op < fail_at; ++op) stream.run(analytic, op);
    sim::FaultPlan plan;
    plan.seed = 3;
    plan.kernel_abort_rate = 1.0;
    plan.site_filter = ".launch.";
    FaultScope scope(plan);
    EXPECT_THROW(stream.run(analytic, fail_at), sim::FaultError);
    const auto records = sim::faults().records();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].kind, sim::FaultKind::kKernelAbort);
    EXPECT_EQ(records[0].site, domain + ".launch." +
                                   names[static_cast<std::size_t>(fail_at)]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesByDevices, LaunchNames,
    ::testing::Values(ChaosCase{EngineKind::kGpuEdge, 1},
                      ChaosCase{EngineKind::kGpuEdge, 2},
                      ChaosCase{EngineKind::kGpuNode, 1},
                      ChaosCase{EngineKind::kGpuNode, 2},
                      ChaosCase{EngineKind::kGpuAdaptive, 1},
                      ChaosCase{EngineKind::kGpuAdaptive, 2}),
    chaos_name);

/// The front door pins the fault-site names seeded chaos runs replay by:
/// a one-device session's launch aborts at "dev.launch.<kind>.<mode>" and
/// polls no loss site; a two-device session's at
/// "group.launch.<kind>.<mode>", and each of its launches polls "dev0.loss"
/// then "dev1.loss" first.
TEST(FaultSites, SessionPinsLaunchAndLossSiteNames) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 7);
  const auto options = [](int devices, const sim::FaultPlan& plan) {
    bc::Options opt = gpu_options(
        devices, {.max_retries = 0, .fallback_recompute = false});
    opt.runtime = {.fault_injection = true, .fault_plan = plan};
    return opt;
  };
  const auto sites = [] {
    std::vector<std::string> out;
    for (const auto& rec : sim::faults().records()) out.push_back(rec.site);
    return out;
  };
  const sim::FaultPlan abort_inserts{
      .seed = 3, .kernel_abort_rate = 1.0, .site_filter = ".launch.insert"};
  for (const auto& [devices, domain] :
       {std::pair{1, "dev"}, std::pair{2, "group"}}) {
    SCOPED_TRACE(domain);
    bc::Session session(g, options(devices, abort_inserts));
    session.compute();
    BCDYN_SEEDED_RNG(rng, 41);
    const auto [u, v] = test::random_absent_edge(session.graph(), rng);
    EXPECT_THROW(session.insert_edge(u, v), sim::FaultError);
    EXPECT_EQ(sites(),
              std::vector<std::string>{std::string(domain) +
                                       ".launch.insert.edge"});
  }

  const sim::FaultPlan lose_devices{.seed = 3, .device_loss_rate = 1.0};
  {
    bc::Session one(g, options(1, lose_devices));
    EXPECT_NO_THROW(one.compute());
    EXPECT_TRUE(sites().empty());
  }
  bc::Session two(g, options(2, lose_devices));
  EXPECT_THROW(two.compute(), sim::FaultError);
  EXPECT_EQ(sites(), (std::vector<std::string>{"dev0.loss", "dev1.loss"}));
}

TEST(ChaosPipeline, TransferFaultsRecoverBitIdentically) {
  const CSRGraph g = test::gnp_graph(64, 0.1, 13);
  bc::Options opt = gpu_options(2, {.max_retries = 8});
  opt.pipeline_depth = 2;
  const auto make_batches = [&] {
    util::Rng rng(31);
    std::vector<std::vector<std::pair<VertexId, VertexId>>> batches(4);
    for (auto& batch : batches) {
      for (int i = 0; i < 5; ++i) {
        batch.emplace_back(
            static_cast<VertexId>(rng.next_below(64)),
            static_cast<VertexId>(rng.next_below(64)));
      }
    }
    return batches;
  };
  sim::faults().set_enabled(false);
  DynamicBc reference(g, opt);
  reference.compute();
  const PipelineResult clean =
      reference.insert_edge_batches(make_batches());
  const std::vector<double> expected(reference.scores().begin(),
                                     reference.scores().end());

  sim::FaultPlan plan;
  plan.seed = 0xC0FFEE;
  plan.transfer_fail_rate = 0.3;
  plan.stall_rate = 0.5;
  FaultScope scope(plan);
  DynamicBc faulty(g, opt);
  faulty.compute();
  const PipelineResult result =
      faulty.insert_edge_batches(make_batches());
  expect_bit_identical(faulty.scores(), expected, "pipelined scores");
  EXPECT_EQ(result.total.inserted, clean.total.inserted);
  EXPECT_GT(sim::faults().injected(sim::FaultKind::kStreamStall), 0u);
  // Stalls and retried transfers only push the modeled schedule out.
  EXPECT_GE(result.modeled_seconds, clean.modeled_seconds);
}

TEST(Chaos, DisabledInjectorLeavesMetricsUntouched) {
  const CSRGraph g = test::gnp_graph(40, 0.12, 7);
  const auto run_metrics = [&](bool enabled_at_zero) {
    trace::metrics().reset();
    sim::FaultPlan plan = sim::FaultPlan::uniform(1, 0.0);
    if (enabled_at_zero) {
      sim::faults().configure(plan);
      sim::faults().set_enabled(true);
    } else {
      sim::faults().set_enabled(false);
    }
    DynamicBc analytic(g, gpu_options(2, {}));
    analytic.compute();
    BCDYN_SEEDED_RNG(rng, 55);
    for (int i = 0; i < 4; ++i) {
      const auto [u, v] = test::random_absent_edge(analytic.graph(), rng);
      analytic.insert_edge(u, v);
    }
    sim::faults().set_enabled(false);
    std::ostringstream json;
    trace::metrics().write_json(json);
    return json.str();
  };
  const std::string plain = run_metrics(false);
  const std::string armed = run_metrics(true);
  EXPECT_EQ(plain, armed)
      << "injector enabled at rate 0 perturbed the metrics registry";
}

}  // namespace
}  // namespace bcdyn
