// The shadow-memory hazard detector (sim::HazardDetector): deliberately
// racy fixtures must flag with full attribution (kernel, launch, block,
// round, both items and access kinds), every documented exemption (same
// item, distinct addresses, cross-round, barrier-separated, atomics) must
// stay quiet, strict mode must throw HazardError, and - the payoff - every
// shipped kernel must run hazard-clean across the generator suite on the
// static, dynamic, batch, and sharded multi-device paths.
//
// Built as its own executable (bcdyn_hazard_tests, ctest label "hazard")
// because the detector is per-thread state that must never be enabled
// under the main suite's timing assertions.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/brandes.hpp"
#include "bc/dynamic_bc.hpp"
#include "bc/dynamic_gpu.hpp"
#include "gen/suite.hpp"
#include "gpusim/block_context.hpp"
#include "gpusim/device.hpp"
#include "gpusim/hazard_detector.hpp"
#include "test_helpers.hpp"

namespace bcdyn {
namespace {

using sim::BlockContext;
using sim::HazardAccess;

sim::DeviceSpec tiny_spec(int threads = 8) {
  sim::DeviceSpec s;
  s.name = "tiny";
  s.num_sms = 1;
  s.threads_per_block = threads;
  s.clock_ghz = 1.0;
  return s;
}

// ---------------------------------------------------------------------
// Racy fixtures: the detector must fire, with full attribution.
// ---------------------------------------------------------------------

TEST(HazardDetector, WriteWriteSameRoundFlagsWithFullAttribution) {
  test::HazardScope scope;
  sim::Device dev(tiny_spec());
  std::vector<int> cell(1, 0);
  dev.launch(
      1,
      [&](BlockContext& ctx) {
        ctx.parallel_for(2, [&](std::size_t) { ctx.charge_write(cell, 0); });
      },
      "ww_racy");

  auto& hz = sim::hazards();
  EXPECT_EQ(hz.launches_checked(), 1u);
  EXPECT_EQ(hz.violations(), 1u);
  ASSERT_EQ(hz.records().size(), 1u);
  const auto rec = hz.records()[0];
  EXPECT_EQ(rec.kernel, "ww_racy");
  EXPECT_GE(rec.launch, 0);
  EXPECT_EQ(rec.block, 0);
  EXPECT_EQ(rec.round, 0u);
  EXPECT_EQ(rec.first_item, 0u);
  EXPECT_EQ(rec.second_item, 1u);
  EXPECT_EQ(rec.first_kind, HazardAccess::kWrite);
  EXPECT_EQ(rec.second_kind, HazardAccess::kWrite);
  EXPECT_NE(rec.address, 0u);
  EXPECT_NE(rec.to_string().find("ww_racy"), std::string::npos);
  EXPECT_NE(rec.to_string().find("write-write"), std::string::npos);
}

TEST(HazardDetector, ReadThenWriteAndWriteThenReadBothFlag) {
  test::HazardScope scope;
  sim::Device dev(tiny_spec());
  std::vector<int> cell(1, 0);
  dev.launch(
      1,
      [&](BlockContext& ctx) {
        ctx.parallel_for(2, [&](std::size_t i) {
          if (i == 0) ctx.charge_read(cell, 0);
          if (i == 1) ctx.charge_write(cell, 0);
        });
      },
      "read_then_write");
  ASSERT_EQ(sim::hazards().violations(), 1u);
  EXPECT_EQ(sim::hazards().records()[0].first_kind, HazardAccess::kRead);
  EXPECT_EQ(sim::hazards().records()[0].second_kind, HazardAccess::kWrite);

  dev.launch(
      1,
      [&](BlockContext& ctx) {
        ctx.parallel_for(2, [&](std::size_t i) {
          if (i == 0) ctx.charge_write(cell, 0);
          if (i == 1) ctx.charge_read(cell, 0);
        });
      },
      "write_then_read");
  ASSERT_EQ(sim::hazards().violations(), 2u);
  EXPECT_EQ(sim::hazards().records()[1].first_kind, HazardAccess::kWrite);
  EXPECT_EQ(sim::hazards().records()[1].second_kind, HazardAccess::kRead);
}

TEST(HazardDetector, AtomicVersusPlainWriteFlagsEitherOrder) {
  test::HazardScope scope;
  sim::Device dev(tiny_spec());
  std::vector<int> cell(1, 0);
  // Atomic first, plain write second...
  dev.launch(1, [&](BlockContext& ctx) {
    ctx.parallel_for(2, [&](std::size_t i) {
      if (i == 0) ctx.charge_atomic(cell, 0);
      if (i == 1) ctx.charge_write(cell, 0);
    });
  });
  ASSERT_EQ(sim::hazards().violations(), 1u);
  EXPECT_EQ(sim::hazards().records()[0].first_kind, HazardAccess::kAtomic);
  EXPECT_EQ(sim::hazards().records()[0].second_kind, HazardAccess::kWrite);
  // ...and plain write first, atomic second.
  dev.launch(1, [&](BlockContext& ctx) {
    ctx.parallel_for(2, [&](std::size_t i) {
      if (i == 0) ctx.charge_write(cell, 0);
      if (i == 1) ctx.charge_atomic(cell, 0);
    });
  });
  EXPECT_EQ(sim::hazards().violations(), 2u);
}

TEST(HazardDetector, SpanningReadOverlapsSingleElementWrite) {
  test::HazardScope scope;
  sim::Device dev(tiny_spec());
  std::vector<int> arr(4, 0);
  // Item 0 writes arr[1]; item 1 reads arr[0..3). The k-element read is
  // tracked per element, so the overlap at arr[1] must flag.
  dev.launch(1, [&](BlockContext& ctx) {
    ctx.parallel_for(2, [&](std::size_t i) {
      if (i == 0) ctx.charge_write(arr, 1);
      if (i == 1) ctx.charge_read(arr, 0, 3);
    });
  });
  EXPECT_EQ(sim::hazards().violations(), 1u);
}

TEST(HazardDetector, StrictModeThrowsAfterRecordingTheViolation) {
  test::HazardScope scope(/*strict=*/true);
  sim::Device dev(tiny_spec());
  std::vector<int> cell(1, 0);
  bool threw = false;
  try {
    dev.launch(
        1,
        [&](BlockContext& ctx) {
          ctx.parallel_for(4, [&](std::size_t) { ctx.charge_write(cell, 0); });
        },
        "strict_racy");
  } catch (const sim::HazardError& e) {
    threw = true;
    EXPECT_EQ(e.record().kernel, "strict_racy");
    EXPECT_NE(std::string(e.what()).find("strict_racy"), std::string::npos);
  }
  EXPECT_TRUE(threw);
  // The throw happens after the journal is folded in: counters and records
  // survive for post-mortem inspection.
  EXPECT_EQ(sim::hazards().violations(), 1u);
  EXPECT_EQ(sim::hazards().records().size(), 1u);
}

TEST(HazardDetector, RecordListCapsButViolationCountDoesNot) {
  test::HazardScope scope;
  sim::Device dev(tiny_spec(/*threads=*/512));
  std::vector<int> cells(100, 0);
  // One round of 200 items, each address written twice: 100 violations,
  // but the record list stays bounded at kMaxRecords.
  dev.launch(1, [&](BlockContext& ctx) {
    ctx.parallel_for(200,
                     [&](std::size_t i) { ctx.charge_write(cells, i % 100); });
  });
  EXPECT_EQ(sim::hazards().violations(), 100u);
  EXPECT_EQ(sim::hazards().records().size(), sim::HazardDetector::kMaxRecords);
}

// ---------------------------------------------------------------------
// Exemptions: patterns that are safe on hardware must not flag.
// ---------------------------------------------------------------------

TEST(HazardDetector, SameItemAndDistinctAddressesNeverFlag) {
  test::HazardScope scope;
  sim::Device dev(tiny_spec());
  std::vector<int> arr(8, 0);
  dev.launch(1, [&](BlockContext& ctx) {
    ctx.parallel_for(8, [&](std::size_t i) {
      ctx.charge_read(arr, i);   // own slot, repeatedly
      ctx.charge_write(arr, i);
      ctx.charge_write(arr, i);
    });
  });
  EXPECT_EQ(sim::hazards().violations(), 0u);
  EXPECT_EQ(sim::hazards().tracked_accesses(), 24u);
}

TEST(HazardDetector, CrossRoundAccessesNeverFlag) {
  test::HazardScope scope;
  // One thread per block: every item is its own round, so the two writes
  // to cell 0 are program-ordered, not concurrent.
  sim::Device dev(tiny_spec(/*threads=*/1));
  std::vector<int> cell(1, 0);
  dev.launch(1, [&](BlockContext& ctx) {
    ctx.parallel_for(2, [&](std::size_t) { ctx.charge_write(cell, 0); });
  });
  EXPECT_EQ(sim::hazards().violations(), 0u);
  EXPECT_EQ(sim::hazards().tracked_accesses(), 2u);
}

TEST(HazardDetector, BarrierSeparatesProducerFromConsumer) {
  test::HazardScope scope;
  sim::Device dev(tiny_spec());
  std::vector<int> cell(1, 0);
  // Without the barrier this is the read_then_write fixture above. With a
  // __syncthreads() between the producer's write and the consumer's read,
  // the accesses are phase-ordered and must not flag.
  dev.launch(1, [&](BlockContext& ctx) {
    ctx.parallel_for(2, [&](std::size_t i) {
      if (i == 0) ctx.charge_write(cell, 0);
      ctx.barrier();
      if (i == 1) ctx.charge_read(cell, 0);
    });
  });
  EXPECT_EQ(sim::hazards().violations(), 0u);
}

TEST(HazardDetector, AtomicsAreExemptFromEachOtherAndFromReads) {
  test::HazardScope scope;
  sim::Device dev(tiny_spec());
  std::vector<int> cell(1, 0);
  dev.launch(1, [&](BlockContext& ctx) {
    // Every item atomically bumps the same counter - the whole point of
    // atomics - and half of them also read it (e.g. a CAS retry loop
    // peeking first). Neither combination is a data race.
    ctx.parallel_for(8, [&](std::size_t i) {
      if (i % 2 == 0) ctx.charge_read(cell, 0);
      ctx.charge_atomic(cell, 0);
    });
  });
  EXPECT_EQ(sim::hazards().violations(), 0u);
}

TEST(HazardDetector, UnaddressedChargesCountAsUntracked) {
  test::HazardScope scope;
  sim::Device dev(tiny_spec());
  std::vector<int> arr(2, 0);
  dev.launch(1, [&](BlockContext& ctx) {
    ctx.parallel_for(2, [&](std::size_t i) {
      ctx.charge_read(arr, i);         // tracked
      ctx.charge_read(1);              // untracked structural read
      ctx.charge_atomic_aggregated();  // untracked queue-tail atomic
      ctx.charge_atomic(0);            // untracked legacy-keyed atomic
    });
  });
  EXPECT_EQ(sim::hazards().tracked_accesses(), 2u);
  EXPECT_EQ(sim::hazards().untracked_accesses(), 6u);
  EXPECT_EQ(sim::hazards().violations(), 0u);
}

// ---------------------------------------------------------------------
// Detector off: no shadow state, and identical modeled cost either way.
// ---------------------------------------------------------------------

TEST(HazardDetector, DisabledDetectorAllocatesNoShadowState) {
  ASSERT_FALSE(sim::hazards().enabled());
  const auto spec = tiny_spec();
  const sim::CostModel cm;
  BlockContext ctx(spec, cm, 0);
  EXPECT_EQ(ctx.hazard_state(), nullptr);
}

TEST(HazardDetector, DetectionDoesNotChangeModeledCycles) {
  const auto spec = tiny_spec();
  const sim::CostModel cm;
  std::vector<int> arr(8, 0);
  const auto run = [&](std::uint64_t* violations) {
    BlockContext ctx(spec, cm, 0, /*track_atomic_conflicts=*/true);
    ctx.parallel_for(16, [&](std::size_t i) {
      ctx.charge_instr(2);
      ctx.charge_read(arr, i % 8);
      ctx.charge_write(arr, i % 8);  // races on purpose; cost must not care
      ctx.charge_atomic(arr, 0);
      ctx.charge_read(3);
    });
    if (violations != nullptr && ctx.hazard_state() != nullptr) {
      *violations = ctx.hazard_state()->violations;
    }
    return ctx.cycles();
  };
  const double off = run(nullptr);
  double on = 0.0;
  std::uint64_t violations = 0;
  {
    test::HazardScope scope;  // non-strict: flags but never throws
    on = run(&violations);
  }
  EXPECT_GT(violations, 0u);
  EXPECT_EQ(off, on);  // bit-identical, not just close
}

// ---------------------------------------------------------------------
// The payoff: every shipped kernel runs hazard-clean over the gen suite.
// Strict mode turns any future racy charge into a thrown HazardError with
// the offending kernel/round/items in the message.
// ---------------------------------------------------------------------

constexpr double kScale = 0.005;  // suite minimums kick in: ~256 vertices

/// An edge (p, c) that is c's only shortest-path parent in the row `d`
/// (removing it grows c's distance), or kNoVertex when there is none.
std::pair<VertexId, VertexId> sole_parent_edge(const CSRGraph& g,
                                               std::span<const Dist> d) {
  for (VertexId c = 0; c < g.num_vertices(); ++c) {
    const Dist dc = d[static_cast<std::size_t>(c)];
    if (dc == 0 || dc == kInfDist) continue;
    VertexId parent = kNoVertex;
    int parents = 0;
    for (const VertexId x : g.neighbors(c)) {
      if (d[static_cast<std::size_t>(x)] + 1 == dc) {
        parent = x;
        ++parents;
      }
    }
    if (parents == 1) return {parent, c};
  }
  return {kNoVertex, kNoVertex};
}

class HazardCleanSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(HazardCleanSweep, StaticKernelsRunClean) {
  test::HazardScope scope(/*strict=*/true);
  const auto entry = gen::build_suite_graph(GetParam(), kScale, 5);
  const ApproxConfig cfg{.num_sources = 6, .seed = 3};
  for (Parallelism mode : {Parallelism::kEdge, Parallelism::kNode}) {
    BcStore store(entry.graph.num_vertices(), cfg);
    DynamicGpuBc engine(sim::DeviceSpec::tesla_c2075(), mode);
    engine.compute(entry.graph, store);
  }
  EXPECT_EQ(sim::hazards().violations(), 0u);
  EXPECT_GT(sim::hazards().tracked_accesses(), 0u);
}

TEST_P(HazardCleanSweep, DynamicInsertAndRemoveRunClean) {
  test::HazardScope scope(/*strict=*/true);
  const auto entry = gen::build_suite_graph(GetParam(), kScale, 5);
  CSRGraph g = entry.graph;
  const ApproxConfig cfg{.num_sources = 6, .seed = 3};

  BcStore edge_store(g.num_vertices(), cfg);
  BcStore node_store(g.num_vertices(), cfg);
  brandes_all(g, edge_store);
  brandes_all(g, node_store);
  DynamicGpuBc edge_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge);
  DynamicGpuBc node_engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kNode);

  BCDYN_SEEDED_RNG(rng, 41);
  std::vector<std::pair<VertexId, VertexId>> inserted;
  for (int step = 0; step < 6; ++step) {
    const auto [u, v] = test::random_absent_edge(g, rng);
    if (u == kNoVertex) break;
    g = g.with_edge(u, v);
    edge_engine.edge_update(/*removal=*/false, g, edge_store, u, v);
    node_engine.edge_update(/*removal=*/false, g, node_store, u, v);
    inserted.emplace_back(u, v);
  }
  ASSERT_FALSE(inserted.empty());
  // Remove every insertion again, oldest first (undoing a shortcut grows
  // distances), then three edges that are some source's only path into a
  // vertex: this drives the decremental Case 2 kernels and, for sure, the
  // distance-growing Case 3 repair on both mappings.
  int case3_edge = 0;
  int case3_node = 0;
  const auto count_case3 = [](const GpuUpdateResult& r) {
    int far = 0;
    for (const SourceUpdateOutcome& o : r.outcomes) {
      if (o.update_case == UpdateCase::kFar) ++far;
    }
    return far;
  };
  const auto remove = [&](VertexId u, VertexId v) {
    g = g.without_edge(u, v);
    case3_edge +=
        count_case3(edge_engine.edge_update(/*removal=*/true, g,
                                            edge_store, u, v));
    case3_node +=
        count_case3(node_engine.edge_update(/*removal=*/true, g,
                                            node_store, u, v));
  };
  for (const auto& [u, v] : inserted) remove(u, v);
  for (int cut = 0; cut < 3; ++cut) {
    const auto [p, c] = sole_parent_edge(g, edge_store.dist_row(cut));
    if (p == kNoVertex) break;
    remove(p, c);
  }
  EXPECT_GT(case3_edge, 0) << "edge-parallel Case 3 removal never ran";
  EXPECT_GT(case3_node, 0) << "node-parallel Case 3 removal never ran";
  EXPECT_EQ(sim::hazards().violations(), 0u);
  EXPECT_GT(sim::hazards().tracked_accesses(), 0u);
}

TEST_P(HazardCleanSweep, BatchPathRunsClean) {
  test::HazardScope scope(/*strict=*/true);
  const auto entry = gen::build_suite_graph(GetParam(), kScale, 5);
  CSRGraph g = entry.graph;
  const ApproxConfig cfg{.num_sources = 6, .seed = 3};
  BcStore store(g.num_vertices(), cfg);
  brandes_all(g, store);
  DynamicGpuBc engine(sim::DeviceSpec::tesla_c2075(), Parallelism::kEdge);

  BCDYN_SEEDED_RNG(rng, 43);
  // Two flushes, one per threshold regime: incremental and the recompute
  // fallback both have to come out clean.
  for (const double threshold : {0.25, 0.02}) {
    const CSRGraph base = g;
    std::vector<std::pair<VertexId, VertexId>> pending;
    for (int i = 0; i < 5; ++i) {
      const auto [u, v] = test::random_absent_edge(g, rng);
      if (u == kNoVertex) break;
      g = g.with_edge(u, v);
      pending.emplace_back(u, v);
    }
    ASSERT_FALSE(pending.empty());
    engine.insert_edge_batch(build_batch_snapshots(base, pending), store,
                             threshold);
  }
  EXPECT_EQ(sim::hazards().violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Suite, HazardCleanSweep,
                         ::testing::ValuesIn(gen::suite_names()),
                         [](const auto& info) { return info.param; });

TEST(HazardCleanSweepExtra, ShardedMultiDeviceRunsClean) {
  test::HazardScope scope(/*strict=*/true);
  const auto entry = gen::build_suite_graph("small", 0.25, 7);
  DynamicBc bc(entry.graph, {.engine = EngineKind::kGpuEdge,
                             .approx = {.num_sources = 8, .seed = 2},
                             .num_devices = 2});
  bc.compute();
  BCDYN_SEEDED_RNG(rng, 47);
  const VertexId n = entry.graph.num_vertices();
  for (int i = 0; i < 4; ++i) {
    bc.insert_edge(
        static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n))),
        static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n))));
  }
  EXPECT_EQ(sim::hazards().violations(), 0u);
  EXPECT_GT(sim::hazards().launches_checked(), 0u);
}

}  // namespace
}  // namespace bcdyn
