// The GPU execution-model simulator: block context charging, round
// accounting, scheduling makespan, and device launch semantics.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/block_context.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/hazard_detector.hpp"

namespace bcdyn::sim {
namespace {

DeviceSpec tiny_spec(int sms = 2, int threads = 4) {
  DeviceSpec s;
  s.name = "tiny";
  s.num_sms = sms;
  s.threads_per_block = threads;
  s.clock_ghz = 1.0;
  return s;
}

TEST(BlockContext, RoundCountMatchesCeilDivision) {
  const CostModel cm;
  const auto spec = tiny_spec(1, 4);
  BlockContext ctx(spec, cm, 0);
  ctx.parallel_for(10, [&](std::size_t) {});
  // 10 items over 4 threads = 3 rounds (4+4+2).
  EXPECT_EQ(ctx.counters().rounds, 3u);
  EXPECT_EQ(ctx.counters().items, 10u);
  EXPECT_EQ(ctx.counters().barriers, 1u);  // implicit trailing barrier
}

TEST(BlockContext, EmptyLoopStillCostsARoundAndBarrier) {
  const CostModel cm;
  const auto spec = tiny_spec();
  BlockContext ctx(spec, cm, 0);
  ctx.parallel_for(0, [&](std::size_t) { FAIL() << "must not run"; });
  EXPECT_EQ(ctx.counters().rounds, 1u);
  EXPECT_EQ(ctx.counters().items, 0u);
  EXPECT_EQ(ctx.counters().barriers, 1u);
  // The exact cost of an empty launch, pinned deliberately: every thread
  // still issues the zero-trip bounds check of its grid-stride loop (one
  // round of issue overhead) and joins the trailing __syncthreads(). An
  // empty launch is not free on hardware either - this is intended
  // behaviour, not an accounting bug.
  EXPECT_DOUBLE_EQ(ctx.cycles(), cm.round_issue_cycles + cm.barrier_cycles);
}

TEST(BlockContext, RoundCostIsMaxOfItemCosts) {
  CostModel cm;
  cm.round_issue_cycles = 0.0;
  cm.barrier_cycles = 0.0;
  cm.global_read_cycles = 10.0;
  cm.read_throughput_cycles = 0.0;
  const auto spec = tiny_spec(1, 4);
  // One round of 4 items; one item does 5 reads, others 1: cost = 50, not 80.
  BlockContext ctx(spec, cm, 0);
  ctx.parallel_for(4, [&](std::size_t i) { ctx.charge_read(i == 2 ? 5 : 1); });
  EXPECT_DOUBLE_EQ(ctx.cycles(), 50.0);
  EXPECT_EQ(ctx.counters().global_reads, 8u);
}

TEST(BlockContext, DivergenceAcrossRoundsAccumulates) {
  CostModel cm;
  cm.round_issue_cycles = 1.0;
  cm.barrier_cycles = 0.0;
  cm.instr_cycles = 1.0;
  cm.read_throughput_cycles = 0.0;
  const auto spec = tiny_spec(1, 2);
  BlockContext ctx(spec, cm, 0);
  // Items costs: round0 {3, 1} -> 3, round1 {2, 7} -> 7. Total 2+3+7 = 12.
  const int costs[] = {3, 1, 2, 7};
  ctx.parallel_for(4, [&](std::size_t i) {
    ctx.charge_instr(static_cast<std::size_t>(costs[i]));
  });
  EXPECT_DOUBLE_EQ(ctx.cycles(), 12.0);
}

TEST(BlockContext, AtomicConflictTrackingDetectsSameAddress) {
  CostModel cm;
  const auto spec = tiny_spec(1, 8);
  BlockContext tracked(spec, cm, 0, /*track_atomic_conflicts=*/true);
  tracked.parallel_for(8, [&](std::size_t) { tracked.charge_atomic(42); });
  EXPECT_EQ(tracked.counters().atomic_conflicts, 7u);

  BlockContext spread(spec, cm, 0, true);
  spread.parallel_for(8, [&](std::size_t i) { spread.charge_atomic(i); });
  EXPECT_EQ(spread.counters().atomic_conflicts, 0u);

  // Conflict window resets at round boundaries.
  const auto narrow = tiny_spec(1, 2);
  BlockContext rounds(narrow, cm, 0, true);
  rounds.parallel_for(4, [&](std::size_t) { rounds.charge_atomic(7); });
  EXPECT_EQ(rounds.counters().atomic_conflicts, 2u);  // one per round
}

TEST(BlockContext, ThroughputTermChargesAggregateRoundTraffic) {
  CostModel cm;
  cm.round_issue_cycles = 0.0;
  cm.barrier_cycles = 0.0;
  cm.global_read_cycles = 0.0;  // isolate the throughput term
  cm.read_throughput_cycles = 0.5;
  const auto spec = tiny_spec(1, 4);
  BlockContext ctx(spec, cm, 0);
  ctx.parallel_for(4, [&](std::size_t) { ctx.charge_read(10); });
  // 40 reads in one round at 0.5 cycles each.
  EXPECT_DOUBLE_EQ(ctx.cycles(), 20.0);
}

// --- parallel_for_live: the sparse host path of the same SIMT loop -------

/// Every modeled counter, compared exactly (cycles included); host_items
/// is the one field the two loops may disagree on.
void expect_same_model(const BlockCounters& got, const BlockCounters& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.items, want.items);
  EXPECT_EQ(got.instrs, want.instrs);
  EXPECT_EQ(got.global_reads, want.global_reads);
  EXPECT_EQ(got.global_writes, want.global_writes);
  EXPECT_EQ(got.atomics, want.atomics);
  EXPECT_EQ(got.atomic_conflicts, want.atomic_conflicts);
  EXPECT_EQ(got.barriers, want.barriers);
  EXPECT_EQ(got.cycles, want.cycles);  // bit for bit, not DOUBLE_EQ
}

/// A body with one uniform early exit: non-live items charge two instrs and
/// a read, then leave. Live items diverge by index and hit a few shared
/// atomic addresses, so rounds, maxima and conflict windows all matter.
auto live_body(BlockContext& ctx, const std::vector<char>& live,
               std::vector<std::size_t>& ran) {
  return [&ctx, &live, &ran](std::size_t i) {
    ctx.charge_instr(2);
    ctx.charge_read(1);
    if (live[i] == 0) return;
    ran.push_back(i);
    ctx.charge_read(1 + i % 3);
    ctx.charge_write(i % 2);
    ctx.charge_atomic(i % 5 == 0 ? 7 : i % 3);
    if (i % 4 == 1) ctx.charge_atomic_aggregated();
  };
}

TEST(BlockContext, LiveLoopChargesExactlyWhatTheFullLoopCharges) {
  const CostModel cm;
  DeviceSpec spec = tiny_spec(1, 8);
  spec.warp_size = 4;  // two warps per round
  // n = 0, n < T, n = kT and n = kT + r; live sets that are empty, full,
  // or sit on round (8, 16) and warp (4, 12) boundaries.
  const std::vector<std::vector<std::size_t>> patterns = {
      {},
      {0},
      {3, 4},
      {7, 8},
      {4, 5, 6, 12, 15, 16},
      {0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18},
      {15, 16, 17, 18},
      {2, 6, 10, 14, 18}};
  for (const std::size_t n : {0u, 3u, 8u, 16u, 19u}) {
    std::vector<std::vector<std::size_t>> sets;
    for (const auto& pattern : patterns) {
      std::vector<std::size_t> items;
      for (std::size_t i : pattern) {
        if (i < n) items.push_back(i);
      }
      sets.push_back(items);
    }
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    sets.push_back(all);
    for (const bool tracking : {false, true}) {
      for (const auto& items : sets) {
        SCOPED_TRACE("n=" + std::to_string(n) + " live=" +
                     std::to_string(items.size()) +
                     (tracking ? " tracked" : " untracked"));
        std::vector<char> live(n, 0);
        for (std::size_t i : items) live[i] = 1;
        BlockContext full(spec, cm, 0, tracking);
        BlockContext sparse(spec, cm, 0, tracking);
        std::vector<std::size_t> ran_full;
        std::vector<std::size_t> ran_sparse;
        // An atomic outside any item stays in the first warp's window in
        // both loops; the second loop checks the state each one leaves.
        for (BlockContext* ctx : {&full, &sparse}) ctx->charge_atomic(7);
        for (int loop = 0; loop < 2; ++loop) {
          full.parallel_for(n, live_body(full, live, ran_full));
          sparse.parallel_for_live(
              n,
              [&](auto&& visit) {
                for (std::size_t i : items) visit(i, i + 1);
              },
              live_body(sparse, live, ran_sparse));
        }
        expect_same_model(sparse.counters(), full.counters());
        EXPECT_EQ(ran_sparse, ran_full);
        EXPECT_EQ(full.counters().host_items, full.counters().items);
        // Live items plus one probe of the uniform exit per loop that has
        // a non-live item.
        const std::size_t probes = items.size() < n ? 2 : 0;
        EXPECT_EQ(sparse.counters().host_items, 2 * items.size() + probes);
      }
    }
  }
}

TEST(BlockContext, LiveLoopAcceptsAdjacentRangesAndLiveItemsThatExitEarly) {
  const CostModel cm;
  const auto spec = tiny_spec(1, 4);
  // Items 2..9 are listed live in three touching ranges, but only 5 and 6
  // get past the uniform exit; the rest must still cost the same.
  std::vector<char> live(12, 0);
  live[5] = live[6] = 1;
  std::vector<std::size_t> ran_full;
  std::vector<std::size_t> ran_sparse;
  BlockContext full(spec, cm, 0, true);
  BlockContext sparse(spec, cm, 0, true);
  full.parallel_for(12, live_body(full, live, ran_full));
  sparse.parallel_for_live(
      12,
      [](auto&& visit) {
        visit(2, 4);
        visit(4, 6);
        visit(6, 10);
      },
      live_body(sparse, live, ran_sparse));
  expect_same_model(sparse.counters(), full.counters());
  EXPECT_EQ(ran_sparse, ran_full);
  EXPECT_EQ(sparse.counters().host_items, 9u);  // 8 listed + 1 probe
}

TEST(BlockContext, LiveLoopRejectsAtomicsInTheUniformExit) {
  const CostModel cm;
  const auto spec = tiny_spec(1, 4);
  BlockContext ctx(spec, cm, 0);
  EXPECT_THROW(ctx.parallel_for_live(
                   8, [](auto&& visit) { visit(0, 1); },
                   [&](std::size_t) { ctx.charge_atomic(1); }),
               std::logic_error);
}

TEST(BlockContext, LiveLoopRunsEveryItemUnderTheHazardShadow) {
  const CostModel cm;
  const auto spec = tiny_spec(1, 4);
  const bool was_enabled = hazards().enabled();
  hazards().set_enabled(true);
  BlockContext ctx(spec, cm, 0);
  hazards().set_enabled(was_enabled);
  std::size_t bodies = 0;
  ctx.parallel_for_live(
      10, [](auto&& visit) { visit(3, 4); }, [&](std::size_t) { ++bodies; });
  EXPECT_EQ(bodies, 10u);
  EXPECT_EQ(ctx.counters().host_items, 10u);
  EXPECT_EQ(ctx.counters().items, 10u);
}

/// The greedy schedule's makespan (gpusim/device.hpp).
double makespan(const std::vector<double>& blocks, int num_sms,
                double dispatch_cycles) {
  return schedule_blocks(blocks, num_sms, dispatch_cycles).makespan_cycles;
}

TEST(ScheduleMakespan, PerfectDivisionIsFlat) {
  // 4 equal blocks on 2 SMs: makespan = 2 blocks' worth per SM.
  const std::vector<double> blocks(4, 100.0);
  EXPECT_DOUBLE_EQ(makespan(blocks, 2, 0.0), 200.0);
  EXPECT_DOUBLE_EQ(makespan(blocks, 4, 0.0), 100.0);
  // More SMs than blocks doesn't help further.
  EXPECT_DOUBLE_EQ(makespan(blocks, 8, 0.0), 100.0);
}

TEST(ScheduleMakespan, GreedyBalancesUnevenBlocks) {
  const std::vector<double> blocks = {100, 10, 10, 10, 10, 10};
  // Greedy: SM0 takes 100; SM1 takes the five 10s = 50. Makespan 100.
  EXPECT_DOUBLE_EQ(makespan(blocks, 2, 0.0), 100.0);
}

TEST(ScheduleMakespan, DispatchOverheadCharged) {
  const std::vector<double> blocks = {5.0, 5.0};
  EXPECT_DOUBLE_EQ(makespan(blocks, 1, 2.0), 14.0);
}

TEST(Device, LaunchAggregatesBlockCounters) {
  Device dev(tiny_spec(2, 4));
  const auto stats = dev.launch(3, [](BlockContext& ctx) {
    ctx.parallel_for(4, [&](std::size_t) { ctx.charge_read(1); });
  });
  EXPECT_EQ(stats.num_blocks, 3);
  EXPECT_EQ(stats.total.global_reads, 12u);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GT(stats.makespan_cycles, 0.0);
}

TEST(Device, BlockIdsCoverRange) {
  Device dev(tiny_spec(2, 4));
  std::vector<int> seen(5, 0);
  dev.launch(5, [&](BlockContext& ctx) { seen[static_cast<std::size_t>(ctx.block_id())]++; });
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Device, AccumulatedStatsSumLaunches) {
  Device dev(tiny_spec());
  const auto kernel = [](BlockContext& ctx) {
    ctx.parallel_for(8, [&](std::size_t) { ctx.charge_write(1); });
  };
  dev.launch(2, kernel);
  dev.launch(2, kernel);
  EXPECT_EQ(dev.accumulated().total.global_writes, 32u);
  dev.reset_accumulated();
  EXPECT_EQ(dev.accumulated().total.global_writes, 0u);
}

TEST(KernelStats, SequentialCompositionSumsAndMaxes) {
  KernelStats a;
  a.num_blocks = 3;
  a.launches = 1;
  a.makespan_cycles = 100.0;
  a.seconds = 0.5;
  a.max_block_cycles = 40.0;
  a.total.global_reads = 7;
  KernelStats b;
  b.num_blocks = 5;
  b.launches = 2;
  b.makespan_cycles = 50.0;
  b.seconds = 0.25;
  b.max_block_cycles = 90.0;
  b.total.global_reads = 3;

  a += b;
  EXPECT_EQ(a.num_blocks, 8);        // blocks sum across launches
  EXPECT_EQ(a.launches, 3);
  EXPECT_DOUBLE_EQ(a.makespan_cycles, 150.0);
  EXPECT_DOUBLE_EQ(a.seconds, 0.75);
  EXPECT_DOUBLE_EQ(a.max_block_cycles, 90.0);  // max-of-max, not a sum
  EXPECT_EQ(a.total.global_reads, 10u);

  const std::string s = a.to_string();
  EXPECT_NE(s.find("launches=3"), std::string::npos);
  EXPECT_NE(s.find("blocks=8"), std::string::npos);
}

TEST(KernelStats, DeviceAccumulationMatchesManualComposition) {
  Device dev(tiny_spec(2, 4));
  KernelStats manual = dev.launch(2, [](BlockContext& ctx) {
    ctx.parallel_for(4, [&](std::size_t) { ctx.charge_read(1); });
  });
  manual += dev.launch(3, [](BlockContext& ctx) {
    ctx.parallel_for(16, [&](std::size_t) { ctx.charge_write(2); });
  });
  EXPECT_EQ(dev.accumulated().num_blocks, 5);
  EXPECT_EQ(dev.accumulated().launches, 2);
  EXPECT_DOUBLE_EQ(dev.accumulated().max_block_cycles,
                   manual.max_block_cycles);
  EXPECT_DOUBLE_EQ(dev.accumulated().makespan_cycles,
                   manual.makespan_cycles);
  EXPECT_EQ(dev.accumulated().total.global_writes,
            manual.total.global_writes);
}

TEST(Device, LaunchQueueAggregatesAndReportsPerJobStats) {
  Device dev(tiny_spec(2, 4));
  std::vector<BlockCounters> per_job;
  const auto stats = dev.launch_queue(
      5,
      [](BlockContext& ctx, int job) {
        ctx.parallel_for(static_cast<std::size_t>(job) + 1,
                         [&](std::size_t) { ctx.charge_read(1); });
      },
      &per_job);
  // Lanes = min(num_sms, num_jobs) = 2 persistent blocks.
  EXPECT_EQ(stats.num_blocks, 2);
  ASSERT_EQ(per_job.size(), 5u);
  std::uint64_t reads = 0;
  double cycles = 0.0;
  for (int j = 0; j < 5; ++j) {
    EXPECT_EQ(per_job[static_cast<std::size_t>(j)].global_reads,
              static_cast<std::uint64_t>(j) + 1);
    reads += per_job[static_cast<std::size_t>(j)].global_reads;
    cycles += per_job[static_cast<std::size_t>(j)].cycles;
  }
  EXPECT_EQ(stats.total.global_reads, reads);
  EXPECT_DOUBLE_EQ(stats.total.cycles, cycles);
  EXPECT_GT(stats.makespan_cycles, 0.0);
}

TEST(Device, LaunchQueuePaysOneLaunchOverhead) {
  CostModel cm;
  const auto noop = [](BlockContext&, int) {};
  Device dev(tiny_spec(2, 4), cm);
  const auto one = dev.launch_queue(1, noop);
  const auto many = dev.launch_queue(8, noop);
  // Zero-cost jobs: makespan is launch + dispatch (+ per-job pops), so 8
  // jobs through one queue launch cost far less than 8 separate launches.
  EXPECT_LT(many.makespan_cycles, 8.0 * one.makespan_cycles);
  EXPECT_GE(many.makespan_cycles,
            cm.kernel_launch_cycles + cm.block_dispatch_cycles);
}

TEST(Device, LaunchQueueBeatsPerJobLaunchesOnImbalancedJobs) {
  // 4 jobs on 2 SMs: one heavy job plus three light ones. One queue launch
  // pays the kernel-launch overhead once and overlaps the light jobs with
  // the heavy one; per-job launches pay the overhead four times and never
  // overlap jobs.
  const auto work = [](BlockContext& ctx, int job) {
    const std::size_t items = job == 0 ? 300 : 10;
    ctx.parallel_for(items, [&](std::size_t) { ctx.charge_read(1); });
  };
  Device queue_dev(tiny_spec(2, 4));
  const auto queued = queue_dev.launch_queue(4, work);
  Device launch_dev(tiny_spec(2, 4));
  double per_job = 0.0;
  for (int j = 0; j < 4; ++j) {
    per_job += launch_dev
                   .launch(1, [&](BlockContext& ctx) { work(ctx, j); })
                   .makespan_cycles;
  }
  EXPECT_LT(queued.makespan_cycles, per_job);
  // And the work itself is identical either way.
  EXPECT_EQ(queued.total.global_reads,
            launch_dev.accumulated().total.global_reads);
}

TEST(CostModel, CpuSecondsLinearInOps) {
  CostModel cm;
  const double t1 = cpu_seconds(cm, 1000, 0, 0);
  const double t2 = cpu_seconds(cm, 2000, 0, 0);
  EXPECT_DOUBLE_EQ(t2, 2.0 * t1);
  EXPECT_GT(cpu_seconds(cm, 0, 100, 0), 0.0);
  EXPECT_GT(cpu_seconds(cm, 0, 0, 100), 0.0);
}

TEST(DeviceSpec, PaperHardwarePresets) {
  EXPECT_EQ(DeviceSpec::tesla_c2075().num_sms, 14);
  EXPECT_EQ(DeviceSpec::gtx_560().num_sms, 7);
  EXPECT_EQ(DeviceSpec::tesla_c2075().threads_per_block, 1024);
}

}  // namespace
}  // namespace bcdyn::sim
