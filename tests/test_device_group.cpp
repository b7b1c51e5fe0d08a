// DeviceGroup: the deterministic cross-device work-stealing scheduler and
// the sharded launch discipline. A one-device group must reproduce the
// single-device launch_queue() model bit-identically; multi-device groups
// must steal from the longest remaining queue with deterministic
// tie-breaks, and host results must never depend on the device count.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/device_group.hpp"

namespace bcdyn::sim {
namespace {

/// A small device so schedules are easy to reason about by hand.
DeviceSpec tiny_spec(int num_sms) {
  return {.name = "tiny",
          .num_sms = num_sms,
          .threads_per_block = 32,
          .warp_size = 32,
          .clock_ghz = 1.0};
}

std::vector<int> all_on_device(int device, int num_jobs) {
  return std::vector<int>(static_cast<std::size_t>(num_jobs), device);
}

std::vector<int> round_robin(int num_jobs, int num_devices) {
  std::vector<int> shard(static_cast<std::size_t>(num_jobs));
  for (int j = 0; j < num_jobs; ++j) shard[static_cast<std::size_t>(j)] = j % num_devices;
  return shard;
}

/// kernel(ctx, j) charging `work[j]` instructions: per-job cycles are a
/// pure function of j, like the real per-source kernels.
DeviceGroup::JobKernel instr_kernel(const std::vector<std::size_t>& work) {
  return [&work](BlockContext& ctx, int j) {
    ctx.parallel_for(work[static_cast<std::size_t>(j)],
                     [&](std::size_t) { ctx.charge_instr(); });
  };
}

TEST(ScheduleGroup, OneDeviceMatchesLaunchQueueScheduleBitwise) {
  const std::vector<double> job_cycles = {100.0, 250.0, 30.0,  470.0,
                                          120.0, 60.0,  310.0, 5.0};
  const CostModel cost;
  const auto shard = all_on_device(0, static_cast<int>(job_cycles.size()));
  const GroupLaunchResult r =
      schedule_group(job_cycles, shard, {}, /*num_devices=*/1, /*num_sms=*/3,
                     cost);
  // Same greedy next-free-SM arithmetic as the launch_queue discipline.
  EXPECT_EQ(r.group.makespan_cycles,
            schedule_blocks(job_cycles, 3, cost.job_pop_cycles).makespan_cycles);
  EXPECT_EQ(r.steals, 0);
  EXPECT_EQ(r.jobs_per_device.at(0), static_cast<int>(job_cycles.size()));
  for (const auto& p : r.placements) {
    EXPECT_EQ(p.device, 0);
    EXPECT_FALSE(p.stolen);
  }
}

TEST(ScheduleGroup, BalancedShardsNeverStealAndMakespanIsMaxOverDevices) {
  // Two devices x one SM, two equal jobs each: queues drain in lockstep,
  // so no SM ever finds work to steal.
  const std::vector<double> job_cycles = {100.0, 100.0, 100.0, 100.0};
  const CostModel cost;
  const auto shard = round_robin(4, 2);
  const GroupLaunchResult r =
      schedule_group(job_cycles, shard, {}, 2, /*num_sms=*/1, cost);
  EXPECT_EQ(r.steals, 0);
  EXPECT_EQ(r.jobs_per_device.at(0), 2);
  EXPECT_EQ(r.jobs_per_device.at(1), 2);
  const double per_device = 2.0 * (cost.job_pop_cycles + 100.0);
  EXPECT_DOUBLE_EQ(r.per_device.at(0).makespan_cycles, per_device);
  EXPECT_DOUBLE_EQ(r.per_device.at(1).makespan_cycles, per_device);
  EXPECT_DOUBLE_EQ(r.group.makespan_cycles, per_device);
}

TEST(ScheduleGroup, IdleDeviceStealsFromTheBackAndBeatsOneDevice) {
  // Six 1000-cycle jobs all homed on device 0 of a two-device group: the
  // idle device should steal from the back of device 0's queue until the
  // queue is empty, halving the makespan despite the steal surcharge.
  const std::vector<double> job_cycles(6, 1000.0);
  const CostModel cost;  // pop 40, steal 400
  const auto shard = all_on_device(0, 6);
  const GroupLaunchResult r =
      schedule_group(job_cycles, shard, {}, 2, /*num_sms=*/1, cost);

  // Device 0 pops 0, 1, 2 off the front; device 1 steals 5, 4, 3 off the
  // back, each steal paying steal_cycles instead of job_pop_cycles.
  EXPECT_EQ(r.steals, 3);
  for (int j : {0, 1, 2}) {
    EXPECT_EQ(r.placements[static_cast<std::size_t>(j)].device, 0) << j;
    EXPECT_FALSE(r.placements[static_cast<std::size_t>(j)].stolen) << j;
  }
  for (int j : {3, 4, 5}) {
    EXPECT_EQ(r.placements[static_cast<std::size_t>(j)].device, 1) << j;
    EXPECT_TRUE(r.placements[static_cast<std::size_t>(j)].stolen) << j;
    const auto& p = r.placements[static_cast<std::size_t>(j)];
    EXPECT_DOUBLE_EQ(p.end_cycles - p.start_cycles,
                     cost.steal_cycles + 1000.0);
  }
  EXPECT_DOUBLE_EQ(r.per_device.at(0).makespan_cycles,
                   3.0 * (cost.job_pop_cycles + 1000.0));
  EXPECT_DOUBLE_EQ(r.per_device.at(1).makespan_cycles,
                   3.0 * (cost.steal_cycles + 1000.0));
  EXPECT_DOUBLE_EQ(r.group.makespan_cycles, 4200.0);
  EXPECT_LT(r.group.makespan_cycles,
            schedule_blocks(job_cycles, 1, cost.job_pop_cycles).makespan_cycles);
}

TEST(ScheduleGroup, StealsTargetTheLongestQueueWithLowestIdTieBreak) {
  const std::vector<double> job_cycles(7, 500.0);
  const CostModel cost;
  // Device 0 homes jobs {0, 1, 2, 3, 6}, device 1 {4, 5}, device 2 nothing.
  const std::vector<int> shard = {0, 0, 0, 0, 1, 1, 0};
  const GroupLaunchResult r =
      schedule_group(job_cycles, shard, {}, 3, /*num_sms=*/1, cost);
  // At t=0 device 2 must steal from device 0 (4 remaining after its local
  // pop, vs 1 on device 1) and take the *back* of its queue: job 6.
  EXPECT_TRUE(r.placements[6].stolen);
  EXPECT_EQ(r.placements[6].device, 2);
  EXPECT_DOUBLE_EQ(r.placements[6].start_cycles, 0.0);

  // Equal-length victims: the lowest device id wins, so at t=0 device 2
  // steals the back of device 0's queue (job 1), not device 1's.
  const std::vector<double> even(4, 500.0);
  const std::vector<int> even_shard = {0, 0, 1, 1};
  const GroupLaunchResult tie =
      schedule_group(even, even_shard, {}, 3, /*num_sms=*/1, cost);
  EXPECT_TRUE(tie.placements[1].stolen);
  EXPECT_EQ(tie.placements[1].device, 2);
  // Both devices free again at t=540: device 1 pops its own remaining job
  // before device 0, drained, may steal it.
  EXPECT_FALSE(tie.placements[3].stolen);
  EXPECT_EQ(tie.placements[3].device, 1);
  EXPECT_DOUBLE_EQ(tie.placements[3].start_cycles,
                   cost.job_pop_cycles + 500.0);
  EXPECT_EQ(tie.steals, 1);
}

TEST(ScheduleGroup, LocalPopsComeBeforeStealsAtTheSameCycle) {
  // Device 0 homes one job and device 1 two, on two SMs each. At t=0 all
  // four SMs are free: device 1 starts both of its jobs itself, and device
  // 0's spare SM finds nothing left to steal.
  const std::vector<double> job_cycles(3, 1000.0);
  const CostModel cost;
  const std::vector<int> shard = {0, 1, 1};
  const GroupLaunchResult r =
      schedule_group(job_cycles, shard, {}, 2, /*num_sms=*/2, cost);
  EXPECT_EQ(r.steals, 0);
  for (int j = 0; j < 3; ++j) {
    const auto& p = r.placements[static_cast<std::size_t>(j)];
    EXPECT_FALSE(p.stolen) << j;
    EXPECT_EQ(p.device, shard[static_cast<std::size_t>(j)]) << j;
    EXPECT_DOUBLE_EQ(p.start_cycles, 0.0) << j;
  }
  EXPECT_DOUBLE_EQ(r.group.makespan_cycles, cost.job_pop_cycles + 1000.0);
}

TEST(ScheduleGroup, PriorityOrdersEachQueueHighestFirstStableById) {
  const std::vector<double> job_cycles = {10.0, 500.0, 100.0, 70.0};
  const std::vector<std::int64_t> priority = {1, 30, 20, 20};
  const CostModel cost;
  const auto shard = all_on_device(0, 4);
  const GroupLaunchResult r =
      schedule_group(job_cycles, shard, priority, 1, /*num_sms=*/1, cost);
  // Queue order: job 1 (prio 30), then 2 and 3 (prio 20, stable by id),
  // then job 0.
  EXPECT_LT(r.placements[1].start_cycles, r.placements[2].start_cycles);
  EXPECT_LT(r.placements[2].start_cycles, r.placements[3].start_cycles);
  EXPECT_LT(r.placements[3].start_cycles, r.placements[0].start_cycles);
}

TEST(ScheduleGroup, ScheduleIsAPureFunctionOfItsInputs) {
  std::vector<double> job_cycles;
  for (int j = 0; j < 23; ++j) {
    job_cycles.push_back(static_cast<double>((j * 37) % 11) * 90.0 + 25.0);
  }
  std::vector<std::int64_t> priority;
  for (int j = 0; j < 23; ++j) priority.push_back((j * 13) % 7);
  const CostModel cost;
  const auto shard = round_robin(23, 3);
  const GroupLaunchResult a =
      schedule_group(job_cycles, shard, priority, 3, /*num_sms=*/2, cost);
  const GroupLaunchResult b =
      schedule_group(job_cycles, shard, priority, 3, /*num_sms=*/2, cost);
  ASSERT_EQ(a.placements.size(), b.placements.size());
  EXPECT_EQ(a.steals, b.steals);
  for (std::size_t j = 0; j < a.placements.size(); ++j) {
    EXPECT_EQ(a.placements[j].device, b.placements[j].device) << j;
    EXPECT_EQ(a.placements[j].sm, b.placements[j].sm) << j;
    EXPECT_EQ(a.placements[j].start_cycles, b.placements[j].start_cycles) << j;
    EXPECT_EQ(a.placements[j].end_cycles, b.placements[j].end_cycles) << j;
    EXPECT_EQ(a.placements[j].stolen, b.placements[j].stolen) << j;
  }
  int executed = 0;
  for (int per_device : a.jobs_per_device) executed += per_device;
  EXPECT_EQ(executed, 23);
}

TEST(ScheduleGroup, RejectsOutOfRangeDeviceAssignments) {
  const std::vector<double> job_cycles = {10.0, 20.0};
  const CostModel cost;
  EXPECT_THROW(schedule_group(job_cycles, std::vector<int>{0, 2}, {}, 2, 1,
                              cost),
               std::invalid_argument);
  EXPECT_THROW(schedule_group(job_cycles, std::vector<int>{-1, 0}, {}, 2, 1,
                              cost),
               std::invalid_argument);
}

TEST(DeviceGroup, OneDeviceGroupMatchesLaunchQueueBitwise) {
  std::vector<std::size_t> work;
  for (int j = 0; j < 13; ++j) {
    work.push_back(static_cast<std::size_t>((j * 29) % 9) * 40 + 5);
  }
  const DeviceSpec spec = tiny_spec(4);
  const CostModel cost;

  Device solo(spec, cost);
  std::vector<BlockCounters> solo_jobs;
  const KernelStats expected = solo.launch_queue(
      static_cast<int>(work.size()),
      [&](BlockContext& ctx, int j) { instr_kernel(work)(ctx, j); },
      &solo_jobs, "parity");

  DeviceGroup group(1, spec, cost);
  std::vector<BlockCounters> group_jobs;
  const auto shard = all_on_device(0, static_cast<int>(work.size()));
  const GroupLaunchResult r = group.launch_sharded(
      static_cast<int>(work.size()), shard, {}, instr_kernel(work),
      &group_jobs, "parity");

  EXPECT_EQ(r.group.makespan_cycles, expected.makespan_cycles);
  EXPECT_EQ(r.group.seconds, expected.seconds);
  EXPECT_EQ(r.group.total.instrs, expected.total.instrs);
  EXPECT_EQ(r.group.total.cycles, expected.total.cycles);
  EXPECT_EQ(r.group.max_block_cycles, expected.max_block_cycles);
  EXPECT_EQ(r.group.num_blocks, expected.num_blocks);
  ASSERT_EQ(group_jobs.size(), solo_jobs.size());
  for (std::size_t j = 0; j < group_jobs.size(); ++j) {
    EXPECT_EQ(group_jobs[j].instrs, solo_jobs[j].instrs) << j;
    EXPECT_EQ(group_jobs[j].cycles, solo_jobs[j].cycles) << j;
  }
}

TEST(DeviceGroup, PerJobResultsIndependentOfDeviceCount) {
  std::vector<std::size_t> work;
  for (int j = 0; j < 17; ++j) {
    work.push_back(static_cast<std::size_t>((j * 53) % 13) * 30 + 1);
  }
  const int num_jobs = static_cast<int>(work.size());
  const DeviceSpec spec = tiny_spec(2);

  std::vector<std::vector<BlockCounters>> per_count;
  std::vector<std::vector<int>> exec_order;
  for (int devices : {1, 2, 4}) {
    DeviceGroup group(devices, spec);
    std::vector<int> order;
    std::vector<BlockCounters> per_job;
    group.launch_sharded(
        num_jobs, round_robin(num_jobs, devices), {},
        [&](BlockContext& ctx, int j) {
          order.push_back(j);
          instr_kernel(work)(ctx, j);
        },
        &per_job);
    per_count.push_back(std::move(per_job));
    exec_order.push_back(std::move(order));
  }
  // Host execution is always sequential in job-id order...
  for (const auto& order : exec_order) {
    ASSERT_EQ(order.size(), static_cast<std::size_t>(num_jobs));
    for (int j = 0; j < num_jobs; ++j) {
      EXPECT_EQ(order[static_cast<std::size_t>(j)], j);
    }
  }
  // ...so per-job counters are bit-identical across device counts.
  for (std::size_t c = 1; c < per_count.size(); ++c) {
    ASSERT_EQ(per_count[c].size(), per_count[0].size());
    for (std::size_t j = 0; j < per_count[c].size(); ++j) {
      EXPECT_EQ(per_count[c][j].instrs, per_count[0][j].instrs) << j;
      EXPECT_EQ(per_count[c][j].cycles, per_count[0][j].cycles) << j;
    }
  }
}

TEST(DeviceGroup, EveryParticipatingDeviceRecordsItsLaunch) {
  const std::vector<std::size_t> work(9, 200);
  DeviceGroup group(3, tiny_spec(2));
  const GroupLaunchResult r = group.launch_sharded(
      9, round_robin(9, 3), {}, instr_kernel(work), nullptr, "spread");
  int executed = 0;
  std::uint64_t instrs = 0;
  for (int d = 0; d < group.num_devices(); ++d) {
    executed += r.jobs_per_device.at(static_cast<std::size_t>(d));
    instrs += r.per_device.at(static_cast<std::size_t>(d)).total.instrs;
    EXPECT_EQ(group.device(d).accumulated().launches, 1) << d;
    EXPECT_EQ(group.device(d).last_timeline().name, "spread") << d;
  }
  EXPECT_EQ(executed, 9);
  EXPECT_EQ(instrs, r.group.total.instrs);
  EXPECT_EQ(r.group.total.instrs, 9u * 200u);
  // Group makespan is the slowest device, not the sum.
  for (const auto& dev : r.per_device) {
    EXPECT_LE(dev.makespan_cycles, r.group.makespan_cycles);
  }
}

TEST(DeviceGroup, ValidatesItsArguments) {
  EXPECT_THROW(DeviceGroup(0, tiny_spec(1)), std::invalid_argument);
  DeviceGroup group(2, tiny_spec(1));
  const auto noop = [](BlockContext&, int) {};
  // One device id per job is required.
  EXPECT_THROW(group.launch_sharded(3, std::vector<int>{0, 1}, {}, noop),
               std::invalid_argument);
  // Priority must be empty or one entry per job.
  EXPECT_THROW(group.launch_sharded(2, std::vector<int>{0, 1},
                                    std::vector<std::int64_t>{5}, noop),
               std::invalid_argument);
  // Zero jobs is a no-op, not an error.
  const GroupLaunchResult empty =
      group.launch_sharded(0, std::vector<int>{}, {}, noop);
  EXPECT_EQ(empty.placements.size(), 0u);
  EXPECT_EQ(empty.steals, 0);
  EXPECT_EQ(empty.group.launches, 0);
}

}  // namespace
}  // namespace bcdyn::sim
