#include "gpusim/device_group.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "gpusim/fault_injector.hpp"
#include "trace/metrics.hpp"
#include "trace/validate.hpp"

namespace bcdyn::sim {

DeviceGroup::DeviceGroup(int num_devices, DeviceSpec spec, CostModel cost,
                         bool track_atomic_conflicts)
    : track_conflicts_(track_atomic_conflicts) {
  if (num_devices < 1) {
    throw std::invalid_argument("DeviceGroup needs at least one device");
  }
  devices_.reserve(static_cast<std::size_t>(num_devices));
  lost_.assign(static_cast<std::size_t>(num_devices), 0);
  for (int d = 0; d < num_devices; ++d) {
    DeviceSpec named = spec;
    if (num_devices > 1) {
      named.name = spec.name + " #" + std::to_string(d);
    }
    devices_.push_back(std::make_unique<Device>(
        std::move(named), cost, track_atomic_conflicts));
    // Group position, not trace pid: fault sites must replay across runs.
    devices_.back()->set_fault_domain("dev" + std::to_string(d));
  }
}

int DeviceGroup::num_alive() const {
  int alive = 0;
  for (char dead : lost_) alive += dead ? 0 : 1;
  return alive;
}

std::vector<int> DeviceGroup::apply_faults(std::span<const int> initial_device,
                                           std::string_view name,
                                           int* resharded_jobs,
                                           int* lost_devices) {
  auto& injector = faults();
  auto& reg = trace::metrics();
  // Loss polls: one per live device, in device order, so each device's
  // decision stream depends only on how many group launches it survived.
  for (int d = 0; d < num_devices(); ++d) {
    if (device_lost(d)) continue;
    if (injector.should_lose_device(device(d).fault_domain() + ".loss")) {
      lost_[static_cast<std::size_t>(d)] = 1;
      ++*lost_devices;
    }
  }
  std::vector<int> alive;
  for (int d = 0; d < num_devices(); ++d) {
    if (!device_lost(d)) alive.push_back(d);
  }
  if (*lost_devices > 0) {
    reg.add("sim.group.lost_devices",
            static_cast<std::uint64_t>(*lost_devices));
  }
  // Gauge only once a loss has happened: a fault-free run must leave the
  // registry byte-identical to one with the injector disabled.
  if (static_cast<int>(alive.size()) < num_devices()) {
    reg.set_gauge("sim.group.alive_devices",
                  static_cast<double>(alive.size()));
  }
  if (alive.empty()) {
    throw FaultError({FaultKind::kDeviceLoss, "group.all_lost", 0});
  }

  // Whole-launch abort: the group analogue of Device::check_launch_abort,
  // polled once per group launch (the per-device abort sites belong to
  // stand-alone launches and never fire here).
  std::string site = "group.launch.";
  site += name.empty() ? std::string_view("kernel") : name;
  FaultRecord fired;
  if (injector.should_abort_launch(site, &fired)) {
    for (int d : alive) {
      device(d).charge_fault_backoff(injector.plan().abort_penalty_cycles);
    }
    throw FaultError(std::move(fired));
  }

  // Reshard jobs homed on lost devices round-robin over the survivors.
  std::vector<int> shard(initial_device.begin(), initial_device.end());
  for (std::size_t j = 0; j < shard.size(); ++j) {
    const int d = shard[j];
    if (d >= 0 && d < num_devices() && device_lost(d)) {
      shard[j] = alive[j % alive.size()];
      ++*resharded_jobs;
    }
  }
  if (*resharded_jobs > 0) {
    reg.add("sim.group.resharded_jobs",
            static_cast<std::uint64_t>(*resharded_jobs));
  }
  return shard;
}

GroupLaunchResult schedule_group(const std::vector<double>& job_cycles,
                                 std::span<const int> initial_device,
                                 std::span<const std::int64_t> priority,
                                 int num_devices, int num_sms,
                                 const CostModel& cost) {
  const int num_jobs = static_cast<int>(job_cycles.size());
  GroupLaunchResult result;
  result.per_device.resize(static_cast<std::size_t>(num_devices));
  result.placements.resize(static_cast<std::size_t>(num_jobs));
  result.jobs_per_device.assign(static_cast<std::size_t>(num_devices), 0);
  if (num_jobs == 0) return result;

  // Build each device's queue: its jobs ordered highest-priority-first,
  // stable by job id (LPT when the priorities are work predictions).
  std::vector<std::vector<int>> queues(static_cast<std::size_t>(num_devices));
  for (int j = 0; j < num_jobs; ++j) {
    const int d = initial_device[static_cast<std::size_t>(j)];
    if (d < 0 || d >= num_devices) {
      throw std::invalid_argument("schedule_group: job assigned to device " +
                                  std::to_string(d) + " of " +
                                  std::to_string(num_devices));
    }
    queues[static_cast<std::size_t>(d)].push_back(j);
  }
  if (!priority.empty()) {
    for (auto& q : queues) {
      std::stable_sort(q.begin(), q.end(), [&](int a, int b) {
        return priority[static_cast<std::size_t>(a)] >
               priority[static_cast<std::size_t>(b)];
      });
    }
  }
  // Local pops take from `front`, steals take from the back.
  std::vector<std::size_t> front(static_cast<std::size_t>(num_devices), 0);
  std::vector<std::size_t> back(queues.size());
  for (std::size_t d = 0; d < queues.size(); ++d) back[d] = queues[d].size();
  auto remaining = [&](int d) {
    const auto i = static_cast<std::size_t>(d);
    return back[i] - front[i];
  };

  // Min-heap of (free time, steal, device, sm): each free SM pops its
  // device's queue, or steals from the longest remaining peer queue, or
  // retires. An SM whose queue is drained goes back in as a thief, which
  // orders it after every local pop due at the same time: SMs free at once
  // act together, so no device steals a job its home device starts then.
  // The (device, sm) components make tie-breaks deterministic.
  struct Slot {
    double at;
    bool steal;
    int device;
    int sm;
    bool operator>(const Slot& o) const {
      if (at != o.at) return at > o.at;
      if (steal != o.steal) return steal;
      if (device != o.device) return device > o.device;
      return sm > o.sm;
    }
  };
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> sms;
  for (int d = 0; d < num_devices; ++d) {
    for (int s = 0; s < num_sms; ++s) sms.push({0.0, false, d, s});
  }

  int assigned = 0;
  while (assigned < num_jobs) {
    const Slot slot = sms.top();
    sms.pop();
    const auto d = static_cast<std::size_t>(slot.device);
    int job = -1;
    bool stolen = false;
    if (front[d] < back[d]) {
      job = queues[d][front[d]++];
    } else if (!slot.steal) {
      sms.push({slot.at, true, slot.device, slot.sm});
      continue;
    } else {
      // Drained: steal from the back of the longest remaining queue.
      int victim = -1;
      std::size_t longest = 0;
      for (int e = 0; e < num_devices; ++e) {
        if (remaining(e) > longest) {
          longest = remaining(e);
          victim = e;
        }
      }
      if (victim < 0) continue;  // nothing anywhere: the SM retires
      job = queues[static_cast<std::size_t>(victim)]
                  [--back[static_cast<std::size_t>(victim)]];
      stolen = true;
      ++result.steals;
    }
    const double charge = stolen ? cost.steal_cycles : cost.job_pop_cycles;
    // Same association as schedule_blocks' `at += dispatch + cycles`, so a
    // one-device group reproduces launch_queue makespans bit-identically.
    const double end =
        slot.at + (charge + job_cycles[static_cast<std::size_t>(job)]);
    result.placements[static_cast<std::size_t>(job)] = {
        .device = slot.device,
        .sm = slot.sm,
        .start_cycles = slot.at,
        .end_cycles = end,
        .stolen = stolen};
    ++result.jobs_per_device[d];
    auto& dev = result.per_device[d];
    dev.makespan_cycles = std::max(dev.makespan_cycles, end);
    sms.push({end, false, slot.device, slot.sm});
    ++assigned;
  }
  for (const auto& dev : result.per_device) {
    result.group.makespan_cycles =
        std::max(result.group.makespan_cycles, dev.makespan_cycles);
  }
  return result;
}

GroupLaunchResult DeviceGroup::launch_sharded(
    int num_jobs, std::span<const int> initial_device,
    std::span<const std::int64_t> priority, const JobKernel& kernel,
    std::vector<BlockCounters>* per_job, std::string_view name) {
  if (static_cast<int>(initial_device.size()) != num_jobs) {
    throw std::invalid_argument(
        "launch_sharded: initial_device must name one device per job");
  }
  if (!priority.empty() &&
      static_cast<int>(priority.size()) != num_jobs) {
    throw std::invalid_argument(
        "launch_sharded: priority must be empty or one entry per job");
  }

  // Fault injection runs first - loss polls, the group abort check, and
  // lost-home resharding all happen before any host execution, so a
  // thrown FaultError leaves analytic state untouched and a retried
  // launch folds results in the original order.
  int resharded_jobs = 0;
  int lost_now = 0;
  std::span<const int> shard = initial_device;
  std::vector<int> remapped;
  if (faults().enabled()) {
    remapped = apply_faults(initial_device, name, &resharded_jobs, &lost_now);
    shard = remapped;
  }

  // Host execution: job-id order, one context per job, independent of the
  // modeled schedule below - results never depend on the device count.
  std::vector<BlockContext> contexts;
  contexts.reserve(static_cast<std::size_t>(std::max(num_jobs, 0)));
  for (int j = 0; j < num_jobs; ++j) {
    contexts.emplace_back(spec(), cost_model(), /*block_id=*/0,
                          track_conflicts_);
    kernel(contexts.back(), j);
  }
  std::vector<double> job_cycles;
  job_cycles.reserve(contexts.size());
  for (const auto& ctx : contexts) job_cycles.push_back(ctx.cycles());

  // The modeled schedule runs over the surviving devices only: compact
  // their ids to 0..A-1 (schedule_group grants every device SMs), then map
  // the placements back to real device ids. With every device alive this
  // is the exact pre-fault code path.
  std::vector<int> alive_ids;
  for (int d = 0; d < num_devices(); ++d) {
    if (!device_lost(d)) alive_ids.push_back(d);
  }
  GroupLaunchResult result;
  if (static_cast<int>(alive_ids.size()) == num_devices()) {
    result = schedule_group(job_cycles, shard, priority, num_devices(),
                            spec().num_sms, cost_model());
  } else {
    std::vector<int> compact_of(static_cast<std::size_t>(num_devices()), -1);
    for (std::size_t i = 0; i < alive_ids.size(); ++i) {
      compact_of[static_cast<std::size_t>(alive_ids[i])] =
          static_cast<int>(i);
    }
    std::vector<int> compact_shard(shard.size());
    for (std::size_t j = 0; j < shard.size(); ++j) {
      compact_shard[j] = compact_of[static_cast<std::size_t>(shard[j])];
    }
    result = schedule_group(job_cycles, compact_shard, priority,
                            static_cast<int>(alive_ids.size()),
                            spec().num_sms, cost_model());
    for (auto& p : result.placements) {
      p.device = alive_ids[static_cast<std::size_t>(p.device)];
    }
    std::vector<KernelStats> full_stats(
        static_cast<std::size_t>(num_devices()));
    std::vector<int> full_jobs(static_cast<std::size_t>(num_devices()), 0);
    for (std::size_t i = 0; i < alive_ids.size(); ++i) {
      full_stats[static_cast<std::size_t>(alive_ids[i])] =
          result.per_device[i];
      full_jobs[static_cast<std::size_t>(alive_ids[i])] =
          result.jobs_per_device[i];
    }
    result.per_device = std::move(full_stats);
    result.jobs_per_device = std::move(full_jobs);
  }
  result.resharded_jobs = resharded_jobs;
  result.lost_devices = lost_now;

  // Record one launch per participating device: its timeline (placement
  // indices renumbered locally - the validators require 0..m-1 per launch),
  // stats, metrics, and trace tracks, exactly like a stand-alone launch.
  const double setup_cycles =
      cost_model().kernel_launch_cycles + cost_model().block_dispatch_cycles;
  std::vector<std::vector<int>> ran(static_cast<std::size_t>(num_devices()));
  for (int j = 0; j < num_jobs; ++j) {
    ran[static_cast<std::size_t>(result.placements[static_cast<std::size_t>(j)]
                                     .device)]
        .push_back(j);
  }
  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (int d = 0; d < num_devices(); ++d) {
    auto& jobs = ran[static_cast<std::size_t>(d)];
    auto& dev_stats = result.per_device[static_cast<std::size_t>(d)];
    if (jobs.empty()) continue;  // no kernel was launched on this device
    std::sort(jobs.begin(), jobs.end(), [&](int a, int b) {
      const auto& pa = result.placements[static_cast<std::size_t>(a)];
      const auto& pb = result.placements[static_cast<std::size_t>(b)];
      if (pa.start_cycles != pb.start_cycles) {
        return pa.start_cycles < pb.start_cycles;
      }
      return pa.sm < pb.sm;
    });
    LaunchTimeline timeline;
    timeline.num_sms = spec().num_sms;
    timeline.makespan_cycles = dev_stats.makespan_cycles;
    timeline.placements.reserve(jobs.size());
    std::vector<BlockCounters> counters;
    counters.reserve(jobs.size());
    double busy = 0.0;
    int index = 0;
    for (int j : jobs) {
      const auto& p = result.placements[static_cast<std::size_t>(j)];
      timeline.placements.push_back({.index = index++,
                                     .sm = p.sm,
                                     .start_cycles = p.start_cycles,
                                     .end_cycles = p.end_cycles,
                                     .wait_cycles = p.start_cycles});
      counters.push_back(contexts[static_cast<std::size_t>(j)].counters());
      busy += p.end_cycles - p.start_cycles;
    }
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
    const int lanes =
        std::min(spec().num_sms, static_cast<int>(jobs.size()));
    dev_stats = device(d).record_scheduled_launch(
        name, trace::kCatJob, lanes, counters, std::move(timeline),
        setup_cycles);
  }

  // Group aggregate: counters sum, makespan is the max over devices.
  result.group = {};
  for (const auto& dev_stats : result.per_device) {
    result.group.total += dev_stats.total;
    result.group.max_block_cycles =
        std::max(result.group.max_block_cycles, dev_stats.max_block_cycles);
    result.group.makespan_cycles =
        std::max(result.group.makespan_cycles, dev_stats.makespan_cycles);
    result.group.num_blocks += dev_stats.num_blocks;
  }
  result.group.launches = num_jobs > 0 ? 1 : 0;
  result.group.seconds =
      result.group.makespan_cycles / (spec().clock_ghz * 1e9);

  auto& reg = trace::metrics();
  reg.add("sim.group.launches");
  reg.add("sim.group.jobs", static_cast<std::uint64_t>(std::max(num_jobs, 0)));
  reg.add("sim.group.steals", static_cast<std::uint64_t>(result.steals));
  reg.set_gauge("sim.group.devices", static_cast<double>(num_devices()));
  if (num_jobs > 0) {
    reg.observe("sim.group.stolen_fraction",
                static_cast<double>(result.steals) /
                    static_cast<double>(num_jobs));
    const double busy_mean = busy_sum / static_cast<double>(num_devices());
    if (busy_mean > 0.0) {
      reg.observe("sim.group.imbalance", busy_max / busy_mean);
    }
  }

  if (per_job) {
    per_job->clear();
    per_job->reserve(contexts.size());
    for (const auto& ctx : contexts) per_job->push_back(ctx.counters());
  }
  // After stats/metrics (and per_job) are recorded, so strict mode loses
  // nothing when it throws.
  collect_hazards(name, contexts);
  return result;
}

}  // namespace bcdyn::sim
