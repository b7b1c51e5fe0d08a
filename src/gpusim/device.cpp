#include "gpusim/device.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gpusim/fault_injector.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"

namespace bcdyn::sim {

namespace {

int next_trace_pid() {
  thread_local int counter = trace::kDevicePidBase;
  return counter++;
}

/// Rejects specs the scheduler and cost model cannot run: no SMs (empty
/// block->SM schedule), no threads (parallel_for strides by the thread
/// count), or a clock that makes cycles->seconds non-finite.
DeviceSpec validated(DeviceSpec spec) {
  if (spec.num_sms < 1) {
    throw std::invalid_argument("DeviceSpec: num_sms < 1 (got " +
                                std::to_string(spec.num_sms) + ")");
  }
  if (spec.threads_per_block < 1) {
    throw std::invalid_argument("DeviceSpec: threads_per_block < 1 (got " +
                                std::to_string(spec.threads_per_block) + ")");
  }
  if (!std::isfinite(spec.clock_ghz) || spec.clock_ghz <= 0.0) {
    throw std::invalid_argument(
        "DeviceSpec: clock_ghz must be finite and > 0 (got " +
        std::to_string(spec.clock_ghz) + ")");
  }
  return spec;
}

}  // namespace

// Folds the blocks' shadow journals into the process hazard detector. Runs
// after the launch's stats/metrics/trace are recorded, so a strict-mode
// HazardError never loses the evidence it reports.
void collect_hazards(std::string_view name,
                     const std::vector<BlockContext>& contexts) {
  std::vector<const BlockHazardState*> states;
  states.reserve(contexts.size());
  for (const auto& ctx : contexts) states.push_back(ctx.hazard_state());
  hazards().collect(name.empty() ? "kernel" : name, states);
}

Device::Device(DeviceSpec spec, CostModel cost, bool track_atomic_conflicts)
    : spec_(validated(std::move(spec))),
      cost_(cost),
      track_conflicts_(track_atomic_conflicts),
      trace_pid_(next_trace_pid()) {
  trace::tracer().set_process_name(
      trace_pid_, "device " + std::to_string(trace_pid_ - trace::kDevicePidBase) +
                      " (" + spec_.name + ")");
}

LaunchTimeline schedule_blocks(const std::vector<double>& block_cycles,
                               int num_sms, double dispatch_cycles) {
  LaunchTimeline timeline;
  timeline.num_sms = num_sms;
  timeline.placements.reserve(block_cycles.size());
  // Min-heap of (finish time, SM); each block goes to the earliest-free SM.
  // Ties break toward the lowest SM id, which never changes the popped
  // finish *time*, so the makespan arithmetic matches schedule_makespan's
  // original double-only heap exactly.
  using Slot = std::pair<double, int>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> sms;
  for (int s = 0; s < num_sms; ++s) sms.emplace(0.0, s);
  double makespan = 0.0;
  int index = 0;
  for (double cycles : block_cycles) {
    const Slot slot = sms.top();
    sms.pop();
    double at = slot.first;
    at += dispatch_cycles + cycles;
    makespan = std::max(makespan, at);
    sms.emplace(at, slot.second);
    timeline.placements.push_back({.index = index,
                                   .sm = slot.second,
                                   .start_cycles = slot.first,
                                   .end_cycles = at,
                                   .wait_cycles = slot.first});
    ++index;
  }
  timeline.makespan_cycles = makespan;
  return timeline;
}

double schedule_makespan(const std::vector<double>& block_cycles, int num_sms,
                         double dispatch_cycles) {
  return schedule_blocks(block_cycles, num_sms, dispatch_cycles)
      .makespan_cycles;
}

KernelStats Device::finish_launch(std::string_view name, std::string_view cat,
                                  int num_blocks,
                                  const std::vector<BlockContext>& contexts,
                                  double setup_cycles,
                                  double dispatch_cycles) {
  std::vector<BlockCounters> counters;
  std::vector<double> block_cycles;
  counters.reserve(contexts.size());
  block_cycles.reserve(contexts.size());
  for (const auto& ctx : contexts) {
    counters.push_back(ctx.counters());
    block_cycles.push_back(ctx.cycles());
  }
  LaunchTimeline timeline =
      schedule_blocks(block_cycles, spec_.num_sms, dispatch_cycles);
  KernelStats stats = record_scheduled_launch(name, cat, num_blocks, counters,
                                              std::move(timeline), setup_cycles);
  collect_hazards(name, contexts);
  return stats;
}

KernelStats Device::record_scheduled_launch(
    std::string_view name, std::string_view cat, int num_blocks,
    const std::vector<BlockCounters>& counters, LaunchTimeline timeline,
    double setup_cycles) {
  KernelStats stats;
  stats.num_blocks = num_blocks;
  stats.launches = 1;
  for (const auto& c : counters) {
    stats.total += c;
    stats.max_block_cycles = std::max(stats.max_block_cycles, c.cycles);
  }
  stats.makespan_cycles = setup_cycles + timeline.makespan_cycles;
  stats.seconds = stats.makespan_cycles / (spec_.clock_ghz * 1e9);
  accumulated_ += stats;

  const std::string label = name.empty() ? "kernel" : std::string(name);
  timeline.name = label;

  // Metrics: launch totals plus schedule-quality histograms. Occupancy is
  // recorded in percent so the log2 buckets spread usefully.
  auto& reg = trace::metrics();
  reg.add("sim.launches");
  reg.add("sim.blocks", counters.size());
  reg.add("sim.items", stats.total.items);
  reg.add("sim.host_items", stats.total.host_items);
  if (stats.total.atomic_conflicts > 0) {
    reg.add("sim.atomic_conflicts", stats.total.atomic_conflicts);
    reg.add("sim.atomic_conflicts." + label, stats.total.atomic_conflicts);
  }
  if (!timeline.placements.empty() && timeline.makespan_cycles > 0.0) {
    std::vector<double> busy(static_cast<std::size_t>(spec_.num_sms), 0.0);
    for (const auto& p : timeline.placements) {
      busy[static_cast<std::size_t>(p.sm)] += p.end_cycles - p.start_cycles;
    }
    double busy_sum = 0.0;
    double busy_max = 0.0;
    for (double b : busy) {
      busy_sum += b;
      busy_max = std::max(busy_max, b);
    }
    reg.observe("sim.occupancy",
                100.0 * busy_sum / (timeline.makespan_cycles * spec_.num_sms));
    const double busy_mean = busy_sum / spec_.num_sms;
    if (busy_mean > 0.0) reg.observe("sim.imbalance", busy_max / busy_mean);
  }

  // Trace: one summary event on the launch track, one complete event per
  // block/job on its SM's track, all on this device's modeled-cycles axis
  // laid out after every earlier launch.
  const std::int64_t launch_id = launch_seq_++;
  auto& tr = trace::tracer();
  if (tr.enabled()) {
    const double us_per_cycle = 1.0 / (spec_.clock_ghz * 1e3);
    const double origin_us = timeline_origin_cycles_ * us_per_cycle;
    tr.complete(
        trace_pid_, trace::kLaunchTrackTid, origin_us,
        stats.makespan_cycles * us_per_cycle, label, trace::kCatLaunch,
        {{trace::kArgLaunchId, static_cast<double>(launch_id)},
         {trace::kArgBlocks, static_cast<double>(timeline.placements.size())},
         {"max_block_cycles", stats.max_block_cycles},
         {"atomic_conflicts",
          static_cast<double>(stats.total.atomic_conflicts)}});
    for (const auto& p : timeline.placements) {
      tr.complete(trace_pid_, p.sm,
                  (timeline_origin_cycles_ + setup_cycles) * us_per_cycle +
                      p.start_cycles * us_per_cycle,
                  (p.end_cycles - p.start_cycles) * us_per_cycle, label, cat,
                  {{trace::kArgLaunchId, static_cast<double>(launch_id)},
                   {trace::kArgIndex, static_cast<double>(p.index)},
                   {"wait_cycles", p.wait_cycles}});
    }
  }
  timeline_origin_cycles_ += stats.makespan_cycles;
  last_timeline_ = std::move(timeline);
  return stats;
}

// Abort checks run at launch entry, before any block executes: a retried
// launch then re-runs every block in the original order, so recovered
// scores fold bit-identically to a fault-free run.
void Device::check_launch_abort(std::string_view name) {
  auto& injector = faults();
  if (!injector.enabled()) return;
  std::string site = fault_domain_;
  site += ".launch.";
  site += name.empty() ? std::string_view("kernel") : name;
  FaultRecord fired;
  if (injector.should_abort_launch(site, &fired)) {
    // The aborted attempt still occupied the SM array for the plan's
    // penalty window before the modeled runtime noticed.
    charge_fault_backoff(injector.plan().abort_penalty_cycles);
    throw FaultError(std::move(fired));
  }
}

KernelStats Device::launch(int num_blocks, const Kernel& kernel,
                           std::string_view name) {
  check_launch_abort(name);
  std::vector<BlockContext> contexts;
  contexts.reserve(static_cast<std::size_t>(num_blocks));
  for (int b = 0; b < num_blocks; ++b) {
    contexts.emplace_back(spec_, cost_, b, track_conflicts_);
  }
  for (auto& ctx : contexts) kernel(ctx);

  return finish_launch(name, trace::kCatBlock, num_blocks, contexts,
                       cost_.kernel_launch_cycles,
                       cost_.block_dispatch_cycles);
}

KernelStats Device::launch_queue(int num_jobs, const JobKernel& kernel,
                                 std::vector<BlockCounters>* per_job,
                                 std::string_view name) {
  check_launch_abort(name);
  const int lanes = std::max(1, std::min(spec_.num_sms, num_jobs));
  std::vector<BlockContext> contexts;
  contexts.reserve(static_cast<std::size_t>(std::max(num_jobs, 0)));
  for (int j = 0; j < num_jobs; ++j) {
    contexts.emplace_back(spec_, cost_, j % lanes, track_conflicts_);
  }

  // Host execution drains the lanes one after another, each taking its
  // round-robin share of the jobs (lane l runs jobs l, l+lanes, ...), so
  // contexts sharing a block_id (and any per-lane engine workspace) run in
  // a fixed order. The partition does not affect modeled time: each job's
  // cycles depend only on the job.
  for (int lane = 0; lane < lanes; ++lane) {
    for (int j = lane; j < num_jobs; j += lanes) {
      kernel(contexts[static_cast<std::size_t>(j)], j);
    }
  }

  // The persistent blocks dispatch once, concurrently, before draining the
  // queue; after that each job costs its cycles plus a queue pop.
  KernelStats stats = finish_launch(
      name, trace::kCatJob, lanes, contexts,
      cost_.kernel_launch_cycles + cost_.block_dispatch_cycles,
      cost_.job_pop_cycles);
  if (per_job) {
    per_job->clear();
    per_job->reserve(contexts.size());
    for (const auto& ctx : contexts) per_job->push_back(ctx.counters());
  }
  return stats;
}

}  // namespace bcdyn::sim
