// The simulated device: schedules thread blocks onto SMs.
//
// Blocks are independent (the paper's coarse-grained decomposition: one
// source vertex per block), but the host runs them inline on the calling
// thread, one after another in a fixed order (block id for launch(), lane
// by lane for launch_queue()). That order is the order cross-block atomic
// adds into shared arrays such as bc[] happen in, so floating-point results
// are bit-identical from run to run.
//
// Modeled time never depends on host execution order: each block's cycle
// count is deterministic, and the makespan is computed by replaying a
// greedy block->SM schedule (each finished SM takes the next block), which
// is the hardware's behaviour and what makes Fig. 1 plateau at multiples
// of the SM count.
//
// Every launch also records its full schedule - which SM each block landed
// on and when - as a LaunchTimeline, feeds sim.* metrics, and (when the
// process tracer is enabled) emits the timeline onto the device's trace
// tracks. None of that feeds back into modeled results.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/block_context.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_stats.hpp"

namespace bcdyn::sim {

/// Where one block (or queue job) ran in the modeled schedule. Cycle
/// stamps are relative to the start of the block-dispatch phase of the
/// launch; `end - start` includes the per-block dispatch (or per-job
/// queue-pop) charge.
struct BlockPlacement {
  int index = 0;  // block id for launch(), queue position for launch_queue()
  int sm = 0;
  double start_cycles = 0.0;
  double end_cycles = 0.0;
  double wait_cycles = 0.0;  // how long the block sat behind earlier work
};

/// The per-launch schedule behind a KernelStats makespan.
struct LaunchTimeline {
  std::string name;
  int num_sms = 0;
  double makespan_cycles = 0.0;  // of the schedule itself, excl. launch setup
  std::vector<BlockPlacement> placements;
};

class Device {
 public:
  /// Throws std::invalid_argument naming the field when `spec` has
  /// num_sms < 1, threads_per_block < 1, or a clock_ghz that is not finite
  /// and > 0. Every engine and DeviceGroup builds its devices here.
  explicit Device(DeviceSpec spec, CostModel cost = {},
                  bool track_atomic_conflicts = false);

  const DeviceSpec& spec() const { return spec_; }
  const CostModel& cost_model() const { return cost_; }

  using Kernel = std::function<void(BlockContext&)>;

  /// Launches `num_blocks` blocks of `kernel`. Blocks see their id via
  /// BlockContext::block_id(). Blocking; returns the launch's stats.
  /// `name` labels the launch in traces, metrics, and reports.
  KernelStats launch(int num_blocks, const Kernel& kernel,
                     std::string_view name = {});

  using JobKernel = std::function<void(BlockContext&, int)>;

  /// Work-queue launch (persistent-block style): one resident block per SM
  /// pops job ids off a global queue in order, so an SM that finishes a
  /// short job immediately takes the next one - the multi-source scheduler
  /// behind batched updates. `kernel(ctx, job)` must key its work off `job`;
  /// `ctx.block_id()` identifies the resident block (use it to pick a
  /// per-lane workspace; two jobs on the same lane never run concurrently).
  ///
  /// Modeled time: one kernel launch, one concurrent dispatch of the
  /// persistent blocks, then a greedy next-free-SM schedule over the
  /// per-job cycle counts with a queue-pop charge per job. Per-job cycle
  /// counts are deterministic and independent of lane assignment. When
  /// `per_job` is non-null it receives each job's counters, indexed by
  /// queue position.
  KernelStats launch_queue(int num_jobs, const JobKernel& kernel,
                           std::vector<BlockCounters>* per_job = nullptr,
                           std::string_view name = {});

  /// Records a launch whose block->SM schedule was computed externally (the
  /// DeviceGroup work-stealing scheduler). `counters[i]` holds the counters
  /// of the block/job behind `timeline.placements[i]`; placement indices
  /// must be 0..placements-1 (the trace validators require it). Emits the
  /// same stats, metrics, and trace events as launch()/launch_queue() and
  /// advances this device's modeled-time origin - the kernels themselves
  /// must already have run.
  KernelStats record_scheduled_launch(std::string_view name,
                                      std::string_view cat, int num_blocks,
                                      const std::vector<BlockCounters>& counters,
                                      LaunchTimeline timeline,
                                      double setup_cycles);

  /// Cumulative stats across all launches since construction/reset.
  const KernelStats& accumulated() const { return accumulated_; }
  void reset_accumulated() { accumulated_ = {}; }

  // --- async timelines (gpusim/stream.hpp) ------------------------------
  // The device owns three engine timelines: the SM array (every launch
  // lays out back to back on it, exactly the pre-stream behaviour) and two
  // copy (DMA) engines, one per transfer direction - Fermi-class compute
  // parts like the Tesla C2075 ship two async engines precisely so an
  // upload, a download, and compute can all overlap. Transfers in the SAME
  // direction serialize on their engine; opposite directions do not.
  // Streams do cycle arithmetic against all three; the synchronous launch
  // API never touches the copy engines, so its modeled results are
  // unchanged.

  /// Modeled cycle the SM array becomes free (end of the last launch).
  double compute_end_cycles() const { return timeline_origin_cycles_; }
  /// Modeled cycle both copy engines are free (end of the last transfer).
  double copy_end_cycles() const {
    return h2d_end_cycles_ > d2h_end_cycles_ ? h2d_end_cycles_
                                             : d2h_end_cycles_;
  }
  /// Per-direction engine frontiers.
  double h2d_end_cycles() const { return h2d_end_cycles_; }
  double d2h_end_cycles() const { return d2h_end_cycles_; }
  /// Device makespan: the max over the SM schedule and the copy-engine
  /// timelines - with no transfers this is exactly the synchronous
  /// back-to-back launch timeline.
  double makespan_cycles() const {
    const double copy = copy_end_cycles();
    return timeline_origin_cycles_ > copy ? timeline_origin_cycles_ : copy;
  }
  double makespan_seconds() const {
    return makespan_cycles() / (spec_.clock_ghz * 1e9);
  }

  /// Stalls the SM array until `cycles` (a stream dependency edge: the
  /// next launch must not start before, say, its input transfer landed).
  /// No-op when the SMs are already past that point. Observability records
  /// the stall under sim.stream.compute_stall_cycles.
  void wait_compute_until(double cycles);

  /// Registers a stream and returns its id (used by sim::Stream; ids are
  /// dense per device and label the kStreamTrackBase + id trace track).
  int register_stream(std::string_view name);

  /// Places one transfer on the copy engine: starts at
  /// max(copy_end_cycles(), not_before_cycles), occupies the engine for
  /// transfer_cycles(cost_model(), dir, bytes), and records sim.copy.*
  /// metrics plus copy-engine/stream trace events. `stream_id` attributes
  /// the transfer (pass the issuing stream's id). Used by sim::Stream -
  /// prefer Stream::memcpy_h2d/d2h.
  struct TransferRecord {
    double start_cycles = 0.0;
    double end_cycles = 0.0;
    double wait_cycles = 0.0;
  };
  TransferRecord record_transfer(int stream_id, bool host_to_device,
                                 std::uint64_t bytes, double not_before_cycles,
                                 std::string_view label);

  /// Schedule of the most recent launch (empty before the first one).
  const LaunchTimeline& last_timeline() const { return last_timeline_; }

  /// The pid this device's modeled timeline uses in the process trace.
  int trace_pid() const { return trace_pid_; }

  // --- fault injection (gpusim/fault_injector.hpp) ----------------------
  // Fault sites are keyed by this domain string ("dev" standalone,
  // "dev0".."devN-1" inside a DeviceGroup) - NOT the trace pid, which
  // comes from a process-lifetime counter and would break replay. launch()
  // and launch_queue() poll "<domain>.launch.<name>" at entry (before any
  // host execution), record_transfer polls "<domain>.h2d"/"<domain>.d2h".

  void set_fault_domain(std::string domain) {
    fault_domain_ = std::move(domain);
  }
  const std::string& fault_domain() const { return fault_domain_; }

  /// Advances the SM-array timeline by `cycles`: the deterministic modeled
  /// backoff the bc recovery layer charges before re-issuing faulted work.
  /// Pure cycle arithmetic; never blocks the host.
  void charge_fault_backoff(double cycles) {
    if (cycles > 0.0) timeline_origin_cycles_ += cycles;
  }

 private:
  KernelStats finish_launch(std::string_view name, std::string_view cat,
                            int num_blocks,
                            const std::vector<BlockContext>& contexts,
                            double setup_cycles, double dispatch_cycles);

  /// Polls the injector for a kernel abort at "<domain>.launch.<name>";
  /// a fired abort charges the plan's penalty cycles to the SM timeline
  /// and throws FaultError before any block executes.
  void check_launch_abort(std::string_view name);

  DeviceSpec spec_;
  CostModel cost_;
  bool track_conflicts_;
  KernelStats accumulated_;
  LaunchTimeline last_timeline_;
  int trace_pid_ = 0;
  std::int64_t launch_seq_ = 0;          // per-device launch id
  double timeline_origin_cycles_ = 0.0;  // SM-array modeled time spent
  double h2d_end_cycles_ = 0.0;          // upload copy-engine frontier
  double d2h_end_cycles_ = 0.0;          // download copy-engine frontier
  int num_streams_ = 0;
  std::string fault_domain_ = "dev";     // replay-stable fault-site prefix
};

/// Computes the makespan of `block_cycles` over `num_sms` SMs under the
/// greedy next-free-SM schedule, including dispatch overhead per block.
double schedule_makespan(const std::vector<double>& block_cycles, int num_sms,
                         double dispatch_cycles);

/// Same greedy schedule, but returns the full block->SM placement list.
/// schedule_makespan() is this with the placements thrown away; both use
/// identical arithmetic, so the makespan is bit-identical.
LaunchTimeline schedule_blocks(const std::vector<double>& block_cycles,
                               int num_sms, double dispatch_cycles);

/// Folds the blocks' shadow journals into sim::hazards() under `name`.
/// Called by Device and DeviceGroup after each launch is recorded; throws
/// HazardError in strict mode when the launch added violations.
void collect_hazards(std::string_view name,
                     const std::vector<BlockContext>& contexts);

}  // namespace bcdyn::sim
