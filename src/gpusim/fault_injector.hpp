// Deterministic fault injection for the simulated runtime.
//
// A per-thread opt-in singleton (like trace::tracer() and sim::hazards())
// that the simulator polls at well-known *fault sites*: copy-engine
// transfers (H2D/D2H failure or added stall latency), kernel launches
// (abort before any host execution mutates analytic state), and per-device
// loss polls in DeviceGroup::launch_sharded. Every decision is a pure hash
// of (plan seed, site string, per-site sequence index) mapped to [0, 1) and
// compared against the plan's rate for that fault kind - never wall clock,
// never an RNG stream shared across sites - so the same plan replays a
// byte-identical fault sequence regardless of timing, polls of *other*
// sites, or how many unrelated launches ran in between.
//
// Site strings are stable run-to-run: devices carry a settable fault
// domain ("dev" standalone, "dev0".."devN-1" inside a group) rather than
// their trace pid (which comes from a thread-lifetime counter and would
// break replay). Sites look like "dev0.h2d", "dev.launch.insert.edge",
// "group.launch.batch.node", "dev1.loss". FaultPlan::site_filter restricts
// injection to sites containing a substring, which tests use to aim faults
// at dynamic-update launches while leaving the "static_bc.*" fallback
// recompute path clean.
//
// Injection points fire *before* any analytic state is mutated (launch
// aborts are checked at launch entry, transfer failures before the stream
// observes completion), so a whole-launch retry by the bc recovery layer
// reproduces the exact fold order of a fault-free run - recovered scores
// are bit-identical, not merely close. When disabled the injector costs
// one flag test per site and modeled results are untouched.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bcdyn::sim {

enum class FaultKind : std::uint8_t {
  kTransferFail,
  kStreamStall,
  kKernelAbort,
  kDeviceLoss,
};

std::string_view to_string(FaultKind kind);

/// Seeded, rate-per-kind description of what to inject. Rates are
/// per-decision probabilities in [0, 1]; cycle fields size the modeled
/// penalty attached to a fired stall/abort.
struct FaultPlan {
  std::uint64_t seed = 0;
  double transfer_fail_rate = 0.0;
  double stall_rate = 0.0;
  double stall_cycles = 50000.0;
  double kernel_abort_rate = 0.0;
  double device_loss_rate = 0.0;
  double abort_penalty_cycles = 10000.0;
  /// When non-empty, only sites containing this substring can fire.
  std::string site_filter;

  /// All event rates set to `rate` except device loss, which is divided by
  /// 16 (loss is permanent and polled per launch per device; an undamped
  /// rate would kill every device within a few hundred launches).
  static FaultPlan uniform(std::uint64_t seed, double rate);

  /// Parses the CLI spec "SEED[:RATE]" (rate defaults to 0.02) into a
  /// uniform plan. Throws std::invalid_argument on malformed input.
  static FaultPlan parse(std::string_view spec);
};

/// One fired injection decision. `seq` is the per-(kind, site) decision
/// index that fired, so two runs with the same plan produce identical
/// record sequences.
struct FaultRecord {
  FaultKind kind = FaultKind::kTransferFail;
  std::string site;
  std::uint64_t seq = 0;

  std::string to_string() const;
};

/// Thrown by the simulator from a fault site that fired (transfer failure,
/// kernel abort, or an all-devices-lost group launch). The bc recovery
/// layer catches it and retries / falls back per its RecoveryPolicy.
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(FaultRecord record);
  const FaultRecord& record() const { return record_; }

 private:
  FaultRecord record_;
};

/// Per-thread fault injector (see file comment). Decision methods are
/// cheap no-ops while disabled.
class FaultInjector {
 public:
  /// Keep the first kMaxRecords fired decisions; counts are unbounded.
  static constexpr std::size_t kMaxRecords = 64;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Installs a plan and restarts every per-site decision sequence (also
  /// drops records/counts), so a freshly configured injector always
  /// replays from decision 0.
  void configure(const FaultPlan& plan);
  const FaultPlan& plan() const { return plan_; }

  // --- decision points (called by the simulator) ------------------------
  // Each fills `*fired` (when non-null and the decision fired) with the
  // record - including the per-site decision index - that the caller
  // wraps into the FaultError it throws.

  /// Copy-engine transfer at `site` fails (caller throws FaultError after
  /// accounting the engine occupancy).
  bool should_fail_transfer(std::string_view site,
                            FaultRecord* fired = nullptr);
  /// Added modeled stall latency for the stream op at `site`; 0 = none.
  double stall_cycles(std::string_view site);
  /// Kernel launch at `site` aborts before executing (caller throws).
  bool should_abort_launch(std::string_view site,
                           FaultRecord* fired = nullptr);
  /// Device polled at `site` is lost for the rest of the run (caller
  /// marks it dead and reshards its jobs).
  bool should_lose_device(std::string_view site,
                          FaultRecord* fired = nullptr);

  std::uint64_t injected() const { return injected_total_; }
  std::uint64_t injected(FaultKind kind) const {
    return injected_by_kind_[static_cast<std::size_t>(kind)];
  }
  /// The first kMaxRecords fired decisions, in order.
  const std::vector<FaultRecord>& records() const { return records_; }

  /// Drops counts, records, and per-site sequences; keeps the enabled
  /// flag and the installed plan.
  void clear();

 private:
  /// Advances the (kind, site) sequence and hashes it against the plan's
  /// rate for `kind`. Fired decisions append a record and bump sim.fault.*
  /// metrics.
  bool decide(FaultKind kind, std::string_view site, FaultRecord* fired);

  bool enabled_ = false;
  FaultPlan plan_;
  std::map<std::string, std::uint64_t> seq_;  // keyed "<kind>|<site>"
  std::uint64_t injected_total_ = 0;
  std::uint64_t injected_by_kind_[4] = {};
  std::vector<FaultRecord> records_;
};

/// The calling thread's injector, which the simulator polls.
FaultInjector& faults();

}  // namespace bcdyn::sim
