// Recovery policy for injected runtime faults (gpusim/fault_injector.hpp).
//
// The paper's per-source decomposition makes recovery natural: every fault
// site fires *before* host execution mutates analytic state, so the unit
// of retry is a whole engine pass (one launch / group launch / transfer),
// and a successful retry folds per-source deltas in exactly the original
// order - recovered scores are bit-identical to a fault-free run. Only the
// last-resort fallback (static recompute of every source) differs, and
// then only by floating-point fold order.
//
// Determinism: the backoff is modeled cycles charged to the device
// timelines (pure arithmetic, never a host sleep), and the injector's
// decisions are hash-keyed per site, so a retried site sees decision
// index +1 - the whole recovery trajectory replays byte-identically.
#pragma once

#include <cmath>
#include <cstdint>

#include "gpusim/fault_injector.hpp"
#include "trace/metrics.hpp"

namespace bcdyn {

/// Knobs for the bc layer's reaction to sim::FaultError (bc::Options
/// carries one). All recovery is deterministic; see the file comment.
struct RecoveryPolicy {
  /// Re-issues of a faulted engine pass before giving up on it. Each retry
  /// charges `detail::kBackoffCycles * 2^attempt` modeled cycles to the
  /// devices.
  int max_retries = 3;
  /// After retries are exhausted on a dynamic update, fall back to a full
  /// static recompute (the per-source patch is abandoned; scores then
  /// match the incremental result only to FP rounding). When false - or
  /// when the fallback itself faults out - the FaultError propagates to
  /// the caller.
  bool fallback_recompute = true;
};

namespace detail {

/// Base modeled backoff before the first retry (doubles per attempt).
inline constexpr double kBackoffCycles = 20000.0;

/// One caught fault: bumps bc.fault.caught.* metrics, emits a trace
/// instant event, and flags a telemetry AnomalyEvent (type kFault) with
/// `action` ("retry", "exhausted", ...) in the detail string. `what`
/// labels the recovering operation (e.g. "bc.insert").
void note_fault(const char* what, const sim::FaultError& error,
                const char* action, int devices);

/// Runs `attempt` with bounded retries under `policy`: on sim::FaultError
/// it notes the fault, charges the deterministic doubling backoff through
/// `backoff(cycles)` (which should advance the device timelines), and
/// re-runs. After max_retries it bumps bc.fault.exhausted.count and
/// rethrows - callers wanting the static-recompute fallback catch there.
/// A retry that then succeeds bumps bc.fault.recovered.count.
template <typename Attempt, typename Backoff>
void retry_faults(const char* what, const RecoveryPolicy& policy,
                  int devices, Attempt&& attempt, Backoff&& backoff) {
  for (int tries = 0;; ++tries) {
    try {
      attempt();
      if (tries > 0) trace::metrics().add("bc.fault.recovered.count");
      return;
    } catch (const sim::FaultError& error) {
      if (tries >= policy.max_retries) {
        note_fault(what, error, "exhausted", devices);
        trace::metrics().add("bc.fault.exhausted.count");
        throw;
      }
      note_fault(what, error, "retry", devices);
      trace::metrics().add("bc.fault.retries.count");
      // ldexp, not an int shift: 1 << tries overflows at 31 retries.
      const double wait = std::ldexp(kBackoffCycles, tries);
      trace::metrics().observe("bc.fault.backoff_cycles", wait);
      backoff(wait);
    }
  }
}

}  // namespace detail

}  // namespace bcdyn
