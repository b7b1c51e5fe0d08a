// Shadow-memory hazard detection for simulated kernels.
//
// BlockContext::parallel_for executes items sequentially within a block, so
// a kernel that would race on real hardware still produces correct results
// (and passes every differential test) in the simulator. The hazard
// detector closes that gap: when enabled, every *addressed* charge
// (charge_read/write/atomic(span, idx)) also records the memory location it
// models touching, and two accesses to the same address by different items
// of the same SIMT round are flagged when at least one of them is a plain
// (non-atomic) write:
//
//   write/write   -> hazard (lost update)
//   read/write    -> hazard (order-dependent value)
//   atomic/write  -> hazard (plain store can overwrite the RMW)
//   atomic/atomic -> exempt (hardware serializes same-address atomics)
//   read/atomic   -> exempt (word-sized loads cannot tear on the device)
//
// The conflict window is one round: the items of a round occupy distinct
// SIMT lanes and execute concurrently on hardware, while consecutive
// rounds of the same lane are program-ordered. close_round() and barrier()
// both end the window, so a race "masked" by a barrier is not flagged.
// Accesses charged through the legacy unaddressed overloads are invisible
// to the detector and counted as untracked - see DESIGN.md for the sites
// that are deliberately untracked (the paper's benign races).
//
// Violations surface three ways: the sim.hazard.* metrics family, the
// "hazard detection" section of the bcdyn_trace report, and - in strict
// mode - a HazardError thrown from the Device launch that ran the kernel.
// Detection is off by default and, when off, costs one null check per
// charge; modeled cycles and counters are identical either way.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bcdyn::sim {

enum class HazardAccess : std::uint8_t { kRead, kWrite, kAtomic };

std::string_view to_string(HazardAccess kind);

/// One flagged conflict: two items of the same round touched `address`,
/// at least one with a plain write. `first_item` is the item whose access
/// was recorded earlier in the round's shadow window.
struct HazardRecord {
  std::string kernel;         // launch label; stamped at collect() time
  std::int64_t launch = -1;   // ordinal among the detector's checked launches
  int block = 0;              // block id (launch) or queue lane (launch_queue)
  std::uint64_t round = 0;    // global round index within the block's run
  std::uint64_t address = 0;  // shadowed location (host address of the slot)
  std::uint64_t first_item = 0;
  std::uint64_t second_item = 0;
  HazardAccess first_kind = HazardAccess::kRead;
  HazardAccess second_kind = HazardAccess::kRead;

  std::string to_string() const;
};

/// Thrown by strict-mode detection from the launch that ran the offending
/// kernel (after its stats, metrics, and trace events were recorded).
class HazardError : public std::runtime_error {
 public:
  explicit HazardError(HazardRecord record);
  const HazardRecord& record() const { return record_; }

 private:
  HazardRecord record_;
};

/// Per-block shadow journal, filled by BlockContext while a kernel runs and
/// folded into the thread's detector when the launch finishes. `violations`
/// counts flagged (address, round) conflict sites; `records` keeps the
/// first few with full context.
struct BlockHazardState {
  std::vector<HazardRecord> records;
  std::uint64_t violations = 0;
  std::uint64_t tracked = 0;    // addressed accesses (visible to detection)
  std::uint64_t untracked = 0;  // unaddressed accesses (invisible)
};

/// Per-thread hazard detector (like trace::tracer(): the simulator has
/// one, the engines never construct it). BlockContext samples enabled() at
/// construction; Device and DeviceGroup call collect() once per launch.
class HazardDetector {
 public:
  /// Keep the first kMaxRecords violation records; counts are unbounded.
  static constexpr std::size_t kMaxRecords = 64;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// In strict mode collect() throws HazardError on the first violation of
  /// the launch being collected (implies nothing unless enabled).
  void set_strict(bool on) { strict_ = on; }
  bool strict() const { return strict_; }

  /// Folds one launch's per-block states (null entries = block ran with
  /// detection off) into the detector and the sim.hazard.* metrics. Stamps
  /// `label` and the launch ordinal onto kept records. Returns the number
  /// of violations this launch added; throws HazardError (after recording
  /// everything) when strict and that number is nonzero.
  std::uint64_t collect(std::string_view label,
                        std::span<const BlockHazardState* const> states);

  std::uint64_t launches_checked() const { return launches_checked_; }
  std::uint64_t violations() const { return violations_; }
  std::uint64_t tracked_accesses() const { return tracked_; }
  std::uint64_t untracked_accesses() const { return untracked_; }
  /// The first kMaxRecords violations, stamped.
  const std::vector<HazardRecord>& records() const { return records_; }

  /// Drops accumulated state; leaves enabled/strict flags alone.
  void clear();

 private:
  bool enabled_ = false;
  bool strict_ = false;
  std::uint64_t launches_checked_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t tracked_ = 0;
  std::uint64_t untracked_ = 0;
  std::vector<HazardRecord> records_;
};

/// The calling thread's detector, which the simulator records into.
HazardDetector& hazards();

}  // namespace bcdyn::sim
