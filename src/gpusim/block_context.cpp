#include "gpusim/block_context.hpp"

#include <limits>

namespace bcdyn::sim {

// Shadow-memory state for one block, allocated only while the thread's
// hazard detector is enabled. `window` maps each address touched in the
// current round to the items that touched it; `state` is the journal the
// Device folds into sim::hazards() after the launch.
struct BlockContext::Shadow {
  static constexpr std::uint64_t kNone =
      std::numeric_limits<std::uint64_t>::max();

  // Per-address slot for the current round. Two reader / atomic lanes are
  // kept so read(A), read(B), write(A) still flags against B; `flagged`
  // caps reporting at one violation per (address, round).
  struct Slot {
    std::uint64_t write_item = kNone;
    std::uint64_t reader1 = kNone;
    std::uint64_t reader2 = kNone;
    std::uint64_t atomic1 = kNone;
    std::uint64_t atomic2 = kNone;
    bool flagged = false;
  };

  std::unordered_map<std::uint64_t, Slot> window;
  BlockHazardState state;
};

BlockContext::BlockContext(const DeviceSpec& spec, const CostModel& cost,
                           int block_id, bool track_atomic_conflicts)
    : spec_(&spec),
      cost_(&cost),
      block_id_(block_id),
      track_conflicts_(track_atomic_conflicts) {
  if (hazards().enabled()) shadow_ = std::make_unique<Shadow>();
}

BlockContext::BlockContext(BlockContext&&) noexcept = default;
BlockContext& BlockContext::operator=(BlockContext&&) noexcept = default;
BlockContext::~BlockContext() = default;

const BlockHazardState* BlockContext::hazard_state() const {
  return shadow_ ? &shadow_->state : nullptr;
}

void BlockContext::close_round(double round_max) {
  // A round costs its issue overhead, the slowest thread's latency chain
  // (divergence max), and the aggregate memory-throughput time of all the
  // accesses the round issued - the term that makes saturating the memory
  // bus with futile loads expensive.
  const double throughput =
      cost_->read_throughput_cycles * static_cast<double>(round_reads_) +
      cost_->write_throughput_cycles * static_cast<double>(round_writes_) +
      cost_->atomic_throughput_cycles * static_cast<double>(round_atomics_);
  counters_.cycles += cost_->round_issue_cycles + round_max + throughput;
  ++counters_.rounds;
  round_reads_ = round_writes_ = round_atomics_ = 0;
  if (track_conflicts_) {
    window_addresses_.clear();
    items_in_warp_ = 0;
  }
  if (shadow_) shadow_->window.clear();  // rounds are the conflict window
  in_item_ = false;
}

void BlockContext::barrier() {
  counters_.cycles += cost_->barrier_cycles;
  ++counters_.barriers;
  if (shadow_) shadow_->window.clear();
}

void BlockContext::note_untracked(std::size_t k) {
  shadow_->state.untracked += k;
}

void BlockContext::track(HazardAccess kind, std::uint64_t address,
                         std::size_t stride, std::size_t k) {
  shadow_->state.tracked += k;
  // Sequential host-side regions (outside parallel_for items) have no
  // concurrent peer to race with; their accesses are tracked but not
  // entered into the round window.
  if (!in_item_) return;
  for (std::size_t j = 0; j < k; ++j) {
    note_access(kind, address + static_cast<std::uint64_t>(j * stride));
  }
}

void BlockContext::note_access(HazardAccess kind, std::uint64_t address) {
  auto& slot = shadow_->window[address];
  if (slot.flagged) return;  // one violation per (address, round)
  const std::uint64_t item = current_item_;

  // The conflicting prior access, if any: a plain write conflicts with any
  // different-item access; a read or atomic conflicts only with a prior
  // plain write by a different item.
  std::uint64_t other = Shadow::kNone;
  HazardAccess other_kind = HazardAccess::kWrite;
  auto differs = [item](std::uint64_t prior) {
    return prior != Shadow::kNone && prior != item;
  };
  if (differs(slot.write_item)) {
    other = slot.write_item;
  } else if (kind == HazardAccess::kWrite) {
    if (differs(slot.reader1)) {
      other = slot.reader1;
      other_kind = HazardAccess::kRead;
    } else if (differs(slot.reader2)) {
      other = slot.reader2;
      other_kind = HazardAccess::kRead;
    } else if (differs(slot.atomic1)) {
      other = slot.atomic1;
      other_kind = HazardAccess::kAtomic;
    } else if (differs(slot.atomic2)) {
      other = slot.atomic2;
      other_kind = HazardAccess::kAtomic;
    }
  }

  if (other != Shadow::kNone) {
    slot.flagged = true;
    auto& state = shadow_->state;
    ++state.violations;
    if (state.records.size() < HazardDetector::kMaxRecords) {
      HazardRecord rec;
      rec.block = block_id_;
      rec.round = counters_.rounds;  // completed rounds == current index
      rec.address = address;
      rec.first_item = other;
      rec.second_item = item;
      rec.first_kind = other_kind;
      rec.second_kind = kind;
      state.records.push_back(std::move(rec));
    }
    return;
  }

  switch (kind) {
    case HazardAccess::kRead:
      if (slot.reader1 == Shadow::kNone || slot.reader1 == item) {
        slot.reader1 = item;
      } else if (slot.reader2 == Shadow::kNone) {
        slot.reader2 = item;
      }
      break;
    case HazardAccess::kWrite:
      if (slot.write_item == Shadow::kNone) slot.write_item = item;
      break;
    case HazardAccess::kAtomic:
      if (slot.atomic1 == Shadow::kNone || slot.atomic1 == item) {
        slot.atomic1 = item;
      } else if (slot.atomic2 == Shadow::kNone) {
        slot.atomic2 = item;
      }
      break;
  }
}

}  // namespace bcdyn::sim
