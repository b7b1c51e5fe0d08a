#include "gpusim/hazard_detector.hpp"

#include <cstdio>

#include "trace/metrics.hpp"

namespace bcdyn::sim {

std::string_view to_string(HazardAccess kind) {
  switch (kind) {
    case HazardAccess::kRead:
      return "read";
    case HazardAccess::kWrite:
      return "write";
    case HazardAccess::kAtomic:
      return "atomic";
  }
  return "?";
}

std::string HazardRecord::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s-%s hazard on address 0x%llx: kernel '%s' launch %lld "
                "block %d round %llu, items %llu and %llu",
                sim::to_string(first_kind).data(),
                sim::to_string(second_kind).data(),
                static_cast<unsigned long long>(address),
                kernel.empty() ? "kernel" : kernel.c_str(),
                static_cast<long long>(launch), block,
                static_cast<unsigned long long>(round),
                static_cast<unsigned long long>(first_item),
                static_cast<unsigned long long>(second_item));
  return buf;
}

HazardError::HazardError(HazardRecord record)
    : std::runtime_error(record.to_string()), record_(std::move(record)) {}

std::uint64_t HazardDetector::collect(
    std::string_view label, std::span<const BlockHazardState* const> states) {
  bool any = false;
  for (const auto* s : states) any = any || s != nullptr;
  if (!any) return 0;  // every block ran with detection off

  const std::string kernel = label.empty() ? "kernel" : std::string(label);
  std::uint64_t new_violations = 0;
  std::uint64_t new_tracked = 0;
  std::uint64_t new_untracked = 0;
  HazardRecord first;
  bool have_first = false;
  const std::int64_t launch = static_cast<std::int64_t>(launches_checked_);
  ++launches_checked_;
  for (const auto* s : states) {
    if (s == nullptr) continue;
    new_violations += s->violations;
    new_tracked += s->tracked;
    new_untracked += s->untracked;
    for (const auto& r : s->records) {
      HazardRecord stamped = r;
      stamped.kernel = kernel;
      stamped.launch = launch;
      if (!have_first) {
        first = stamped;
        have_first = true;
      }
      if (records_.size() < kMaxRecords) records_.push_back(std::move(stamped));
    }
  }
  violations_ += new_violations;
  tracked_ += new_tracked;
  untracked_ += new_untracked;

  auto& reg = trace::metrics();
  reg.add("sim.hazard.launches");
  if (new_tracked > 0) reg.add("sim.hazard.tracked", new_tracked);
  if (new_untracked > 0) reg.add("sim.hazard.untracked", new_untracked);
  if (new_violations > 0) {
    reg.add("sim.hazard.violations", new_violations);
    reg.add("sim.hazard.violations." + kernel, new_violations);
  }

  if (new_violations > 0 && strict()) {
    if (!have_first) {  // records were capped inside the block; synthesize
      first.kernel = kernel;
    }
    throw HazardError(std::move(first));
  }
  return new_violations;
}

void HazardDetector::clear() {
  launches_checked_ = 0;
  violations_ = 0;
  tracked_ = 0;
  untracked_ = 0;
  records_.clear();
}

HazardDetector& hazards() {
  static thread_local HazardDetector detector;
  return detector;
}

}  // namespace bcdyn::sim
