#include "gpusim/fault_injector.hpp"

#include <charconv>
#include <cmath>

#include "trace/metrics.hpp"

namespace bcdyn::sim {

namespace {

/// FNV-1a over the site string: stable across runs and platforms (unlike
/// std::hash), so fault sequences replay byte-identically everywhere.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// splitmix64 finalizer: a full-avalanche bijection, so consecutive
/// sequence indices at one site decorrelate completely.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform [0, 1) from the top 53 bits (the double-mantissa width).
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransferFail: return "transfer_fail";
    case FaultKind::kStreamStall: return "stream_stall";
    case FaultKind::kKernelAbort: return "kernel_abort";
    case FaultKind::kDeviceLoss: return "device_loss";
  }
  return "unknown";
}

FaultPlan FaultPlan::uniform(std::uint64_t seed, double rate) {
  FaultPlan plan;
  plan.seed = seed;
  plan.transfer_fail_rate = rate;
  plan.stall_rate = rate;
  plan.kernel_abort_rate = rate;
  plan.device_loss_rate = rate / 16.0;
  return plan;
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  const auto colon = spec.find(':');
  const std::string_view seed_part = spec.substr(0, colon);
  std::uint64_t seed = 0;
  const auto [seed_end, seed_ec] = std::from_chars(
      seed_part.data(), seed_part.data() + seed_part.size(), seed);
  if (seed_ec != std::errc{} || seed_end != seed_part.data() + seed_part.size() ||
      seed_part.empty()) {
    throw std::invalid_argument("fault plan: bad seed in '" +
                                std::string(spec) + "' (want SEED[:RATE])");
  }
  double rate = 0.02;
  if (colon != std::string_view::npos) {
    const std::string rate_part(spec.substr(colon + 1));
    std::size_t used = 0;
    try {
      rate = std::stod(rate_part, &used);
    } catch (const std::exception&) {
      used = std::string::npos;  // unified error path below
    }
    if (used != rate_part.size() || rate_part.empty() || !(rate >= 0.0) ||
        !(rate <= 1.0)) {
      throw std::invalid_argument("fault plan: bad rate in '" +
                                  std::string(spec) +
                                  "' (want SEED[:RATE], rate in [0,1])");
    }
  }
  return uniform(seed, rate);
}

std::string FaultRecord::to_string() const {
  std::string out("injected ");
  out += sim::to_string(kind);
  out += " at ";
  out += site;
  out += " (decision #";
  out += std::to_string(seq);
  out += ")";
  return out;
}

FaultError::FaultError(FaultRecord record)
    : std::runtime_error(record.to_string()), record_(std::move(record)) {}

void FaultInjector::configure(const FaultPlan& plan) {
  plan_ = plan;
  clear();
}

bool FaultInjector::decide(FaultKind kind, std::string_view site,
                           FaultRecord* fired) {
  double rate = 0.0;
  switch (kind) {
    case FaultKind::kTransferFail: rate = plan_.transfer_fail_rate; break;
    case FaultKind::kStreamStall: rate = plan_.stall_rate; break;
    case FaultKind::kKernelAbort: rate = plan_.kernel_abort_rate; break;
    case FaultKind::kDeviceLoss: rate = plan_.device_loss_rate; break;
  }
  std::string key(to_string(kind));
  key += '|';
  key += site;
  // The sequence advances on every poll, fired or not and filtered or
  // not, so a site's decision stream depends only on how many times the
  // plan has polled it - never on the filter or other sites.
  const std::uint64_t seq = seq_[key]++;
  if (rate <= 0.0) return false;
  if (!plan_.site_filter.empty() &&
      site.find(plan_.site_filter) == std::string_view::npos) {
    return false;
  }
  const std::uint64_t h =
      splitmix64(plan_.seed ^ fnv1a(key) ^ (seq * 0x2545f4914f6cdd1dULL));
  if (to_unit(h) >= rate) return false;
  ++injected_total_;
  ++injected_by_kind_[static_cast<std::size_t>(kind)];
  FaultRecord record{kind, std::string(site), seq};
  if (fired) *fired = record;
  if (records_.size() < kMaxRecords) records_.push_back(std::move(record));
  auto& reg = trace::metrics();
  reg.add("sim.fault.injected.count");
  reg.add(std::string("sim.fault.injected.") +
          std::string(to_string(kind)));
  return true;
}

bool FaultInjector::should_fail_transfer(std::string_view site,
                                         FaultRecord* fired) {
  if (!enabled()) return false;
  return decide(FaultKind::kTransferFail, site, fired);
}

double FaultInjector::stall_cycles(std::string_view site) {
  if (!enabled()) return 0.0;
  if (!decide(FaultKind::kStreamStall, site, nullptr)) return 0.0;
  return plan_.stall_cycles;
}

bool FaultInjector::should_abort_launch(std::string_view site,
                                        FaultRecord* fired) {
  if (!enabled()) return false;
  return decide(FaultKind::kKernelAbort, site, fired);
}

bool FaultInjector::should_lose_device(std::string_view site,
                                       FaultRecord* fired) {
  if (!enabled()) return false;
  return decide(FaultKind::kDeviceLoss, site, fired);
}

void FaultInjector::clear() {
  seq_.clear();
  injected_total_ = 0;
  for (auto& k : injected_by_kind_) k = 0;
  records_.clear();
}

FaultInjector& faults() {
  static thread_local FaultInjector injector;
  return injector;
}

}  // namespace bcdyn::sim
