// Per-thread metrics: named counters, gauges, and summary histograms.
//
// Unlike the tracer, the registry is always on - a bump is one map update,
// cheap at the rates the engines emit (per source x insertion,
// per kernel launch), and keeping it unconditional lets the test suite
// assert accounting invariants (e.g. case1+case2+case3 == sources) without
// a mode switch. Metrics never feed back into modeled results.
//
// Naming convention: dotted lowercase paths, lowest-frequency prefix first -
//   bc.case1.count / bc.case2.count / bc.case3.count  per-source scenarios
//   bc.touched_fraction                                histogram, per source
//   bc.frontier_size                                   histogram (traced runs)
//   batch.fallback_recompute.count                     jobs that recomputed
//   batch.touched_fraction                             cumulative, per job
//   sim.launches / sim.blocks / sim.atomic_conflicts   device totals
//   sim.occupancy / sim.imbalance                      per-launch histograms
//   sim.group.launches / sim.group.jobs                sharded group totals
//   sim.group.steals                                   cross-device steals
//   sim.group.devices                                  gauge, group width
//   sim.group.stolen_fraction / sim.group.imbalance    per-launch histograms
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

namespace bcdyn::trace {

/// Summary + coarse log2 buckets of every value passed to observe():
/// bucket 0 holds values < 1, bucket i >= 1 holds [2^(i-1), 2^i).
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 32;

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // meaningful only when count > 0
  double max = 0.0;
  std::array<std::uint64_t, kBuckets> buckets{};

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Interpolated quantile estimate from the log2 buckets: the samples of
  /// the bucket containing rank q*count are assumed uniformly spread over
  /// the bucket's value range [2^(i-1), 2^i), and the result is clamped to
  /// the observed [min, max]. The estimate is exact at q=0 and q=1 and
  /// otherwise lands inside the true sample's bucket, so the relative
  /// error is bounded by the bucket width (< 2x), and much tighter when
  /// the bucket is well-populated. The canonical helper for deriving
  /// percentiles from a snapshot - callers must not re-derive from raw
  /// buckets. `q` is clamped to [0, 1]; returns 0 when empty.
  double quantile(double q) const;
};

class MetricsRegistry {
 public:
  void add(std::string_view name, std::uint64_t delta = 1);
  void set_gauge(std::string_view name, double value);
  void observe(std::string_view name, double value);

  std::uint64_t counter_value(std::string_view name) const;  // 0 if absent
  double gauge_value(std::string_view name, double fallback = 0.0) const;
  HistogramSnapshot histogram(std::string_view name) const;  // empty if absent

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, HistogramSnapshot>& histograms() const {
    return histograms_;
  }

  void reset();

  /// Flat machine-readable export: one JSON object with "counters",
  /// "gauges" and "histograms" sections, keys sorted for stable diffs.
  void write_json(std::ostream& out) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, HistogramSnapshot> histograms_;
};

/// The calling thread's registry, which the engines and simulator record
/// into.
MetricsRegistry& metrics();

}  // namespace bcdyn::trace
