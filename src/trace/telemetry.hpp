// Streaming per-update telemetry: the tail-latency view of a dynamic-BC
// update stream.
//
// Every DynamicBc update (single insert, removal, batched insert) is
// attributed with its modeled latency, case mix, touched fraction, and
// engine, then folded into sliding-window aggregates: exact streaming
// quantiles (p50/p90/p99/max) over the last `window` updates, kept in
// fixed-capacity rings per series ("all", per update kind, per engine),
// plus cumulative log2 histograms of the same latencies. On top of the
// aggregates sit an SLO monitor (windowed p99 vs a configured budget) and
// an EWMA-baseline anomaly detector that flags any update slower than
// `spike_factor` x the running window median, emitting a structured JSONL
// event with full attribution per flagged update.
//
// Determinism rule: windows are keyed on the update *sequence number*,
// never wall clock, and every monitored quantity is the cost model's
// modeled seconds - so a replayed stream produces bit-identical telemetry,
// and telemetry can be asserted in tests. Host wall time rides along as
// attribution only; it never gates an anomaly.
//
// Like the tracer (and unlike the always-on metrics registry), telemetry
// is an opt-in per-thread singleton: with it disabled, record() returns
// immediately, no bc.telemetry.* metric exists, and reports are
// bit-identical to a build without this layer.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "trace/metrics.hpp"

namespace bcdyn::trace {

enum class UpdateKind { kInsert, kRemove, kBatch, kRead };

const char* to_string(UpdateKind kind);

struct TelemetryConfig {
  /// Sliding-window width W, in updates (sequence-numbered).
  std::size_t window = 256;
  /// Windowed-p99 latency budget in modeled seconds; 0 disables the SLO
  /// monitor.
  double slo_p99_seconds = 0.0;
  /// Anomaly gate: flag an update whose modeled latency exceeds
  /// `spike_factor` x the running window median.
  double spike_factor = 8.0;
  /// Updates that must be in the window before spike/SLO checks arm
  /// (cold-start guard; the first few updates have no baseline).
  std::size_t min_history = 16;
};

/// One attributed update, as reported by the DynamicBc hook.
struct UpdateSample {
  UpdateKind kind = UpdateKind::kInsert;
  const char* engine = "?";  // to_string(EngineKind) literal
  int devices = 1;
  int case1 = 0;
  int case2 = 0;
  int case3 = 0;
  int recomputed_sources = 0;
  double touched_fraction = 0.0;   // max touched set / n
  double modeled_seconds = 0.0;    // the monitored per-update latency
  double wall_seconds = 0.0;       // attribution only, never gates
};

/// A flagged update: a latency spike (> spike_factor x running median), a
/// windowed-p99 SLO breach, or an injected fault the bc recovery layer
/// handled (kFault events come through flag_fault(), not record(); `seq`
/// is then the injector's per-site decision index and `detail` carries the
/// fault record plus the recovery action taken).
struct AnomalyEvent {
  enum class Type { kSpike, kSloBreach, kFault };

  Type type = Type::kSpike;
  std::uint64_t seq = 0;  // update sequence number (1-based)
  UpdateSample sample;
  double median_seconds = 0.0;  // window median when flagged
  double ewma_seconds = 0.0;    // EWMA baseline when flagged
  double window_p99 = 0.0;      // windowed p99 (SLO breaches)
  double threshold_seconds = 0.0;
  std::string detail;           // kFault only: fault site + recovery action

  /// One-line JSON record (stable keys, parseable by trace::parse_json).
  std::string to_jsonl() const;
};

/// Windowed + cumulative aggregates for one series.
struct SeriesSnapshot {
  std::uint64_t total = 0;         // all-time updates in the series
  std::uint64_t window_count = 0;  // samples currently in the window
  double p50 = 0.0;                // exact nearest-rank over the window
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  /// Cumulative log2 histogram of the latencies, in *microseconds* (so
  /// sub-second latencies spread across buckets instead of piling into
  /// bucket 0).
  HistogramSnapshot cumulative_us;
};

struct TelemetrySnapshot {
  TelemetryConfig config;
  std::uint64_t updates = 0;
  std::uint64_t spikes = 0;
  std::uint64_t slo_breaches = 0;
  bool slo_violated = false;  // windowed p99 > budget after the last update
  double ewma_seconds = 0.0;
  /// Keys: "all", "kind:insert|remove|batch|read", "engine:<name>".
  /// (kind:read comes from bc::Service's served reads, not the analytic.)
  std::map<std::string, SeriesSnapshot> series;
};

class StreamTelemetry {
 public:
  /// Replaces the configuration and clears all windows/counters (a window
  /// resize invalidates the rings, so reconfiguring implies clear()).
  void configure(const TelemetryConfig& config);
  const TelemetryConfig& config() const { return config_; }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Drops every sample, event, and counter; keeps config and sink.
  void clear();

  /// Folds one update into the stream. No-op when disabled. Bumps
  /// bc.telemetry.* counters in the thread's metrics registry and writes
  /// flagged updates to the JSONL sink.
  void record(const UpdateSample& sample);

  /// Folds one handled-fault event (type forced to kFault) into the event
  /// log, the JSONL sink, and bc.telemetry.faults.count. No-op when
  /// disabled. Called by the bc recovery layer; fault events never touch
  /// the latency windows or the spike/SLO state.
  void flag_fault(AnomalyEvent event);

  std::uint64_t total_updates() const { return all_.total; }
  std::uint64_t spike_count() const { return spikes_; }
  std::uint64_t slo_breach_count() const { return slo_breaches_; }
  std::uint64_t fault_count() const { return faults_; }
  /// The newest 1,024 flagged updates (the streaming sink sees them all).
  const std::vector<AnomalyEvent>& events() const { return events_; }

  /// Streaming sink for flagged updates (one JSONL line each, written as
  /// they happen). Not owned; pass nullptr to detach. The caller keeps the
  /// stream alive across record() calls.
  void set_event_sink(std::ostream* sink) { sink_ = sink; }

  TelemetrySnapshot snapshot() const;

  /// Publishes the windowed percentiles as bc.telemetry.* gauges (called
  /// by the tools right before exporting metrics JSON; per-update gauge
  /// churn would be wasted work).
  void publish_gauges(MetricsRegistry& registry) const;

  /// Stable-key JSON snapshot (config, totals, per-series windows and
  /// cumulative histograms). Round-trips through trace::parse_json.
  void write_json_snapshot(std::ostream& out) const;

  /// Prometheus text exposition (counters + windowed quantile gauges).
  void write_prometheus(std::ostream& out) const;

  /// The quantile definition the windows use: nearest-rank over a sorted
  /// sample, idx = ceil(q*n)-1 clamped to [0, n-1]. Exposed so tests can
  /// compute the offline reference the same way the paper-trail demands.
  static double exact_quantile(const std::vector<double>& sorted, double q);

 private:
  struct Window {
    std::deque<double> ring;  // last W samples, oldest first
    std::uint64_t total = 0;
    double sum_window = 0.0;
    HistogramSnapshot cumulative_us;
  };

  void push(Window& w, double seconds);
  SeriesSnapshot series_snapshot(const Window& w) const;
  void flag(AnomalyEvent event);

  bool enabled_ = false;
  TelemetryConfig config_;
  std::uint64_t seq_ = 0;
  std::uint64_t spikes_ = 0;
  std::uint64_t slo_breaches_ = 0;
  std::uint64_t faults_ = 0;
  bool slo_violated_ = false;
  bool have_ewma_ = false;
  double ewma_seconds_ = 0.0;
  Window all_;
  std::map<std::string, Window> by_kind_;
  std::map<std::string, Window> by_engine_;
  std::vector<AnomalyEvent> events_;
  std::ostream* sink_ = nullptr;
};

/// The calling thread's stream telemetry, which the DynamicBc hook records
/// into (mirrors trace::tracer() / trace::metrics()).
StreamTelemetry& telemetry();

}  // namespace bcdyn::trace
