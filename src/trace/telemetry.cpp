#include "trace/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <sstream>

namespace bcdyn::trace {

namespace {

/// EWMA smoothing for the baseline latency recorded on anomaly events.
constexpr double kEwmaAlpha = 0.125;
/// Retained anomaly records; the oldest drop past the cap.
constexpr std::size_t kMaxEvents = 1024;

/// Shortest round-trippable formatting for a double (same contract as the
/// metrics exporter: JSON has no inf/nan and telemetry never stores them).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char tight[64];
    std::snprintf(tight, sizeof(tight), "%.*g", prec, v);
    if (std::strtod(tight, nullptr) == v) return tight;
  }
  return buf;
}

void observe_us(HistogramSnapshot& h, double seconds) {
  const double us = seconds * 1e6;
  if (h.count == 0) {
    h.min = us;
    h.max = us;
  } else {
    h.min = std::min(h.min, us);
    h.max = std::max(h.max, us);
  }
  ++h.count;
  h.sum += us;
  std::size_t idx = 0;
  if (us >= 1.0) {
    idx = std::min(1 + static_cast<std::size_t>(std::floor(std::log2(us))),
                   HistogramSnapshot::kBuckets - 1);
  }
  ++h.buckets[idx];
}

void write_histogram_json(std::ostream& out, const HistogramSnapshot& h) {
  out << "{\"count\": " << h.count << ", \"sum\": " << fmt_double(h.sum)
      << ", \"min\": " << fmt_double(h.count ? h.min : 0.0)
      << ", \"max\": " << fmt_double(h.count ? h.max : 0.0)
      << ", \"mean\": " << fmt_double(h.mean()) << ", \"buckets\": [";
  std::size_t last = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] != 0) last = i + 1;
  }
  for (std::size_t i = 0; i < last; ++i) {
    out << (i ? ", " : "") << h.buckets[i];
  }
  out << "]}";
}

/// Series keys stay valid Prometheus label values as-is (engine names use
/// '-' and keys use ':', both legal inside a label value).
std::string prom_series_labels(const std::string& key) {
  return "series=\"" + key + "\"";
}

}  // namespace

const char* to_string(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kInsert:
      return "insert";
    case UpdateKind::kRemove:
      return "remove";
    case UpdateKind::kBatch:
      return "batch";
    case UpdateKind::kRead:
      return "read";
  }
  return "?";
}

StreamTelemetry& telemetry() {
  static thread_local StreamTelemetry t;
  return t;
}

std::string AnomalyEvent::to_jsonl() const {
  std::ostringstream out;
  if (type == Type::kFault) {
    // Fault events carry no latency attribution; `detail` is built from
    // fault sites and recovery action names ([a-z0-9._ #] only), so no
    // JSON escaping is needed.
    out << "{\"type\": \"fault\", \"seq\": " << seq << ", \"engine\": \""
        << sample.engine << "\", \"devices\": " << sample.devices
        << ", \"detail\": \"" << detail << "\"}";
    return out.str();
  }
  out << "{\"type\": \""
      << (type == Type::kSpike ? "spike" : "slo_breach") << "\""
      << ", \"seq\": " << seq << ", \"kind\": \"" << to_string(sample.kind)
      << "\", \"engine\": \"" << sample.engine << "\""
      << ", \"devices\": " << sample.devices
      << ", \"case1\": " << sample.case1 << ", \"case2\": " << sample.case2
      << ", \"case3\": " << sample.case3
      << ", \"recomputed_sources\": " << sample.recomputed_sources
      << ", \"touched_fraction\": " << fmt_double(sample.touched_fraction)
      << ", \"latency_seconds\": " << fmt_double(sample.modeled_seconds)
      << ", \"median_seconds\": " << fmt_double(median_seconds)
      << ", \"ewma_seconds\": " << fmt_double(ewma_seconds)
      << ", \"window_p99_seconds\": " << fmt_double(window_p99)
      << ", \"threshold_seconds\": " << fmt_double(threshold_seconds) << "}";
  return out.str();
}

double StreamTelemetry::exact_quantile(const std::vector<double>& sorted,
                                       double q) {
  if (sorted.empty()) return 0.0;
  if (!(q > 0.0)) return sorted.front();
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(std::max(rank - 1.0, 0.0)));
  return sorted[idx];
}

void StreamTelemetry::configure(const TelemetryConfig& config) {
  config_ = config;
  if (config_.window == 0) config_.window = 1;
  clear();
}

void StreamTelemetry::clear() {
  seq_ = 0;
  spikes_ = 0;
  slo_breaches_ = 0;
  faults_ = 0;
  slo_violated_ = false;
  have_ewma_ = false;
  ewma_seconds_ = 0.0;
  all_ = Window{};
  by_kind_.clear();
  by_engine_.clear();
  events_.clear();
}

void StreamTelemetry::push(Window& w, double seconds) {
  w.ring.push_back(seconds);
  w.sum_window += seconds;
  if (w.ring.size() > config_.window) {
    w.sum_window -= w.ring.front();
    w.ring.pop_front();
  }
  ++w.total;
  observe_us(w.cumulative_us, seconds);
}

void StreamTelemetry::flag(AnomalyEvent event) {
  if (event.type == AnomalyEvent::Type::kSpike) {
    ++spikes_;
    metrics().add("bc.telemetry.spikes.count");
  } else if (event.type == AnomalyEvent::Type::kSloBreach) {
    ++slo_breaches_;
    metrics().add("bc.telemetry.slo_breach.count");
  } else {
    ++faults_;
    metrics().add("bc.telemetry.faults.count");
  }
  if (sink_ != nullptr) {
    *sink_ << event.to_jsonl() << "\n";
  }
  if (events_.size() >= kMaxEvents) {
    events_.erase(events_.begin());
  }
  events_.push_back(std::move(event));
}

void StreamTelemetry::record(const UpdateSample& sample) {
  if (!enabled_) return;
  const std::uint64_t seq = ++seq_;
  const double x = sample.modeled_seconds;

  // Spike check against the window *before* this sample joins it: the
  // baseline an update is judged against is the stream so far.
  double median = 0.0;
  bool spiked = false;
  if (all_.ring.size() >= config_.min_history) {
    std::vector<double> sorted(all_.ring.begin(), all_.ring.end());
    std::sort(sorted.begin(), sorted.end());
    median = exact_quantile(sorted, 0.5);
    spiked = median > 0.0 && x > config_.spike_factor * median;
  }

  const double prev_ewma = ewma_seconds_;
  if (!have_ewma_) {
    ewma_seconds_ = x;
    have_ewma_ = true;
  } else {
    ewma_seconds_ = kEwmaAlpha * x + (1.0 - kEwmaAlpha) * ewma_seconds_;
  }

  push(all_, x);
  push(by_kind_[to_string(sample.kind)], x);
  push(by_engine_[sample.engine], x);

  auto& registry = metrics();
  registry.add("bc.telemetry.updates.count");
  registry.add(std::string("bc.telemetry.") + to_string(sample.kind) +
               ".count");
  registry.observe("bc.telemetry.update_us", x * 1e6);

  if (spiked) {
    AnomalyEvent ev;
    ev.type = AnomalyEvent::Type::kSpike;
    ev.seq = seq;
    ev.sample = sample;
    ev.median_seconds = median;
    ev.ewma_seconds = prev_ewma;
    ev.threshold_seconds = config_.spike_factor * median;
    flag(std::move(ev));
  }

  // SLO: windowed p99 (including this sample) against the budget.
  if (config_.slo_p99_seconds > 0.0 &&
      all_.ring.size() >= config_.min_history) {
    std::vector<double> sorted(all_.ring.begin(), all_.ring.end());
    std::sort(sorted.begin(), sorted.end());
    const double p99 = exact_quantile(sorted, 0.99);
    const bool violated = p99 > config_.slo_p99_seconds;
    slo_violated_ = violated;
    if (violated) {
      AnomalyEvent ev;
      ev.type = AnomalyEvent::Type::kSloBreach;
      ev.seq = seq;
      ev.sample = sample;
      ev.median_seconds = median;
      ev.ewma_seconds = ewma_seconds_;
      ev.window_p99 = p99;
      ev.threshold_seconds = config_.slo_p99_seconds;
      flag(std::move(ev));
    }
  }
}

void StreamTelemetry::flag_fault(AnomalyEvent event) {
  if (!enabled_) return;
  event.type = AnomalyEvent::Type::kFault;
  flag(std::move(event));
}

SeriesSnapshot StreamTelemetry::series_snapshot(const Window& w) const {
  SeriesSnapshot s;
  s.total = w.total;
  s.window_count = w.ring.size();
  s.cumulative_us = w.cumulative_us;
  if (w.ring.empty()) return s;
  std::vector<double> sorted(w.ring.begin(), w.ring.end());
  std::sort(sorted.begin(), sorted.end());
  s.p50 = exact_quantile(sorted, 0.5);
  s.p90 = exact_quantile(sorted, 0.9);
  s.p99 = exact_quantile(sorted, 0.99);
  s.max = sorted.back();
  s.mean = w.sum_window / static_cast<double>(sorted.size());
  return s;
}

TelemetrySnapshot StreamTelemetry::snapshot() const {
  TelemetrySnapshot snap;
  snap.config = config_;
  snap.updates = all_.total;
  snap.spikes = spikes_;
  snap.slo_breaches = slo_breaches_;
  snap.slo_violated = slo_violated_;
  snap.ewma_seconds = ewma_seconds_;
  snap.series["all"] = series_snapshot(all_);
  for (const auto& [name, w] : by_kind_) {
    snap.series["kind:" + name] = series_snapshot(w);
  }
  for (const auto& [name, w] : by_engine_) {
    snap.series["engine:" + name] = series_snapshot(w);
  }
  return snap;
}

void StreamTelemetry::publish_gauges(MetricsRegistry& registry) const {
  const TelemetrySnapshot snap = snapshot();
  if (snap.updates == 0) return;
  registry.set_gauge("bc.telemetry.window", static_cast<double>(snap.config.window));
  registry.set_gauge("bc.telemetry.ewma_seconds", snap.ewma_seconds);
  if (snap.config.slo_p99_seconds > 0.0) {
    registry.set_gauge("bc.telemetry.slo.p99_budget_seconds",
                       snap.config.slo_p99_seconds);
    registry.set_gauge("bc.telemetry.slo.violated",
                       snap.slo_violated ? 1.0 : 0.0);
  }
  for (const auto& [key, s] : snap.series) {
    const std::string base = "bc.telemetry." + key + ".";
    registry.set_gauge(base + "window_count",
                       static_cast<double>(s.window_count));
    registry.set_gauge(base + "p50_seconds", s.p50);
    registry.set_gauge(base + "p90_seconds", s.p90);
    registry.set_gauge(base + "p99_seconds", s.p99);
    registry.set_gauge(base + "max_seconds", s.max);
    registry.set_gauge(base + "mean_seconds", s.mean);
  }
}

void StreamTelemetry::write_json_snapshot(std::ostream& out) const {
  const TelemetrySnapshot snap = snapshot();
  out << "{\n  \"config\": {"
      << "\"window\": " << snap.config.window
      << ", \"slo_p99_seconds\": " << fmt_double(snap.config.slo_p99_seconds)
      << ", \"spike_factor\": " << fmt_double(snap.config.spike_factor)
      << ", \"ewma_alpha\": " << fmt_double(kEwmaAlpha)
      << ", \"min_history\": " << snap.config.min_history << "},\n"
      << "  \"totals\": {\"updates\": " << snap.updates
      << ", \"spikes\": " << snap.spikes
      << ", \"slo_breaches\": " << snap.slo_breaches
      << ", \"slo_violated\": " << (snap.slo_violated ? "true" : "false")
      << ", \"ewma_seconds\": " << fmt_double(snap.ewma_seconds) << "},\n"
      << "  \"series\": {";
  bool first = true;
  for (const auto& [key, s] : snap.series) {
    out << (first ? "\n" : ",\n") << "    \"" << key << "\": {"
        << "\"total\": " << s.total
        << ", \"window_count\": " << s.window_count
        << ", \"p50_seconds\": " << fmt_double(s.p50)
        << ", \"p90_seconds\": " << fmt_double(s.p90)
        << ", \"p99_seconds\": " << fmt_double(s.p99)
        << ", \"max_seconds\": " << fmt_double(s.max)
        << ", \"mean_seconds\": " << fmt_double(s.mean)
        << ", \"cumulative_us\": ";
    write_histogram_json(out, s.cumulative_us);
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void StreamTelemetry::write_prometheus(std::ostream& out) const {
  const TelemetrySnapshot snap = snapshot();
  out << "# HELP bcdyn_telemetry_updates_total Updates folded into the "
         "telemetry stream.\n"
      << "# TYPE bcdyn_telemetry_updates_total counter\n"
      << "bcdyn_telemetry_updates_total " << snap.updates << "\n"
      << "# HELP bcdyn_telemetry_spikes_total Updates flagged > "
         "spike_factor x running median.\n"
      << "# TYPE bcdyn_telemetry_spikes_total counter\n"
      << "bcdyn_telemetry_spikes_total " << snap.spikes << "\n"
      << "# HELP bcdyn_telemetry_slo_breaches_total Updates whose windowed "
         "p99 exceeded the budget.\n"
      << "# TYPE bcdyn_telemetry_slo_breaches_total counter\n"
      << "bcdyn_telemetry_slo_breaches_total " << snap.slo_breaches << "\n";
  if (snap.config.slo_p99_seconds > 0.0) {
    out << "# TYPE bcdyn_telemetry_slo_p99_budget_seconds gauge\n"
        << "bcdyn_telemetry_slo_p99_budget_seconds "
        << fmt_double(snap.config.slo_p99_seconds) << "\n"
        << "# TYPE bcdyn_telemetry_slo_violated gauge\n"
        << "bcdyn_telemetry_slo_violated " << (snap.slo_violated ? 1 : 0)
        << "\n";
  }
  out << "# HELP bcdyn_telemetry_update_latency_seconds Windowed modeled "
         "update latency (exact nearest-rank quantiles over the last W "
         "updates).\n"
      << "# TYPE bcdyn_telemetry_update_latency_seconds gauge\n";
  for (const auto& [key, s] : snap.series) {
    if (s.window_count == 0) continue;
    const std::string labels = prom_series_labels(key);
    const struct {
      const char* q;
      double v;
    } rows[] = {{"0.5", s.p50}, {"0.9", s.p90}, {"0.99", s.p99}, {"1", s.max}};
    for (const auto& row : rows) {
      out << "bcdyn_telemetry_update_latency_seconds{" << labels
          << ",quantile=\"" << row.q << "\"} " << fmt_double(row.v) << "\n";
    }
    out << "bcdyn_telemetry_update_latency_seconds_count{" << labels << "} "
        << s.window_count << "\n";
  }
}

}  // namespace bcdyn::trace
