#include "trace/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace bcdyn::trace {

namespace {

std::size_t bucket_index(double value) {
  if (!(value >= 1.0)) return 0;
  const auto idx = 1 + static_cast<std::size_t>(std::floor(std::log2(value)));
  return std::min(idx, HistogramSnapshot::kBuckets - 1);
}

/// Shortest round-trippable formatting for a double (JSON has no inf/nan;
/// callers never store those).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer a shorter form when it round-trips exactly.
  for (int prec = 1; prec < 17; ++prec) {
    char tight[64];
    std::snprintf(tight, sizeof(tight), "%.*g", prec, v);
    if (std::strtod(tight, nullptr) == v) return tight;
  }
  return buf;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets[b];
    if (static_cast<double>(seen) >= target) {
      const double lo = b == 0 ? 0.0 : std::exp2(static_cast<double>(b) - 1.0);
      const double hi = std::exp2(static_cast<double>(b));  // b=0 -> [0, 1)
      const double f = (target - before) / static_cast<double>(buckets[b]);
      return std::clamp(lo + f * (hi - lo), min, max);
    }
  }
  return max;
}

MetricsRegistry& metrics() {
  static thread_local MetricsRegistry m;
  return m;
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  counters_[std::string(name)] += delta;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  gauges_[std::string(name)] = value;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  HistogramSnapshot& h = histograms_[std::string(name)];
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    h.min = std::min(h.min, value);
    h.max = std::max(h.max, value);
  }
  ++h.count;
  h.sum += value;
  ++h.buckets[bucket_index(value)];
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const auto it = counters_.find(std::string(name));
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge_value(std::string_view name,
                                    double fallback) const {
  const auto it = gauges_.find(std::string(name));
  return it == gauges_.end() ? fallback : it->second;
}

HistogramSnapshot MetricsRegistry::histogram(std::string_view name) const {
  const auto it = histograms_.find(std::string(name));
  return it == histograms_.end() ? HistogramSnapshot{} : it->second;
}

void MetricsRegistry::reset() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out << (first ? "\n" : ",\n") << "    " << json_quote(name) << ": "
        << value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges_) {
    out << (first ? "\n" : ",\n") << "    " << json_quote(name) << ": "
        << fmt_double(value);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "\n" : ",\n") << "    " << json_quote(name) << ": {"
        << "\"count\": " << h.count << ", \"sum\": " << fmt_double(h.sum)
        << ", \"min\": " << fmt_double(h.count ? h.min : 0.0)
        << ", \"max\": " << fmt_double(h.count ? h.max : 0.0)
        << ", \"mean\": " << fmt_double(h.mean()) << ", \"buckets\": [";
    // Trim trailing zero buckets to keep the export compact.
    std::size_t last = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] != 0) last = i + 1;
    }
    for (std::size_t i = 0; i < last; ++i) {
      out << (i ? ", " : "") << h.buckets[i];
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace bcdyn::trace
