#include "trace/trace.hpp"

#include <chrono>

namespace bcdyn::trace {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& tracer() {
  static thread_local Tracer t;
  return t;
}

void Tracer::set_enabled(bool on) {
  if (on && !enabled_ && epoch_ns_ == 0) epoch_ns_ = steady_ns();
  enabled_ = on;
}

void Tracer::clear() {
  events_.clear();
  epoch_ns_ = steady_ns();
}

double Tracer::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) * 1e-3;
}

void Tracer::begin(std::string_view name, std::string_view cat,
                   std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kBegin;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = now_us();
  ev.args.assign(args.begin(), args.end());
  events_.push_back(std::move(ev));
}

void Tracer::end() {
  if (!enabled()) return;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kEnd;
  ev.ts_us = now_us();
  events_.push_back(std::move(ev));
}

void Tracer::complete(int pid, int tid, double ts_us, double dur_us,
                      std::string_view name, std::string_view cat,
                      std::vector<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kComplete;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.pid = pid;
  ev.tid = tid;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void Tracer::instant(std::string_view name, std::string_view cat,
                     std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kInstant;
  ev.name = name;
  ev.cat = cat;
  ev.ts_us = now_us();
  ev.args.assign(args.begin(), args.end());
  events_.push_back(std::move(ev));
}

void Tracer::counter(std::string_view name, double value) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kCounter;
  ev.name = name;
  ev.ts_us = now_us();
  ev.args.push_back({"value", value});
  events_.push_back(std::move(ev));
}

void Tracer::set_process_name(int pid, std::string name) {
  process_names_[pid] = std::move(name);
}

void Tracer::set_thread_name(int pid, int tid, std::string name) {
  thread_names_[{pid, tid}] = std::move(name);
}

Span::Span(std::string_view name, std::string_view cat,
           std::initializer_list<TraceArg> args)
    : active_(tracer().enabled()) {
  if (active_) tracer().begin(name, cat, args);
}

Span::~Span() {
  if (active_) tracer().end();
}

}  // namespace bcdyn::trace
