#include "trace/chrome_trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <set>
#include <sstream>

namespace bcdyn::trace {

namespace {

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

const char* phase_code(TraceEvent::Phase phase) {
  switch (phase) {
    case TraceEvent::Phase::kBegin:
      return "B";
    case TraceEvent::Phase::kEnd:
      return "E";
    case TraceEvent::Phase::kComplete:
      return "X";
    case TraceEvent::Phase::kInstant:
      return "i";
    case TraceEvent::Phase::kCounter:
      return "C";
  }
  return "i";
}

void write_args(std::ostream& out, const std::vector<TraceArg>& args) {
  out << "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    out << (i ? "," : "") << json_quote(args[i].key) << ":"
        << fmt_double(args[i].value);
  }
  out << "}";
}

void write_metadata(std::ostream& out, int pid, int tid, const char* kind,
                    const std::string& name, bool& first) {
  out << (first ? "\n" : ",\n") << "  {\"ph\":\"M\",\"name\":\"" << kind
      << "\",\"pid\":" << pid;
  if (tid >= 0) out << ",\"tid\":" << tid;
  out << ",\"args\":{\"name\":" << json_quote(name) << "}}";
  first = false;
}

}  // namespace

void write_chrome_trace(const Tracer& tracer, std::ostream& out) {
  const auto& events = tracer.events();
  auto process_names = tracer.process_names();
  auto thread_names = tracer.thread_names();

  // Default names for tracks that appeared in events but were never
  // explicitly registered.
  std::set<int> pids;
  std::set<std::pair<int, int>> tracks;
  for (const auto& ev : events) {
    pids.insert(ev.pid);
    tracks.insert({ev.pid, ev.tid});
  }
  if (!process_names.count(kHostPid) && pids.count(kHostPid)) {
    process_names[kHostPid] = "host";
  }
  for (const auto& track : tracks) {
    if (thread_names.count(track)) continue;
    if (track.first == kHostPid) {
      thread_names[track] = "thread " + std::to_string(track.second);
    } else if (track.second == kLaunchTrackTid) {
      thread_names[track] = "launches";
    } else {
      thread_names[track] = "SM " + std::to_string(track.second);
    }
  }

  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [pid, name] : process_names) {
    if (!pids.count(pid)) continue;
    write_metadata(out, pid, -1, "process_name", name, first);
  }
  for (const auto& [track, name] : thread_names) {
    if (!tracks.count(track)) continue;
    write_metadata(out, track.first, track.second, "thread_name", name, first);
  }
  // Sort the launch track above the SM tracks inside each device process.
  for (const auto& track : tracks) {
    if (track.first == kHostPid) continue;
    out << (first ? "\n" : ",\n") << "  {\"ph\":\"M\",\"name\":\""
        << "thread_sort_index\",\"pid\":" << track.first
        << ",\"tid\":" << track.second << ",\"args\":{\"sort_index\":"
        << (track.second == kLaunchTrackTid ? -1 : track.second) << "}}";
    first = false;
  }

  for (const auto& ev : events) {
    out << (first ? "\n" : ",\n") << "  {\"ph\":\"" << phase_code(ev.phase)
        << "\",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid
        << ",\"ts\":" << fmt_double(ev.ts_us);
    if (ev.phase == TraceEvent::Phase::kComplete) {
      out << ",\"dur\":" << fmt_double(ev.dur_us);
    }
    if (ev.phase != TraceEvent::Phase::kEnd) {
      out << ",\"name\":" << json_quote(ev.name);
      if (!ev.cat.empty()) out << ",\"cat\":" << json_quote(ev.cat);
      out << ",";
      write_args(out, ev.args);
    }
    if (ev.phase == TraceEvent::Phase::kInstant) out << ",\"s\":\"t\"";
    out << "}";
    first = false;
  }
  out << (first ? "" : "\n") << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string chrome_trace_string(const Tracer& tracer) {
  std::ostringstream out;
  write_chrome_trace(tracer, out);
  return out.str();
}

}  // namespace bcdyn::trace
