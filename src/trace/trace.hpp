// The system's flight recorder: a per-thread tracer with nestable spans
// and typed timeline events, designed to be zero-overhead when disabled.
//
// Two timelines coexist in one trace, distinguished by pid:
//
//   pid 0 ("host")        B/E span events stamped with host wall time on
//                         the single host track (tid 0); spans strictly
//                         nest.
//   pid 1+ ("device N")   X complete events on the *modeled-cycles* axis,
//                         one pid per sim::Device instance. Track (tid) s
//                         is SM s carrying the block/job placement
//                         timeline; a separate "launches" track carries one
//                         event per kernel launch. Successive launches on a
//                         device lay out back to back (the device keeps a
//                         running modeled-time origin), so the exported
//                         trace shows the whole run, not just one launch.
//
// Every recording method early-returns when the tracer is disabled, so an
// untraced run pays one flag test per call site and allocates nothing;
// modeled results never depend on the tracer state.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bcdyn::trace {

inline constexpr int kHostPid = 0;
inline constexpr int kDevicePidBase = 1;  // pid of the first sim::Device
/// Device-pid track that carries one event per kernel launch (SM tracks
/// use tids [0, num_sms)).
inline constexpr int kLaunchTrackTid = 1000000;
/// Device-pid track for the copy (DMA) engine: one complete event per
/// modeled H2D/D2H transfer (gpusim/stream.hpp).
inline constexpr int kCopyEngineTid = 2000000;
/// Per-stream timelines: stream `s` mirrors its ops on tid
/// kStreamTrackBase + s of its device's pid.
inline constexpr int kStreamTrackBase = 1500000;

/// A numeric key/value attached to an event (shown in chrome://tracing's
/// argument pane and consumed by the report/validators).
struct TraceArg {
  std::string key;
  double value = 0.0;
};

struct TraceEvent {
  enum class Phase : std::uint8_t {
    kBegin,     // host span open ("B")
    kEnd,       // host span close ("E")
    kComplete,  // explicit interval ("X"), used for modeled timelines
    kInstant,   // point event ("i")
    kCounter,   // counter sample ("C")
  };

  Phase phase = Phase::kInstant;
  std::string name;
  std::string cat;
  double ts_us = 0.0;   // host: wall us since tracer epoch; device: modeled us
  double dur_us = 0.0;  // kComplete only
  int pid = kHostPid;
  int tid = 0;  // host events stay on track 0: one tracer per thread
  std::vector<TraceArg> args;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on);

  /// Drops all recorded events and restarts the host-time epoch. Track
  /// names are kept (they describe topology, not history).
  void clear();

  /// Host wall time in microseconds since the tracer epoch.
  double now_us() const;

  // --- host spans (B/E on the host track) -------------------------------
  void begin(std::string_view name, std::string_view cat,
             std::initializer_list<TraceArg> args = {});
  void end();

  // --- explicit timeline events (modeled time, any track) ---------------
  void complete(int pid, int tid, double ts_us, double dur_us,
                std::string_view name, std::string_view cat,
                std::vector<TraceArg> args = {});

  void instant(std::string_view name, std::string_view cat,
               std::initializer_list<TraceArg> args = {});
  void counter(std::string_view name, double value);

  // --- track naming (metadata; recorded even while disabled) ------------
  void set_process_name(int pid, std::string name);
  void set_thread_name(int pid, int tid, std::string name);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t event_count() const { return events_.size(); }
  const std::map<int, std::string>& process_names() const {
    return process_names_;
  }
  const std::map<std::pair<int, int>, std::string>& thread_names() const {
    return thread_names_;
  }

 private:
  bool enabled_ = false;
  std::int64_t epoch_ns_ = 0;
  std::vector<TraceEvent> events_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> thread_names_;
};

/// The calling thread's tracer, which every subsystem records into.
Tracer& tracer();

/// RAII host span: opens on construction (if tracing is enabled at that
/// moment), closes on destruction. Safe to use unconditionally.
class Span {
 public:
  Span(std::string_view name, std::string_view cat,
       std::initializer_list<TraceArg> args = {});
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

}  // namespace bcdyn::trace
