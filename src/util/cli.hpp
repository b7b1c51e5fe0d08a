// Minimal --key=value command line parser shared by the tool, example, and
// bench binaries. Unknown flags are an error so typos in sweep scripts
// fail fast.
//
// Every getter optionally carries a help line; flags read that way are
// registered (first read wins, in read order) and rendered by
// print_help(), so a binary's --help output is generated from the exact
// defaults its code paths read - the two cannot drift. The canonical
// shared flags (--engine, --devices, --metrics, --telemetry, --window)
// live in StdFlags/parse_std_flags: every binary that accepts one of
// those spellings must accept all of them with these defaults.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bcdyn::util {

class Cli {
 public:
  /// Parses argv of the form: --key=value --flag (flag means "true").
  /// Throws std::invalid_argument on malformed input.
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  /// Getters mark the key as read (for unused_keys) and, when `help` is
  /// non-empty, register the flag for print_help with the fallback shown
  /// as its default. A numeric value that does not parse completely (for
  /// example --lanes=abc, or an empty list element) prints an error naming
  /// the flag to stderr and exits the process with status 2: flags are read
  /// once at startup, and a typo must not run as a silent 0.
  std::string get(const std::string& key, const std::string& fallback,
                  std::string_view help = {}) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback,
                       std::string_view help = {}) const;
  /// get_int for counts held in an int: a value outside int's range exits
  /// 2 naming the flag instead of wrapping.
  int get_count(const std::string& key, int fallback,
                std::string_view help = {}) const;
  double get_double(const std::string& key, double fallback,
                    std::string_view help = {}) const;
  bool get_bool(const std::string& key, bool fallback,
                std::string_view help = {}) const;

  /// Comma-separated list of integers, e.g. --blocks=1,2,4,8.
  std::vector<std::int64_t> get_int_list(const std::string& key,
                                         std::vector<std::int64_t> fallback,
                                         std::string_view help = {}) const;

  /// For a value that parses but fails the binary's own range check:
  /// prints "error: --KEY wants WANT, got 'VALUE'" and exits 2, the same
  /// path as a value that does not parse.
  [[noreturn]] void reject(const std::string& key, const char* want) const;

  /// Keys the caller never read; useful to reject typos.
  std::vector<std::string> unused_keys() const;

  /// True when --help was passed. Binaries read all their flags first (so
  /// every flag is registered), then print_help() and exit 0.
  bool help_requested() const;

  /// Renders `usage: <tool> ...`, the summary, and one line per
  /// registered flag, in registration order. Output is deterministic - the
  /// golden --help tests diff it byte for byte.
  void print_help(std::string_view tool, std::string_view summary,
                  std::ostream& os) const;

 private:
  struct FlagHelp {
    std::string key;
    std::string fallback;  // rendered default
    std::string help;
  };
  void register_help(const std::string& key, std::string fallback,
                     std::string_view help) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  mutable std::vector<FlagHelp> help_;  // registration order
};

/// The flags shared by every driver binary (tools, examples, benches that
/// take an engine). One spelling, one default, everywhere:
///
///   --engine=cpu|gpu-edge|gpu-node|gpu-adaptive   (default gpu-edge)
///   --devices=N      simulated devices for the GPU engines (default 1)
///   --metrics=PATH   write the metrics JSON ("" = off)
///   --telemetry=PATH stream-telemetry snapshot path ("" = layer off)
///   --window=W       telemetry sliding-window width (default 256)
struct StdFlags {
  std::string engine = "gpu-edge";
  int devices = 1;
  std::string metrics;
  std::string telemetry;
  std::size_t window = 256;
};

/// Reads the shared flags (registering their help lines). Binaries layer
/// their own flags around this; they must not re-read these keys with
/// different defaults.
StdFlags parse_std_flags(const Cli& cli);

/// The serving-layer flags shared by every binary that drives a
/// bc::Service. One spelling, one default, everywhere (mirrors StdFlags):
///
///   --service-window-us=W   coalescing window in virtual microseconds
///                           (0 = coalesce by depth only; default 1000)
///   --service-depth=D       max writes coalesced per commit (default 16;
///                           1 = one-update-per-request)
///   --service-queue=N       bounded read-queue depth (default 64)
///   --service-shed=P        overflow policy: oldest-read | reject-new
///
/// Convert to a bc::ServiceConfig with bc::service_config_from_flags.
struct ServiceFlags {
  double window_us = 1000.0;
  int depth = 16;
  int queue = 64;
  std::string shed = "oldest-read";
};

/// Reads the shared --service-* flags (registering their help lines).
ServiceFlags parse_service_flags(const Cli& cli);

}  // namespace bcdyn::util
