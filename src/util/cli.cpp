#include "util/cli.hpp"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <stdexcept>

namespace bcdyn::util {

namespace {

std::string fmt_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

[[noreturn]] void reject_value(const std::string& key, const std::string& text,
                               const char* want) {
  std::fprintf(stderr, "error: --%s wants %s, got '%s'\n", key.c_str(), want,
               text.c_str());
  std::exit(2);
}

std::int64_t parse_int(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    reject_value(key, text, "an integer");
  }
  return value;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --key=value, got: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

void Cli::register_help(const std::string& key, std::string fallback,
                        std::string_view help) const {
  if (help.empty()) return;
  for (const FlagHelp& f : help_) {
    if (f.key == key) return;  // first registration wins
  }
  help_.push_back({key, std::move(fallback), std::string(help)});
}

bool Cli::has(const std::string& key) const {
  read_[key] = true;
  return values_.count(key) > 0;
}

std::string Cli::get(const std::string& key, const std::string& fallback,
                     std::string_view help) const {
  read_[key] = true;
  register_help(key, fallback.empty() ? "\"\"" : fallback, help);
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback,
                          std::string_view help) const {
  read_[key] = true;
  register_help(key, std::to_string(fallback), help);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_int(key, it->second);
}

int Cli::get_count(const std::string& key, int fallback,
                   std::string_view help) const {
  const std::int64_t value = get_int(key, fallback, help);
  if (value < INT_MIN || value > INT_MAX) reject(key, "an int-sized count");
  return static_cast<int>(value);
}

void Cli::reject(const std::string& key, const char* want) const {
  const auto it = values_.find(key);
  reject_value(key, it == values_.end() ? "" : it->second, want);
}

double Cli::get_double(const std::string& key, double fallback,
                       std::string_view help) const {
  read_[key] = true;
  register_help(key, fmt_double(fallback), help);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    reject_value(key, text, "a number");
  }
  return value;
}

bool Cli::get_bool(const std::string& key, bool fallback,
                   std::string_view help) const {
  read_[key] = true;
  register_help(key, fallback ? "true" : "false", help);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& key,
                                            std::vector<std::int64_t> fallback,
                                            std::string_view help) const {
  read_[key] = true;
  {
    std::string def;
    for (std::size_t i = 0; i < fallback.size(); ++i) {
      if (i > 0) def += ",";
      def += std::to_string(fallback[i]);
    }
    register_help(key, def.empty() ? "\"\"" : def, help);
  }
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  const std::string& s = it->second;
  std::size_t pos = 0;
  while (pos < s.size()) {
    auto comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(parse_int(key, s.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

std::vector<std::string> Cli::unused_keys() const {
  std::vector<std::string> unused;
  for (const auto& [key, _] : values_) {
    if (!read_.count(key)) unused.push_back(key);
  }
  return unused;
}

bool Cli::help_requested() const {
  read_["help"] = true;
  return values_.count("help") > 0;
}

void Cli::print_help(std::string_view tool, std::string_view summary,
                     std::ostream& os) const {
  os << "usage: " << tool << " [--flag=value ...]\n\n" << summary << "\n\n";
  os << "flags:\n";
  std::size_t width = 0;
  for (const FlagHelp& f : help_) {
    const std::size_t w = f.key.size() + f.fallback.size() + 3;  // --, =
    if (w > width) width = w;
  }
  for (const FlagHelp& f : help_) {
    std::string left = "--" + f.key + "=" + f.fallback;
    if (left.size() < width) left.append(width - left.size(), ' ');
    os << "  " << left << "  " << f.help << "\n";
  }
  os << "  --help" << std::string(width > 4 ? width - 4 : 1, ' ')
     << "  print this message and exit\n";
}

StdFlags parse_std_flags(const Cli& cli) {
  StdFlags std_flags;
  std_flags.engine =
      cli.get("engine", std_flags.engine,
              "update engine: cpu | gpu-edge | gpu-node | gpu-adaptive");
  std_flags.devices =
      cli.get_count("devices", std_flags.devices,
                    "simulated devices to shard GPU engines across");
  std_flags.metrics =
      cli.get("metrics", std_flags.metrics, "write the metrics JSON here");
  std_flags.telemetry =
      cli.get("telemetry", std_flags.telemetry,
              "stream-telemetry snapshot path (enables the layer)");
  std_flags.window = static_cast<std::size_t>(
      cli.get_int("window", static_cast<std::int64_t>(std_flags.window),
                  "telemetry sliding-window width, in updates"));
  return std_flags;
}

ServiceFlags parse_service_flags(const Cli& cli) {
  ServiceFlags flags;
  flags.window_us = cli.get_double(
      "service-window-us", flags.window_us,
      "coalescing window in virtual us (0 = depth-only coalescing)");
  flags.depth =
      cli.get_count("service-depth", flags.depth,
                    "max writes coalesced per commit (1 = uncoalesced)");
  flags.queue =
      cli.get_count("service-queue", flags.queue, "bounded read-queue depth");
  if (flags.depth < 1) cli.reject("service-depth", "a depth >= 1");
  if (flags.queue < 1) cli.reject("service-queue", "a depth >= 1");
  flags.shed = cli.get("service-shed", flags.shed,
                       "read shed policy: oldest-read | reject-new");
  return flags;
}

}  // namespace bcdyn::util
