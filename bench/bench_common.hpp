// Shared plumbing for the table/figure bench binaries: common CLI flags,
// suite construction, and the Table I-style graph summary.
//
// Common flags (every bench accepts these):
//   --scale=F        suite size multiplier (default 0.25; 1.0 = DESIGN.md §5
//                    defaults; paper-sized graphs need >= 8 and hours)
//   --graphs=a,b     comma-separated suite subset (default: all seven)
//   --graph-file=P   use a real graph file (METIS/edge list) instead
//   --insertions=N   edges removed + re-inserted (paper: 100; default 25)
//   --sources=K      BC approximation sources (paper: 256; default 32)
//   --seed=S         master seed (default 7)
//   --csv=DIR        also write CSV outputs into DIR
//   --metrics=PATH   write bench results + run telemetry as metrics JSON
//   --verify         cross-check engines' final scores where applicable
//   --smoke          CI smoke mode: one tiny graph, minimal reps. Clamps
//                    the common knobs (and each bench's own loops) so the
//                    binary finishes in seconds; ctest runs every bench
//                    this way under the `bench-smoke` label. Acceptance
//                    gates that need realistic sizes are relaxed.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "analysis/emit.hpp"
#include "analysis/experiment.hpp"
#include "bc/bc_store.hpp"
#include "gen/suite.hpp"
#include "graph/degree_stats.hpp"
#include "graph/io.hpp"
#include "trace/metrics.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace bcdyn::bench {

struct CommonConfig {
  double scale = 0.25;
  std::vector<std::string> graph_names;
  std::string graph_file;
  int insertions = 25;
  int sources = 32;
  std::uint64_t seed = 7;
  std::string csv_dir;
  std::string metrics_path;
  bool verify = false;
  bool smoke = false;
};

inline CommonConfig parse_common(const util::Cli& cli) {
  CommonConfig cfg;
  cfg.smoke = cli.get_bool("smoke", false,
                           "CI smoke mode: tiny graph, minimal reps");
  cfg.scale = cli.get_double("scale", cfg.scale,
                             "suite size multiplier (1.0 = DESIGN.md §5)");
  cfg.graph_file =
      cli.get("graph-file", "", "real graph file (METIS/edge list)");
  cfg.insertions = cli.get_count("insertions", cfg.insertions,
                                 "edges removed + re-inserted (paper: 100)");
  cfg.sources = cli.get_count("sources", cfg.sources,
                              "BC approximation sources (paper: 256)");
  cfg.seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 7, "master RNG seed"));
  cfg.csv_dir = cli.get("csv", "", "also write CSV outputs into this dir");
  cfg.metrics_path =
      cli.get("metrics", "", "write bench results as metrics JSON here");
  cfg.verify = cli.get_bool("verify", false,
                            "cross-check engines' final scores");
  const std::string graphs = cli.get(
      "graphs", "", "comma-separated suite subset (default: all)");
  if (cfg.smoke) {
    // One rep of everything on one tiny graph; explicit --graphs/--scale
    // still win so a fast run can target another suite entry.
    if (graphs.empty()) cfg.graph_names = {"small"};
    cfg.scale = std::min(cfg.scale, 0.1);
    cfg.insertions = std::min(cfg.insertions, 4);
    cfg.sources = std::min(cfg.sources, 8);
  }
  if (!cfg.graph_names.empty()) {
    // smoke already chose
  } else if (graphs.empty()) {
    cfg.graph_names = gen::suite_names();
  } else {
    std::size_t pos = 0;
    while (pos < graphs.size()) {
      auto comma = graphs.find(',', pos);
      if (comma == std::string::npos) comma = graphs.size();
      cfg.graph_names.push_back(graphs.substr(pos, comma - pos));
      pos = comma + 1;
    }
  }
  return cfg;
}

inline std::string csv_path(const CommonConfig& cfg, const std::string& name) {
  return cfg.csv_dir.empty() ? "" : cfg.csv_dir + "/" + name + ".csv";
}

/// Builds the requested graphs (suite subset or a single file).
inline std::vector<gen::SuiteEntry> build_graphs(const CommonConfig& cfg) {
  std::vector<gen::SuiteEntry> graphs;
  if (!cfg.graph_file.empty()) {
    graphs.push_back({cfg.graph_file, cfg.graph_file,
                      io::load_graph(cfg.graph_file)});
    return graphs;
  }
  for (const auto& name : cfg.graph_names) {
    graphs.push_back(gen::build_suite_graph(name, cfg.scale, cfg.seed));
  }
  return graphs;
}

/// Prints the Table I analogue for the loaded graphs.
inline void print_graph_summary(const std::vector<gen::SuiteEntry>& graphs) {
  util::Table t({"Name", "Stands in for", "Vertices", "Edges", "AvgDeg",
                 "MaxDeg", "Diam~"});
  for (const auto& entry : graphs) {
    const auto s = compute_stats(entry.graph);
    t.add_row({entry.name, entry.paper_name, std::to_string(s.num_vertices),
               std::to_string(s.num_edges), util::Table::fmt(s.avg_degree, 1),
               std::to_string(s.max_degree),
               std::to_string(s.approx_diameter)});
  }
  analysis::print_header("Benchmark graphs (paper Table I analogue)");
  t.print(std::cout);
}

/// Handles --help for a bench: prints the registered flag table (call this
/// AFTER parse_common and the bench's own getters so every flag is listed)
/// and returns true when the bench should exit 0.
inline bool handle_help(const util::Cli& cli, const std::string& bench,
                        const std::string& summary) {
  if (!cli.help_requested()) return false;
  cli.print_help(bench, summary, std::cout);
  return true;
}

inline void warn_unused(const util::Cli& cli) {
  for (const auto& key : cli.unused_keys()) {
    std::cerr << "warning: unrecognized flag --" << key << "\n";
  }
}

/// False (after printing an error naming --`flag`) when any count is below
/// one; a bench then exits 2 instead of running a meaningless column.
inline bool counts_at_least_one(const std::string& flag,
                                const std::vector<std::int64_t>& counts) {
  for (const std::int64_t c : counts) {
    if (c < 1) {
      std::cerr << "error: --" << flag << " wants counts >= 1, got " << c
                << "\n";
      return false;
    }
  }
  return true;
}

/// Records one headline bench result as a stable-keyed gauge
/// (`<bench>.<graph>.<key>`) destined for the --metrics JSON file.
inline void record_result(const std::string& bench, const std::string& graph,
                          const std::string& key, double value) {
  trace::metrics().set_gauge(bench + "." + graph + "." + key, value);
}

/// Writes the metrics JSON when --metrics was given (no-op otherwise).
inline void emit_metrics(const CommonConfig& cfg) {
  if (analysis::emit_metrics_json(cfg.metrics_path) &&
      !cfg.metrics_path.empty()) {
    std::cout << "metrics JSON -> " << cfg.metrics_path << "\n";
  }
}

}  // namespace bcdyn::bench
