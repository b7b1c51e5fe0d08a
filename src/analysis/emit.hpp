// Output helpers for the bench binaries: consistent section headers on
// stdout and optional CSV dumps for plotting.
#pragma once

#include <string>

#include "util/table.hpp"

namespace bcdyn::analysis {

/// Prints a boxed section header to stdout.
void print_header(const std::string& title);

/// Prints the table to stdout and, when `csv_path` is non-empty, writes it
/// as CSV (creating/overwriting the file). Returns false on I/O failure.
bool emit_table(const util::Table& table, const std::string& csv_path = "");

/// Writes the thread's metrics registry (trace/metrics.hpp) as one
/// JSON object with sorted keys - the machine-readable companion to the
/// stdout tables. Benches record their headline numbers as gauges
/// (`<bench>.<graph>.<key>`) before calling this, so the file carries both
/// the bench results and the run's bc.*/batch.*/sim.* telemetry. No-op
/// returning true when `path` is empty; false on I/O failure.
bool emit_metrics_json(const std::string& path);

}  // namespace bcdyn::analysis
