// bcdyn_monitor: replay a long generator-suite update stream through
// DynamicBc with stream telemetry on and render a periodic top-style
// digest of the latency distribution - the operator's view of the
// analytic as a continuous service.
//
// The stream interleaves three update kinds deterministically from the
// seed: single-edge insertions (the default), removals of previously
// inserted edges (every --remove-every ops), and batched insertions of
// --batch edges (every --batch-every ops). After every --interval updates
// the tool prints a digest: windowed p50/p90/p99/max modeled latency per
// series, spike and SLO-breach counts, and the case-mix so far. At the
// end it writes the stable-key JSON snapshot (--telemetry), the per-flag
// JSONL event log (--events), and Prometheus exposition (--prom), and
// always round-trips the snapshot through the strict JSON parser (exit 1
// on malformed output).
//
// Everything shown is the cost model's modeled seconds over
// sequence-numbered windows - no wall clock - so a rerun with the same
// flags prints bit-identical digests.
//
// Run with --help for the full flag list (shared flag spellings/defaults
// come from util::parse_std_flags).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/session.hpp"
#include "gen/suite.hpp"
#include "trace/json.hpp"
#include "trace/metrics.hpp"
#include "trace/telemetry.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcdyn;

struct Options {
  std::string graph = "small";
  double scale = 0.25;
  std::uint64_t seed = 7;
  int sources = 32;
  util::StdFlags std_flags;  // --engine/--devices/--metrics/--telemetry/--window
  int updates = 128;      // total update operations in the stream
  int remove_every = 4;   // every Kth op removes a prior insertion (0=never)
  int batch_every = 16;   // every Kth op is a batched insert (0=never)
  int batch = 8;          // edges per batched insert
  double threshold = 0.25;
  double slo_p99 = 0.0;
  double spike_factor = 8.0;
  int interval = 32;  // digest period in updates (0 = final digest only)
  std::string events_out;
  std::string prom_out;
  bool fail_on_slo = false;
};

std::string fmt_us(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%10.2f", seconds * 1e6);
  return buf;
}

void print_digest(const Options& opt, int done, std::uint64_t case1,
                  std::uint64_t case2, std::uint64_t case3) {
  const trace::TelemetrySnapshot snap = trace::telemetry().snapshot();
  std::cout << "-- update " << done << "/" << opt.updates << "  engine "
            << opt.std_flags.engine << "  window " << snap.config.window
            << "  spikes "
            << snap.spikes << "  slo ";
  if (snap.config.slo_p99_seconds > 0.0) {
    std::cout << (snap.slo_violated ? "VIOLATED" : "ok") << " ("
              << snap.slo_breaches << " breaches)";
  } else {
    std::cout << "unset";
  }
  std::cout << " --\n";
  std::cout << "  series                n(win)     p50_us     p90_us"
               "     p99_us     max_us\n";
  for (const auto& [key, s] : snap.series) {
    if (s.window_count == 0) continue;
    char head[64];
    std::snprintf(head, sizeof(head), "  %-20s %7llu", key.c_str(),
                  static_cast<unsigned long long>(s.window_count));
    std::cout << head << fmt_us(s.p50) << fmt_us(s.p90) << fmt_us(s.p99)
              << fmt_us(s.max) << "\n";
  }
  const std::uint64_t cases = case1 + case2 + case3;
  if (cases > 0) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  case mix: %4.1f%% / %4.1f%% / %4.1f%%   ewma %1.2f us\n",
                  100.0 * static_cast<double>(case1) / static_cast<double>(cases),
                  100.0 * static_cast<double>(case2) / static_cast<double>(cases),
                  100.0 * static_cast<double>(case3) / static_cast<double>(cases),
                  snap.ewma_seconds * 1e6);
    std::cout << line;
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    Options opt;
    opt.graph = cli.get("graph", opt.graph, "suite graph name (gen/suite)");
    opt.scale = cli.get_double("scale", opt.scale, "suite size multiplier");
    opt.seed = static_cast<std::uint64_t>(cli.get_int(
        "seed", static_cast<std::int64_t>(opt.seed), "master RNG seed"));
    opt.sources = cli.get_count("sources", opt.sources,
                                "BC approximation sources (paper K)");
    opt.std_flags = util::parse_std_flags(cli);
    opt.updates = cli.get_count(
        "updates", opt.updates, "total update operations in the stream");
    opt.remove_every =
        cli.get_count("remove-every", opt.remove_every,
                      "every Kth op removes a prior insertion (0 = never)");
    opt.batch_every =
        cli.get_count("batch-every", opt.batch_every,
                      "every Kth op is a batched insert (0 = never)");
    opt.batch = cli.get_count("batch", opt.batch, "edges per batched insert");
    opt.threshold = cli.get_double("threshold", opt.threshold,
                                   "batch recompute-fallback threshold");
    if (!(opt.threshold >= 0.0)) cli.reject("threshold", "a number >= 0");
    opt.slo_p99 = cli.get_double("slo-p99", opt.slo_p99,
                                 "windowed-p99 SLO budget, seconds (0 = off)");
    opt.spike_factor = cli.get_double(
        "spike-factor", opt.spike_factor, "anomaly gate vs running median");
    opt.interval =
        cli.get_count("interval", opt.interval,
                      "digest period in updates (0 = final digest only)");
    opt.events_out = cli.get("events", opt.events_out,
                             "JSONL stream of flagged updates");
    opt.prom_out =
        cli.get("prom", opt.prom_out, "Prometheus text exposition path");
    opt.fail_on_slo = cli.get_bool("fail-on-slo", opt.fail_on_slo,
                                   "exit 3 when the windowed p99 SLO fails");
    if (cli.help_requested()) {
      cli.print_help("bcdyn_monitor",
                     "Replay a deterministic update stream with stream "
                     "telemetry on; print periodic top-style latency digests.",
                     std::cout);
      return 0;
    }
    for (const auto& key : cli.unused_keys()) {
      std::cerr << "warning: unrecognized flag --" << key << "\n";
    }

    const gen::SuiteEntry entry =
        gen::build_suite_graph(opt.graph, opt.scale, opt.seed);
    const VertexId n = entry.graph.num_vertices();
    // The event sink outlives the Session (set before telemetry arms).
    std::ofstream events_file;
    if (!opt.events_out.empty()) {
      events_file.open(opt.events_out);
      trace::telemetry().set_event_sink(&events_file);
    }
    bc::Session bc(
        entry.graph,
        {.engine = parse_engine_flag(opt.std_flags.engine),
         .approx = {.num_sources = opt.sources, .seed = opt.seed},
         .num_devices = opt.std_flags.devices,
         .batch_recompute_threshold = opt.threshold,
         .runtime = {.telemetry = true,
                     .telemetry_config = {.window = opt.std_flags.window,
                                          .slo_p99_seconds = opt.slo_p99,
                                          .spike_factor = opt.spike_factor}}});
    std::cout << "bcdyn_monitor: graph=" << opt.graph << " (" << n
              << " vertices), engine=" << opt.std_flags.engine << ", devices="
              << opt.std_flags.devices << ", stream of " << opt.updates
              << " updates\n\n";
    bc.compute();
    auto& tel = trace::telemetry();

    util::Rng rng(opt.seed ^ 0x3e1e3e77ULL);
    auto random_edge = [&] {
      return std::pair<VertexId, VertexId>(
          static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n))),
          static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n))));
    };
    std::vector<std::pair<VertexId, VertexId>> inserted;
    std::uint64_t case1 = 0;
    std::uint64_t case2 = 0;
    std::uint64_t case3 = 0;
    auto absorb = [&](const UpdateOutcome& o) {
      case1 += static_cast<std::uint64_t>(o.case1);
      case2 += static_cast<std::uint64_t>(o.case2);
      case3 += static_cast<std::uint64_t>(o.case3);
    };

    for (int i = 1; i <= opt.updates; ++i) {
      if (opt.batch_every > 0 && i % opt.batch_every == 0) {
        std::vector<std::pair<VertexId, VertexId>> edges;
        edges.reserve(static_cast<std::size_t>(opt.batch));
        for (int b = 0; b < opt.batch; ++b) edges.push_back(random_edge());
        absorb(bc.insert_edge_batch(edges));
      } else if (opt.remove_every > 0 && i % opt.remove_every == 0 &&
                 !inserted.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(inserted.size())));
        const auto [u, v] = inserted[pick];
        inserted.erase(inserted.begin() + static_cast<std::ptrdiff_t>(pick));
        absorb(bc.remove_edge(u, v));
      } else {
        const auto [u, v] = random_edge();
        const UpdateOutcome o = bc.insert_edge(u, v);
        if (o.inserted) inserted.emplace_back(u, v);
        absorb(o);
      }
      if (opt.interval > 0 && i % opt.interval == 0 && i < opt.updates) {
        print_digest(opt, i, case1, case2, case3);
      }
    }
    tel.set_enabled(false);
    tel.set_event_sink(nullptr);
    print_digest(opt, opt.updates, case1, case2, case3);

    // Flagged updates, most recent last.
    const auto events = tel.events();
    if (!events.empty()) {
      std::cout << "flagged updates (" << events.size() << " retained):\n";
      const std::size_t show = std::min<std::size_t>(events.size(), 5);
      for (std::size_t i = events.size() - show; i < events.size(); ++i) {
        std::cout << "  " << events[i].to_jsonl() << "\n";
      }
      std::cout << "\n";
    }

    // The snapshot must round-trip through the strict parser even when
    // nobody asked for a file - this is the tool's own output contract.
    std::ostringstream snap_json;
    tel.write_json_snapshot(snap_json);
    const auto parsed = trace::parse_json(snap_json.str());
    if (!parsed.ok) {
      std::cerr << "bcdyn_monitor: snapshot JSON invalid: " << parsed.error
                << "\n";
      return 1;
    }
    if (!opt.std_flags.telemetry.empty()) {
      std::ofstream f(opt.std_flags.telemetry);
      f << snap_json.str();
      std::cout << "telemetry snapshot -> " << opt.std_flags.telemetry << "\n";
    }
    if (!opt.events_out.empty()) {
      std::cout << "anomaly events     -> " << opt.events_out << "\n";
    }
    if (!opt.prom_out.empty()) {
      std::ofstream f(opt.prom_out);
      tel.write_prometheus(f);
      std::cout << "prometheus         -> " << opt.prom_out << "\n";
    }
    if (!opt.std_flags.metrics.empty()) {
      tel.publish_gauges(trace::metrics());
      std::ofstream f(opt.std_flags.metrics);
      trace::metrics().write_json(f);
      std::cout << "metrics JSON       -> " << opt.std_flags.metrics << "\n";
    }

    const bool slo_violated = tel.snapshot().slo_violated;
    if (opt.fail_on_slo && slo_violated) {
      std::cerr << "bcdyn_monitor: SLO violated (windowed p99 > "
                << opt.slo_p99 << " s)\n";
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bcdyn_monitor: " << e.what() << "\n";
    return 2;
  }
}
