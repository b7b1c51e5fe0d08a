// bcdyn_trace: drive a traced dynamic-BC run and report what happened.
//
// The tool runs a configurable insertion workload (per-edge updates and/or
// batched updates) through a bc::Session with tracing on, then:
//
//   * writes the Chrome trace-event JSON (--out, default trace.json; load
//     it in chrome://tracing or https://ui.perfetto.dev - pid 0 is host
//     wall time, pid 1+ are the devices' modeled SM/copy-engine/stream
//     timelines);
//   * writes the flat metrics JSON when --metrics=PATH is given;
//   * prints a human report: top kernels by modeled time, per-SM
//     occupancy/imbalance, the case-mix histogram, atomic-conflict
//     hotspots, and - for pipelined runs - the pipeline section.
//
// --hazard additionally turns on the shadow-memory hazard detector in
// strict mode: any same-round data race flagged by a kernel aborts the run
// with the offending kernel/launch/block/round/items, and a clean run adds
// a "== hazard detection ==" section to the report.
//
// --pipeline=D runs the batched phase through the double-buffered pipeline
// driver (Session::insert_edge_batches) at depth D instead of one
// synchronous insert_edge_batch, so the trace shows the copy-engine and
// per-stream tracks and the report gains the "== pipeline ==" section.
//
// --selftest runs fixed scenarios, checks the trace's structural
// invariants (spans nest, every launch's blocks/jobs appear exactly once
// on the SM timelines, exporters parse as JSON), verifies the hazard
// detector stays quiet on the shipped kernels yet fires on a deliberately
// racy fixture, and exits nonzero on any violation - a CI gate for the
// whole observability layer.
//
// With --engine=gpu-adaptive the run plans every launch through the
// adaptive parallelism policy; the report gains an "== adaptive policy =="
// section (decision counts per launch kind, exploration probes, estimator
// accuracy) and --decisions=PATH writes the replayable decision log, one
// "seq kind source mode explored est_edge est_node" line per decision.
//
// --telemetry=PATH turns on the stream-telemetry layer for the run:
// every update is attributed into sequence-numbered sliding-window latency
// percentiles (--window=W), anomalies (> --spike-factor x running median)
// and windowed-p99 SLO breaches (--slo-p99=S, seconds) are flagged, the
// report gains a "== stream telemetry ==" section, and PATH receives the
// stable-key JSON snapshot. --telemetry-events=P streams one JSONL record
// per flagged update; --telemetry-prom=P writes Prometheus exposition.
//
// Run with --help for the full flag list (shared flag spellings/defaults
// come from util::parse_std_flags).

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bc/batch_update.hpp"
#include "bc/pipeline.hpp"
#include "bc/session.hpp"
#include "gen/suite.hpp"
#include "gpusim/device.hpp"
#include "gpusim/fault_injector.hpp"
#include "gpusim/hazard_detector.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/json.hpp"
#include "trace/metrics.hpp"
#include "trace/report.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"
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
  int insertions = 8;
  int batch = 16;  // batched insertions after the per-edge ones (0 = none)
  int pipeline = 0;  // 0 = synchronous batch; D > 0 = pipelined at depth D
  double threshold = 0.25;
  bool conflicts = true;
  bool hazard = false;  // strict shadow-memory hazard detection
  std::string out = "trace.json";
  std::string decisions_out;  // gpu-adaptive: decision-log path ("" = off)
  std::string telemetry_events_out;  // JSONL per flagged update
  std::string telemetry_prom_out;    // Prometheus text exposition
  double slo_p99 = 0.0;              // windowed-p99 budget, seconds (0=off)
  double spike_factor = 8.0;         // anomaly gate vs running median
  std::string faults;  // "SEED[:RATE]": deterministic fault injection
  bool selftest = false;
};

/// Runs the workload through a Session configured with `runtime` and
/// returns the number of applied insertions. The scenario is fully
/// determined by `opt`. When the engine is gpu-adaptive and `decisions` is
/// non-null, the policy's decision log is rendered into it.
int run_scenario(const Options& opt, const bc::Runtime& runtime,
                 std::string* decisions = nullptr) {
  const gen::SuiteEntry entry =
      gen::build_suite_graph(opt.graph, opt.scale, opt.seed);
  const VertexId n = entry.graph.num_vertices();

  bc::Session session(
      entry.graph,
      {.engine = parse_engine_flag(opt.std_flags.engine),
       .approx = {.num_sources = opt.sources, .seed = opt.seed},
       .num_devices = opt.std_flags.devices,
       .track_atomic_conflicts = opt.conflicts,
       .batch_recompute_threshold = opt.threshold,
       .pipeline_depth = opt.pipeline > 0 ? opt.pipeline : 1,
       .runtime = runtime});
  session.compute();

  util::Rng rng(opt.seed ^ 0x5ca1eULL);
  auto random_edge = [&] {
    return std::pair<VertexId, VertexId>(
        static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n))),
        static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n))));
  };

  int applied = 0;
  for (int i = 0; i < opt.insertions; ++i) {
    const auto [u, v] = random_edge();
    if (session.insert_edge(u, v).inserted) ++applied;
  }
  if (opt.batch > 0) {
    std::vector<std::pair<VertexId, VertexId>> edges;
    edges.reserve(static_cast<std::size_t>(opt.batch));
    for (int i = 0; i < opt.batch; ++i) edges.push_back(random_edge());
    if (opt.pipeline > 0) {
      // Split into four sub-batches so the pipeline has stages to overlap.
      std::vector<std::vector<std::pair<VertexId, VertexId>>> batches(4);
      for (std::size_t i = 0; i < edges.size(); ++i) {
        batches[i % batches.size()].push_back(edges[i]);
      }
      applied += session.insert_edge_batches(batches).total.inserted;
    } else {
      applied += session.insert_edge_batch(edges).inserted;
    }
  }
  if (decisions != nullptr && session.policy() != nullptr) {
    std::ostringstream s;
    for (const auto& rec : session.policy()->log()) {
      s << ParallelismPolicy::record_line(rec) << "\n";
    }
    *decisions = s.str();
  }
  return applied;
}

/// Both exporters must produce parseable JSON; returns problems found.
std::vector<std::string> check_exports(const std::string& chrome_json,
                                       const std::string& metrics_json) {
  std::vector<std::string> problems;
  const trace::JsonParseResult chrome = trace::parse_json(chrome_json);
  if (!chrome.ok) {
    problems.push_back("chrome trace is not valid JSON: " + chrome.error);
  } else if (chrome.value.find("traceEvents") == nullptr) {
    problems.push_back("chrome trace lacks a traceEvents array");
  }
  const trace::JsonParseResult met = trace::parse_json(metrics_json);
  if (!met.ok) {
    problems.push_back("metrics export is not valid JSON: " + met.error);
  } else if (met.value.find("counters") == nullptr) {
    problems.push_back("metrics export lacks a counters object");
  }
  return problems;
}

int selftest() {
  Options opt;  // the fixed default scenario
  const bc::Runtime traced{.tracing = true};
  trace::metrics().reset();
  auto& tr = trace::tracer();
  tr.clear();
  run_scenario(opt, traced);
  // Same scenario sharded across two devices: the multi-device timelines
  // must satisfy every trace invariant too.
  Options sharded = opt;
  sharded.std_flags.devices = 2;
  run_scenario(sharded, traced);
  // And once through the adaptive engine, capturing its decision log.
  Options adaptive = opt;
  adaptive.std_flags.engine = "gpu-adaptive";
  std::string decisions;
  run_scenario(adaptive, traced, &decisions);
  // And once pipelined: copy-engine/stream events join the trace and the
  // report gains the pipeline section.
  Options pipelined = opt;
  pipelined.pipeline = 2;
  run_scenario(pipelined, traced);

  std::vector<std::string> problems = trace::validate_events(tr.events());
  const auto exported = check_exports(
      trace::chrome_trace_string(tr),
      [] {
        std::ostringstream s;
        trace::metrics().write_json(s);
        return s.str();
      }());
  problems.insert(problems.end(), exported.begin(), exported.end());

  // The scenario ran GPU launches and per-source updates, so the trace and
  // registry cannot legitimately be empty.
  bool saw_launch = false;
  bool saw_copy = false;
  for (const auto& ev : tr.events()) {
    if (ev.cat == trace::kCatLaunch) saw_launch = true;
    if (ev.cat == trace::kCatCopy) saw_copy = true;
  }
  if (!saw_launch) problems.push_back("no launch summaries recorded");
  if (!saw_copy) problems.push_back("no copy-engine transfers recorded");
  if (trace::metrics().counter_value("bc.case1.count") +
          trace::metrics().counter_value("bc.case2.count") +
          trace::metrics().counter_value("bc.case3.count") ==
      0) {
    problems.push_back("no case-mix counters recorded");
  }
  if (trace::metrics().counter_value("sim.group.launches") == 0) {
    problems.push_back("no device-group launches recorded");
  }

  // --- pipeline: metrics recorded, report section present --------------
  if (trace::metrics().counter_value("bc.pipeline.runs") == 0) {
    problems.push_back("pipeline: no pipelined runs recorded");
  }
  if (trace::metrics().counter_value("sim.copy.transfers") == 0) {
    problems.push_back("pipeline: no sim.copy transfers recorded");
  }
  if (trace::report_string(tr, trace::metrics()).find("== pipeline ==") ==
      std::string::npos) {
    problems.push_back("pipeline: report lacks the pipeline section");
  }

  // --- adaptive policy: decisions logged, counters agree, report shows ---
  const std::uint64_t n_decisions =
      trace::metrics().counter_value("bc.adaptive.decisions.count");
  if (n_decisions == 0) {
    problems.push_back("adaptive: no decisions recorded");
  }
  if (trace::metrics().counter_value("bc.adaptive.edge.count") +
          trace::metrics().counter_value("bc.adaptive.node.count") !=
      n_decisions) {
    problems.push_back("adaptive: edge+node counts do not sum to decisions");
  }
  std::size_t decision_lines = 0;
  for (const char c : decisions) {
    if (c == '\n') ++decision_lines;
  }
  if (decision_lines != n_decisions) {
    problems.push_back("adaptive: decision log has " +
                       std::to_string(decision_lines) + " lines, counters say " +
                       std::to_string(n_decisions));
  }
  if (trace::report_string(tr, trace::metrics())
          .find("== adaptive policy ==") == std::string::npos) {
    problems.push_back("adaptive: report lacks the adaptive-policy section");
  }

  // --- hazard detector: shipped kernels clean, racy fixture fires ------
  auto& hz = sim::hazards();
  hz.clear();
  run_scenario(opt, bc::Runtime{.tracing = true, .hazard_detection = true});
  if (hz.violations() != 0) {
    problems.push_back("hazard: shipped kernels flagged " +
                       std::to_string(hz.violations()) + " violations");
    for (const auto& rec : hz.records()) {
      problems.push_back("hazard:   " + rec.to_string());
    }
  }
  if (hz.enabled()) {
    problems.push_back("hazard: Session did not restore the detector toggle");
  }
  const std::string report = trace::report_string(tr, trace::metrics());
  if (report.find("== hazard detection ==") == std::string::npos) {
    problems.push_back("hazard: report lacks the hazard-detection section");
  }
  if (report.find("no data hazards detected") == std::string::npos) {
    problems.push_back("hazard: report does not state the run was clean");
  }
  // A deliberately racy kernel - every simulated thread writes element 0 -
  // must throw in strict mode and leave an attributable record.
  hz.set_enabled(true);
  hz.set_strict(true);
  sim::Device dev(sim::DeviceSpec::tesla_c2075());
  std::vector<int> cell(1, 0);
  bool fired = false;
  try {
    dev.launch(
        1,
        [&](sim::BlockContext& ctx) {
          ctx.parallel_for(8, [&](std::size_t) { ctx.charge_write(cell, 0); });
        },
        "selftest_racy");
  } catch (const sim::HazardError& e) {
    fired = e.record().kernel == "selftest_racy" &&
            e.record().first_item != e.record().second_item;
  }
  hz.set_strict(false);
  hz.set_enabled(false);
  if (!fired) {
    problems.push_back(
        "hazard: racy fixture did not raise an attributable HazardError");
  }

  // --- stream telemetry: windows fill, exporters parse, section shows --
  run_scenario(opt, bc::Runtime{.tracing = true,
                                .telemetry = true,
                                .telemetry_config = {
                                    .window = 64,
                                    .slo_p99_seconds = 1e-12,  // must breach
                                    .spike_factor = 4.0,
                                    .min_history = 4}});
  auto& tel = trace::telemetry();
  if (tel.enabled()) {
    problems.push_back("telemetry: Session did not restore the toggle");
  }
  const trace::TelemetrySnapshot tsnap = tel.snapshot();
  if (tsnap.updates == 0) {
    problems.push_back("telemetry: no updates recorded");
  }
  if (trace::metrics().counter_value("bc.telemetry.updates.count") !=
      tsnap.updates) {
    problems.push_back("telemetry: updates counter disagrees with snapshot");
  }
  const auto all_it = tsnap.series.find("all");
  if (all_it == tsnap.series.end()) {
    problems.push_back("telemetry: snapshot lacks the 'all' series");
  } else {
    const auto& s = all_it->second;
    if (!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max)) {
      problems.push_back("telemetry: window quantiles are not monotone");
    }
  }
  if (tsnap.slo_breaches == 0) {
    problems.push_back("telemetry: unmeetable SLO produced no breaches");
  }
  for (const auto& ev : tel.events()) {
    if (!trace::parse_json(ev.to_jsonl()).ok) {
      problems.push_back("telemetry: anomaly JSONL record is not valid JSON");
      break;
    }
  }
  {
    std::ostringstream snap_json;
    tel.write_json_snapshot(snap_json);
    const auto parsed = trace::parse_json(snap_json.str());
    if (!parsed.ok) {
      problems.push_back("telemetry: snapshot is not valid JSON: " +
                         parsed.error);
    } else if (parsed.value.find("series") == nullptr) {
      problems.push_back("telemetry: snapshot lacks a series object");
    }
    std::ostringstream prom;
    tel.write_prometheus(prom);
    if (prom.str().find("bcdyn_telemetry_updates_total") ==
        std::string::npos) {
      problems.push_back("telemetry: Prometheus exposition lacks the "
                         "updates counter");
    }
  }
  if (trace::report_string(tr, trace::metrics())
          .find("== stream telemetry ==") == std::string::npos) {
    problems.push_back("telemetry: report lacks the stream-telemetry section");
  }
  // Disabled layer must observe nothing (the bit-identical guarantee).
  tel.clear();
  run_scenario(opt, traced);
  if (tel.total_updates() != 0) {
    problems.push_back("telemetry: disabled layer still recorded updates");
  }

  // --- fault injection: replay, recovery counters, report section ------
  {
    auto& inj = sim::faults();
    if (trace::report_string(tr, trace::metrics()).find("== faults ==") !=
        std::string::npos) {
      problems.push_back("faults: section rendered without any injection");
    }
    const bc::Runtime faulty{
        .tracing = true,
        .fault_injection = true,
        .fault_plan = sim::FaultPlan::uniform(99, 0.05)};
    // Pipelined across two devices so every fault site gets polled:
    // transfers and stalls on the copy engines, group launches, per-device
    // loss polls.
    Options faulty_opt = opt;
    faulty_opt.pipeline = 2;
    faulty_opt.std_flags.devices = 2;
    run_scenario(faulty_opt, faulty);
    if (inj.enabled()) {
      problems.push_back("faults: Session did not restore the injector toggle");
    }
    const std::uint64_t injected = inj.injected();
    if (injected == 0) {
      problems.push_back("faults: plan with rate 0.05 injected nothing");
    }
    std::uint64_t by_kind = 0;
    for (const auto kind :
         {sim::FaultKind::kTransferFail, sim::FaultKind::kStreamStall,
          sim::FaultKind::kKernelAbort, sim::FaultKind::kDeviceLoss}) {
      by_kind += inj.injected(kind);
    }
    if (by_kind != injected) {
      problems.push_back("faults: per-kind counts do not sum to the total");
    }
    if (trace::metrics().counter_value("sim.fault.injected.count") !=
        injected) {
      problems.push_back("faults: injected counter disagrees with injector");
    }
    const std::uint64_t caught =
        trace::metrics().counter_value("bc.fault.caught.count");
    const std::string report = trace::report_string(tr, trace::metrics());
    if (report.find("== faults ==") == std::string::npos) {
      problems.push_back("faults: report lacks the faults section");
    }
    if (report.find("  " + std::to_string(injected) + " injected (") ==
        std::string::npos) {
      problems.push_back("faults: report does not state the injected count");
    }
    if (report.find("  recovery: " + std::to_string(caught) + " caught") ==
        std::string::npos) {
      problems.push_back("faults: report does not state the caught count");
    }
    // Same plan, same scenario: the fired-decision sequence must replay
    // byte-identically (Session::configure restarts every site sequence).
    std::vector<std::string> first;
    for (const auto& rec : inj.records()) first.push_back(rec.to_string());
    run_scenario(faulty_opt, faulty);
    std::vector<std::string> second;
    for (const auto& rec : inj.records()) second.push_back(rec.to_string());
    if (first.empty() || first != second) {
      problems.push_back("faults: same seed did not replay identical records");
    }
    if (inj.injected() != injected) {
      problems.push_back("faults: same seed changed the injected count");
    }
  }

  // --- faults compiled in but disabled: metrics JSON byte-identical ----
  {
    const auto metrics_json = [] {
      std::ostringstream s;
      trace::metrics().write_json(s);
      return s.str();
    };
    trace::metrics().reset();
    tr.clear();
    run_scenario(opt, traced);
    const std::string plain = metrics_json();
    trace::metrics().reset();
    tr.clear();
    run_scenario(opt, bc::Runtime{.tracing = true,
                                  .fault_injection = true,
                                  .fault_plan = sim::FaultPlan::uniform(1, 0.0)});
    if (metrics_json() != plain) {
      problems.push_back(
          "faults: enabled-at-rate-0 injector perturbed the metrics JSON");
    }
  }

  if (!problems.empty()) {
    for (const auto& p : problems) std::cerr << "selftest: " << p << "\n";
    return 1;
  }
  std::cout << "selftest ok: " << tr.event_count() << " events validated\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    Options opt;
    opt.selftest = cli.get_bool("selftest", false,
                                "run the observability CI gate and exit");
    opt.graph = cli.get("graph", opt.graph, "suite graph name (gen/suite)");
    opt.scale = cli.get_double("scale", opt.scale, "suite size multiplier");
    opt.seed = static_cast<std::uint64_t>(cli.get_int(
        "seed", static_cast<std::int64_t>(opt.seed), "master RNG seed"));
    opt.sources = cli.get_count("sources", opt.sources,
                                "BC approximation sources (paper K)");
    opt.std_flags = util::parse_std_flags(cli);
    opt.insertions =
        cli.get_count("insertions", opt.insertions, "per-edge insertions");
    opt.batch = cli.get_count(
        "batch", opt.batch, "batched insertions after the per-edge ones");
    opt.pipeline = cli.get_count(
        "pipeline", opt.pipeline,
        "run the batch phase pipelined at this depth (0 = synchronous)");
    if (opt.pipeline < 0) {
      cli.reject("pipeline", "a depth >= 0 (0 = synchronous)");
    }
    opt.threshold = cli.get_double("threshold", opt.threshold,
                                   "batch recompute-fallback threshold");
    if (!(opt.threshold >= 0.0)) cli.reject("threshold", "a number >= 0");
    opt.conflicts = cli.get_bool("conflicts", opt.conflicts,
                                 "track per-address atomic conflicts");
    opt.hazard = cli.get_bool("hazard", opt.hazard,
                              "strict shadow-memory hazard detection");
    opt.out = cli.get("out", opt.out, "Chrome trace-event JSON path");
    opt.decisions_out = cli.get("decisions", opt.decisions_out,
                                "gpu-adaptive: write the decision log here");
    opt.telemetry_events_out =
        cli.get("telemetry-events", opt.telemetry_events_out,
                "JSONL stream of flagged updates");
    opt.telemetry_prom_out = cli.get("telemetry-prom", opt.telemetry_prom_out,
                                     "Prometheus text exposition path");
    opt.slo_p99 = cli.get_double("slo-p99", opt.slo_p99,
                                 "windowed-p99 SLO budget, seconds (0 = off)");
    opt.spike_factor = cli.get_double(
        "spike-factor", opt.spike_factor, "anomaly gate vs running median");
    opt.faults = cli.get("faults", opt.faults,
                         "deterministic fault injection: SEED[:RATE] "
                         "(rate defaults to 0.02)");
    if (cli.help_requested()) {
      cli.print_help("bcdyn_trace",
                     "Drive a traced dynamic-BC run; write the Chrome trace, "
                     "metrics JSON, and a human report.",
                     std::cout);
      return 0;
    }
    for (const auto& key : cli.unused_keys()) {
      std::cerr << "warning: unrecognized flag --" << key << "\n";
    }
    if (opt.selftest) return selftest();

    trace::metrics().reset();
    auto& tr = trace::tracer();
    tr.clear();
    const bool telemetry_on = !opt.std_flags.telemetry.empty();
    std::ofstream events_file;
    if (telemetry_on && !opt.telemetry_events_out.empty()) {
      events_file.open(opt.telemetry_events_out);
      trace::telemetry().set_event_sink(&events_file);
    }
    bc::Runtime runtime{
        .tracing = true,
        .hazard_detection = opt.hazard,
        .strict_hazards = opt.hazard,
        .telemetry = telemetry_on,
        .telemetry_config = {.window = opt.std_flags.window,
                             .slo_p99_seconds = opt.slo_p99,
                             .spike_factor = opt.spike_factor}};
    if (!opt.faults.empty()) {
      runtime.fault_injection = true;
      runtime.fault_plan = sim::FaultPlan::parse(opt.faults);
    }
    int applied = 0;
    std::string decisions;
    try {
      applied = run_scenario(opt, runtime,
                             opt.decisions_out.empty() ? nullptr : &decisions);
    } catch (const sim::HazardError& e) {
      std::cerr << "bcdyn_trace: " << e.record().to_string() << "\n";
      return 1;
    } catch (const sim::FaultError& e) {
      std::cerr << "bcdyn_trace: recovery exhausted: "
                << e.record().to_string() << "\n";
      return 1;
    }
    if (telemetry_on) {
      trace::telemetry().set_event_sink(nullptr);
      // Windowed percentiles join the metrics JSON as bc.telemetry.* gauges.
      trace::telemetry().publish_gauges(trace::metrics());
    }

    const std::vector<std::string> problems =
        trace::validate_events(tr.events());
    for (const auto& p : problems) {
      std::cerr << "trace invariant violated: " << p << "\n";
    }

    {
      std::ofstream f(opt.out);
      trace::write_chrome_trace(tr, f);
    }
    if (!opt.std_flags.metrics.empty()) {
      std::ofstream f(opt.std_flags.metrics);
      trace::metrics().write_json(f);
    }
    if (!opt.decisions_out.empty()) {
      std::ofstream f(opt.decisions_out);
      f << decisions;
    }
    if (telemetry_on) {
      std::ofstream f(opt.std_flags.telemetry);
      trace::telemetry().write_json_snapshot(f);
      if (!opt.telemetry_prom_out.empty()) {
        std::ofstream p(opt.telemetry_prom_out);
        trace::telemetry().write_prometheus(p);
      }
    }

    std::cout << "bcdyn_trace: graph=" << opt.graph
              << " engine=" << opt.std_flags.engine << " applied " << applied
              << " insertions, recorded " << tr.event_count() << " events\n"
              << "  chrome trace -> " << opt.out << "\n";
    if (!opt.std_flags.metrics.empty()) {
      std::cout << "  metrics      -> " << opt.std_flags.metrics << "\n";
    }
    if (!opt.decisions_out.empty()) {
      std::cout << "  decisions    -> " << opt.decisions_out << "\n";
    }
    if (!opt.faults.empty()) {
      std::cout << "  faults       -> seed " << runtime.fault_plan.seed << ", "
                << sim::faults().injected() << " injected\n";
    }
    if (telemetry_on) {
      std::cout << "  telemetry    -> " << opt.std_flags.telemetry << "\n";
      if (!opt.telemetry_events_out.empty()) {
        std::cout << "  events jsonl -> " << opt.telemetry_events_out << "\n";
      }
      if (!opt.telemetry_prom_out.empty()) {
        std::cout << "  prometheus   -> " << opt.telemetry_prom_out << "\n";
      }
    }
    std::cout << "\n";
    trace::write_report(tr.events(), trace::metrics(), std::cout);
    return problems.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bcdyn_trace: " << e.what() << "\n";
    return 2;
  }
}
