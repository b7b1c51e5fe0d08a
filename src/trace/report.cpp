#include "trace/report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <vector>

#include "trace/telemetry.hpp"
#include "trace/validate.hpp"

namespace bcdyn::trace {

namespace {

struct KernelAgg {
  int launches = 0;
  int blocks = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

struct SmAgg {
  double busy_us = 0.0;
  int placements = 0;
  double last_end_us = 0.0;
};

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

void rule(std::ostream& out) {
  out << "  " << std::string(66, '-') << "\n";
}

/// Summed wall time of the bc.structure spans and of the update spans
/// (single-edge, batch and pipelined batch calls), Begin/End events
/// matched per host track.
struct StructureWall {
  double structure_us = 0.0;
  double update_us = 0.0;
  int spans = 0;
};

StructureWall structure_wall(const std::vector<TraceEvent>& events) {
  static const std::set<std::string, std::less<>> kUpdateSpans = {
      "bc.insert_edge", "bc.remove_edge", "bc.insert_edge_batch",
      "bc.insert_edge_batches"};
  StructureWall wall;
  std::map<int, std::vector<const TraceEvent*>> open;  // tid -> begins
  for (const auto& ev : events) {
    if (ev.pid != kHostPid) continue;
    auto& stack = open[ev.tid];
    if (ev.phase == TraceEvent::Phase::kBegin) {
      stack.push_back(&ev);
    } else if (ev.phase == TraceEvent::Phase::kEnd && !stack.empty()) {
      const TraceEvent& begin = *stack.back();
      stack.pop_back();
      const double dur = ev.ts_us - begin.ts_us;
      if (begin.name == "bc.structure") {
        wall.structure_us += dur;
        ++wall.spans;
      } else if (kUpdateSpans.count(begin.name) > 0) {
        wall.update_us += dur;
      }
    }
  }
  return wall;
}

}  // namespace

void write_report(const std::vector<TraceEvent>& events,
                  const MetricsRegistry& registry, std::ostream& out) {
  const auto& counters = registry.counters();

  // --- top kernels by modeled time -----------------------------------
  std::map<std::string, KernelAgg> kernels;
  for (const auto& ev : events) {
    if (ev.phase != TraceEvent::Phase::kComplete || ev.cat != kCatLaunch) {
      continue;
    }
    auto& agg = kernels[ev.name];
    agg.launches += 1;
    agg.blocks += static_cast<int>(arg_value(ev, kArgBlocks, 0.0));
    agg.total_us += ev.dur_us;
    agg.max_us = std::max(agg.max_us, ev.dur_us);
  }
  out << "== top kernels by modeled time ==\n";
  if (kernels.empty()) {
    out << "  (no launches recorded; run with tracing enabled)\n";
  } else {
    std::vector<std::pair<std::string, KernelAgg>> ranked(kernels.begin(),
                                                          kernels.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.second.total_us > b.second.total_us;
                     });
    double grand_total = 0.0;
    for (const auto& [name, agg] : ranked) grand_total += agg.total_us;
    out << "  " << std::string(24, ' ')
        << "launches   blocks     total_us       max_us  share\n";
    rule(out);
    for (const auto& [name, agg] : ranked) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %-24s %8d %8d %12.2f %12.2f %5.1f%%\n", name.c_str(),
                    agg.launches, agg.blocks, agg.total_us, agg.max_us,
                    grand_total > 0.0 ? 100.0 * agg.total_us / grand_total
                                      : 0.0);
      out << line;
    }
  }
  // Modeled items versus the item bodies the host ran: the sparse
  // edge-parallel sweeps charge every arc but run only the live ones.
  const std::uint64_t items = registry.counter_value("sim.items");
  if (items > 0) {
    const std::uint64_t host_items = registry.counter_value("sim.host_items");
    out << "  host work: " << host_items << " of " << items
        << " modeled items run on the host ("
        << fmt("%.1f", 100.0 * static_cast<double>(host_items) /
                           static_cast<double>(items))
        << "%)\n";
  }
  // Graph maintenance against the whole update calls, in host wall time:
  // attribution only, so it stays out of the metrics registry and every
  // gate.
  const StructureWall wall = structure_wall(events);
  if (wall.spans > 0) {
    out << "  structure: " << fmt("%.1f", wall.structure_us) << " of "
        << fmt("%.1f", wall.update_us)
        << " us update wall time patching the graph ("
        << fmt("%.1f", wall.update_us > 0.0
                           ? 100.0 * wall.structure_us / wall.update_us
                           : 0.0)
        << "%, " << wall.spans << " calls)\n";
  }

  // --- per-SM occupancy / imbalance per device -----------------------
  std::map<int, std::map<int, SmAgg>> devices;  // pid -> sm -> agg
  for (const auto& ev : events) {
    if (ev.phase != TraceEvent::Phase::kComplete) continue;
    if (ev.cat != kCatBlock && ev.cat != kCatJob) continue;
    auto& sm = devices[ev.pid][ev.tid];
    sm.busy_us += ev.dur_us;
    sm.placements += 1;
    sm.last_end_us = std::max(sm.last_end_us, ev.ts_us + ev.dur_us);
  }
  out << "\n== SM timelines ==\n";
  if (devices.empty()) {
    out << "  (no block placements recorded)\n";
  }
  for (const auto& [pid, sms] : devices) {
    double span_us = 0.0;
    double busy_sum = 0.0;
    double busy_max = 0.0;
    for (const auto& [sm, agg] : sms) {
      span_us = std::max(span_us, agg.last_end_us);
      busy_sum += agg.busy_us;
      busy_max = std::max(busy_max, agg.busy_us);
    }
    const double busy_mean = sms.empty() ? 0.0 : busy_sum / sms.size();
    out << "  device pid " << pid << ": " << sms.size()
        << " SMs, modeled span " << fmt("%.2f", span_us) << " us, occupancy "
        << fmt("%.1f", span_us > 0.0
                           ? 100.0 * busy_sum / (span_us * sms.size())
                           : 0.0)
        << "%, LPT imbalance "
        << fmt("%.2f", busy_mean > 0.0 ? busy_max / busy_mean : 0.0) << "x\n";
    out << "     sm  placements      busy_us   busy%\n";
    for (const auto& [sm, agg] : sms) {
      char line[160];
      std::snprintf(line, sizeof(line), "    %3d  %10d %12.2f  %5.1f%%\n", sm,
                    agg.placements, agg.busy_us,
                    span_us > 0.0 ? 100.0 * agg.busy_us / span_us : 0.0);
      out << line;
    }
  }

  // --- device group (multi-device sharded launches) ------------------
  const std::uint64_t group_launches =
      registry.counter_value("sim.group.launches");
  if (group_launches > 0) {
    out << "\n== device group ==\n";
    out << "  " << fmt("%.0f", registry.gauge_value("sim.group.devices"))
        << " devices, " << group_launches << " sharded launches, "
        << registry.counter_value("sim.group.jobs") << " jobs, "
        << registry.counter_value("sim.group.steals")
        << " cross-device steals\n";
    const auto stolen = registry.histogram("sim.group.stolen_fraction");
    if (stolen.count > 0) {
      out << "  stolen fraction: mean " << fmt("%.3f", stolen.mean())
          << ", max " << fmt("%.3f", stolen.max) << " per launch\n";
    }
    const auto imbalance = registry.histogram("sim.group.imbalance");
    if (imbalance.count > 0) {
      out << "  device imbalance (busiest/mean): mean "
          << fmt("%.2f", imbalance.mean()) << "x, max "
          << fmt("%.2f", imbalance.max) << "x\n";
    }
  }

  // --- async pipeline (insert_edge_batches + copy engine) ------------
  // Only rendered when the pipelined batch driver ran: a synchronous run
  // records no bc.pipeline.* metrics and the report is unchanged.
  const std::uint64_t pipeline_runs =
      registry.counter_value("bc.pipeline.runs");
  if (pipeline_runs > 0) {
    out << "\n== pipeline ==\n";
    out << "  " << pipeline_runs << " pipelined runs, "
        << registry.counter_value("bc.pipeline.batches") << " batches, depth "
        << fmt("%.0f", registry.gauge_value("bc.pipeline.depth")) << "\n";
    const double modeled = registry.gauge_value("bc.pipeline.modeled_seconds");
    const double serial = registry.gauge_value("bc.pipeline.serial_seconds");
    out << "  modeled makespan " << fmt("%.2f", modeled * 1e6)
        << " us vs serial chain " << fmt("%.2f", serial * 1e6) << " us";
    const auto overlap = registry.histogram("bc.pipeline.overlap_efficiency");
    if (overlap.count > 0) {
      out << "  (overlap efficiency mean " << fmt("%.2f", overlap.mean())
          << "x, max " << fmt("%.2f", overlap.max) << "x over "
          << overlap.count << " runs)";
    }
    out << "\n";
    out << "  copy engine: " << registry.counter_value("sim.copy.transfers")
        << " transfers (" << registry.counter_value("sim.copy.h2d.transfers")
        << " H2D / " << registry.counter_value("sim.copy.h2d.bytes")
        << " B up, " << registry.counter_value("sim.copy.d2h.transfers")
        << " D2H / " << registry.counter_value("sim.copy.d2h.bytes")
        << " B down)\n";
    const auto copy_wait = registry.histogram("sim.copy.wait_cycles");
    if (copy_wait.count > 0) {
      out << "  copy-engine queueing: mean " << fmt("%.0f", copy_wait.mean())
          << " cycles, max " << fmt("%.0f", copy_wait.max) << " over "
          << copy_wait.count << " delayed transfers\n";
    }
    const auto stall = registry.histogram("sim.stream.compute_stall_cycles");
    out << "  streams: " << registry.counter_value("sim.stream.created")
        << " created, " << registry.counter_value("sim.stream.event_waits")
        << " event waits";
    if (stall.count > 0) {
      out << ", compute stalled on uploads " << stall.count
          << "x (mean " << fmt("%.0f", stall.mean()) << " cycles)";
    }
    out << "\n";
  }

  // --- case mix ------------------------------------------------------
  const std::uint64_t case1 = registry.counter_value("bc.case1.count");
  const std::uint64_t case2 = registry.counter_value("bc.case2.count");
  const std::uint64_t case3 = registry.counter_value("bc.case3.count");
  const std::uint64_t total_cases = case1 + case2 + case3;
  out << "\n== case mix (per source x update) ==\n";
  if (total_cases == 0) {
    out << "  (no updates recorded)\n";
  } else {
    const struct {
      const char* label;
      std::uint64_t n;
    } rows[] = {{"case 1 (no work)", case1},
                {"case 2 (adjacent)", case2},
                {"case 3 (far)", case3}};
    for (const auto& row : rows) {
      const double share = 100.0 * static_cast<double>(row.n) /
                           static_cast<double>(total_cases);
      char line[160];
      std::snprintf(line, sizeof(line), "  %-18s %10llu  %5.1f%%  ",
                    row.label, static_cast<unsigned long long>(row.n), share);
      out << line << std::string(static_cast<std::size_t>(share / 2.5), '#')
          << "\n";
    }
    const auto touched = registry.histogram("bc.touched_fraction");
    if (touched.count > 0) {
      out << "  touched fraction: mean " << fmt("%.4f", touched.mean())
          << ", max " << fmt("%.4f", touched.max) << " over " << touched.count
          << " updates\n";
    }
    const auto fallback =
        registry.counter_value("batch.fallback_recompute.count");
    if (counters.count("batch.jobs.count")) {
      out << "  batch jobs: " << counters.at("batch.jobs.count") << " ("
          << fallback << " fell back to recompute)\n";
    }
  }

  // --- atomic-conflict hotspots --------------------------------------
  out << "\n== atomic-conflict hotspots ==\n";
  std::vector<std::pair<std::string, std::uint64_t>> hot;
  const std::string prefix = "sim.atomic_conflicts.";
  for (const auto& [name, value] : counters) {
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
        value > 0) {
      hot.emplace_back(name.substr(prefix.size()), value);
    }
  }
  if (hot.empty()) {
    out << "  (none recorded; enable conflict tracking to populate)\n";
  } else {
    std::stable_sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    for (const auto& [name, value] : hot) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-24s %12llu conflicts\n",
                    name.c_str(), static_cast<unsigned long long>(value));
      out << line;
    }
  }

  // --- hazard detection (opt-in shadow-memory pass) ------------------
  // Only rendered when the detector ran: with it off no sim.hazard.*
  // counter exists and the report is byte-identical to a plain run.
  const std::uint64_t hazard_launches =
      registry.counter_value("sim.hazard.launches");
  if (hazard_launches > 0) {
    out << "\n== hazard detection ==\n";
    out << "  " << hazard_launches << " launches checked, "
        << registry.counter_value("sim.hazard.tracked") << " tracked / "
        << registry.counter_value("sim.hazard.untracked")
        << " untracked accesses\n";
    const std::uint64_t violations =
        registry.counter_value("sim.hazard.violations");
    if (violations == 0) {
      out << "  no data hazards detected\n";
    } else {
      out << "  " << violations << " same-round data hazards by kernel:\n";
      std::vector<std::pair<std::string, std::uint64_t>> by_kernel;
      const std::string hz_prefix = "sim.hazard.violations.";
      for (const auto& [name, value] : counters) {
        if (name.size() > hz_prefix.size() &&
            name.compare(0, hz_prefix.size(), hz_prefix) == 0 && value > 0) {
          by_kernel.emplace_back(name.substr(hz_prefix.size()), value);
        }
      }
      std::stable_sort(by_kernel.begin(), by_kernel.end(),
                       [](const auto& a, const auto& b) {
                         return a.second > b.second;
                       });
      for (const auto& [name, value] : by_kernel) {
        char line[160];
        std::snprintf(line, sizeof(line), "  %-24s %12llu hazards\n",
                      name.c_str(), static_cast<unsigned long long>(value));
        out << line;
      }
    }
  }

  // --- fault injection & recovery (opt-in, gpusim/fault_injector.hpp) --
  // Only rendered when the injector fired or the bc layer caught a fault:
  // with sim::faults() disabled neither counter exists and the report is
  // byte-identical to a plain run.
  const std::uint64_t injected =
      registry.counter_value("sim.fault.injected.count");
  const std::uint64_t caught = registry.counter_value("bc.fault.caught.count");
  if (injected > 0 || caught > 0) {
    out << "\n== faults ==\n";
    out << "  " << injected << " injected (";
    const char* kinds[] = {"transfer_fail", "stream_stall", "kernel_abort",
                           "device_loss"};
    bool first = true;
    for (const char* kind : kinds) {
      if (!first) out << ", ";
      first = false;
      out << registry.counter_value("sim.fault.injected." + std::string(kind))
          << " " << kind;
    }
    out << ")\n";
    out << "  recovery: " << caught << " caught, "
        << registry.counter_value("bc.fault.retries.count") << " retries, "
        << registry.counter_value("bc.fault.recovered.count")
        << " recovered, "
        << registry.counter_value("bc.fault.fallback_recompute.count")
        << " recompute fallbacks, "
        << registry.counter_value("bc.fault.exhausted.count")
        << " exhausted\n";
    const auto backoff = registry.histogram("bc.fault.backoff_cycles");
    if (backoff.count > 0) {
      out << "  modeled backoff: mean " << fmt("%.0f", backoff.mean())
          << " cycles, max " << fmt("%.0f", backoff.max) << " over "
          << backoff.count << " retries\n";
    }
    const std::uint64_t lost = registry.counter_value("sim.group.lost_devices");
    if (lost > 0) {
      out << "  device loss: " << lost << " devices lost, "
          << registry.counter_value("sim.group.resharded_jobs")
          << " jobs resharded onto "
          << fmt("%.0f", registry.gauge_value("sim.group.alive_devices"))
          << " survivors\n";
    }
  }

  // --- adaptive policy (gpu-adaptive engine only) --------------------
  // Only rendered when a ParallelismPolicy made decisions: fixed-engine
  // runs emit no bc.adaptive.* counters and their report is unchanged.
  const std::uint64_t decisions =
      registry.counter_value("bc.adaptive.decisions.count");
  if (decisions > 0) {
    const std::uint64_t edge = registry.counter_value("bc.adaptive.edge.count");
    const std::uint64_t node = registry.counter_value("bc.adaptive.node.count");
    out << "\n== adaptive policy ==\n";
    out << "  " << decisions << " decisions: " << edge << " edge-parallel, "
        << node << " node-parallel, "
        << registry.counter_value("bc.adaptive.explore.count")
        << " exploration probes\n";
    out << "  launch kind            edge     node\n";
    const char* kind_rows[] = {"static", "case2", "case3", "removal",
                               "batch"};
    for (const char* kind : kind_rows) {
      const std::uint64_t e = registry.counter_value(
          "bc.adaptive." + std::string(kind) + ".edge.count");
      const std::uint64_t n = registry.counter_value(
          "bc.adaptive." + std::string(kind) + ".node.count");
      if (e == 0 && n == 0) continue;
      char line[160];
      std::snprintf(line, sizeof(line), "  %-18s %8llu %8llu\n", kind,
                    static_cast<unsigned long long>(e),
                    static_cast<unsigned long long>(n));
      out << line;
    }
    const auto ratio = registry.histogram("bc.adaptive.est_ratio");
    if (ratio.count > 0) {
      out << "  estimate/measured cycle ratio: mean " << fmt("%.2f", ratio.mean())
          << ", max " << fmt("%.2f", ratio.max) << " over " << ratio.count
          << " fed-back launches\n";
    }
  }

  // --- stream telemetry (opt-in windowed latency monitor) ------------
  // Reads the thread's trace::telemetry() singleton (like the hazard
  // section, absent unless the layer ran: a disabled run has zero updates
  // and the report is byte-identical to a plain one).
  const TelemetrySnapshot tel = telemetry().snapshot();
  if (tel.updates > 0) {
    out << "\n== stream telemetry ==\n";
    out << "  " << tel.updates << " updates, window " << tel.config.window
        << " (sequence-numbered); " << tel.spikes << " latency spikes (> "
        << fmt("%.1f", tel.config.spike_factor) << "x running median), "
        << tel.slo_breaches << " SLO breaches\n";
    if (tel.config.slo_p99_seconds > 0.0) {
      out << "  SLO: windowed p99 <= "
          << fmt("%.3g", tel.config.slo_p99_seconds * 1e6) << " us -> "
          << (tel.slo_violated ? "VIOLATED" : "ok") << "\n";
    }
    out << "  series                 n(win)       p50_us       p90_us"
           "       p99_us       max_us\n";
    rule(out);
    for (const auto& [key, s] : tel.series) {
      if (s.window_count == 0) continue;
      char line[200];
      std::snprintf(line, sizeof(line),
                    "  %-20s %8llu %12.2f %12.2f %12.2f %12.2f\n",
                    key.c_str(),
                    static_cast<unsigned long long>(s.window_count),
                    s.p50 * 1e6, s.p90 * 1e6, s.p99 * 1e6, s.max * 1e6);
      out << line;
    }
    const auto& cum = tel.series.count("all")
                          ? tel.series.at("all").cumulative_us
                          : HistogramSnapshot{};
    if (cum.count > 0) {
      out << "  cumulative (all-time): mean " << fmt("%.2f", cum.mean())
          << " us, ~p99 " << fmt("%.2f", cum.quantile(0.99)) << " us, max "
          << fmt("%.2f", cum.max) << " us over " << cum.count << " updates\n";
    }
  }

  // --- serving layer (bc::Service) -----------------------------------
  // Only rendered when a Service processed requests: with no Service
  // constructed no bc.service.* key exists and the report is
  // byte-identical to a plain run.
  const std::uint64_t service_requests =
      registry.counter_value("bc.service.requests.count");
  if (service_requests > 0) {
    out << "\n== service ==\n";
    out << "  " << service_requests << " requests ("
        << registry.counter_value("bc.service.reads.count") << " reads / "
        << registry.counter_value("bc.service.writes.count") << " writes), "
        << registry.counter_value("bc.service.reads.shed.count")
        << " reads shed, queue peak "
        << fmt("%.0f", registry.gauge_value("bc.service.queue_peak")) << "\n";
    out << "  " << registry.counter_value("bc.service.commits.count")
        << " commits coalescing "
        << registry.counter_value("bc.service.coalesced_updates.count")
        << " writes; latest epoch "
        << fmt("%.0f", registry.gauge_value("bc.service.epoch"))
        << ", virtual makespan "
        << fmt("%.2f", registry.gauge_value("bc.service.makespan_seconds") *
                           1e6)
        << " us\n";
    const auto coalesce = registry.histogram("bc.service.coalesce_size");
    if (coalesce.count > 0) {
      out << "  coalesce size: mean " << fmt("%.2f", coalesce.mean())
          << ", max " << fmt("%.0f", coalesce.max) << " over "
          << coalesce.count << " commits\n";
    }
    const auto read_lat = registry.histogram("bc.service.read_latency_us");
    const auto read_wait = registry.histogram("bc.service.read_wait_us");
    if (read_lat.count > 0) {
      out << "  read latency: mean " << fmt("%.2f", read_lat.mean())
          << " us, ~p99 " << fmt("%.2f", read_lat.quantile(0.99))
          << " us, max " << fmt("%.2f", read_lat.max) << " us (queue wait mean "
          << fmt("%.2f", read_wait.mean()) << " us)\n";
    }
    // Per-client request counters, in client-id order (counters() is an
    // ordered map keyed "bc.service.client.<id>.requests.count").
    const std::string client_prefix = "bc.service.client.";
    const std::string client_suffix = ".requests.count";
    bool header = false;
    for (const auto& [name, value] : counters) {
      if (name.compare(0, client_prefix.size(), client_prefix) != 0) continue;
      if (name.size() <= client_prefix.size() + client_suffix.size() ||
          name.compare(name.size() - client_suffix.size(),
                       client_suffix.size(), client_suffix) != 0) {
        continue;
      }
      const std::string id = name.substr(
          client_prefix.size(),
          name.size() - client_prefix.size() - client_suffix.size());
      if (!header) {
        out << "  client      requests        shed\n";
        header = true;
      }
      char line[160];
      std::snprintf(line, sizeof(line), "  %-8s %11llu %11llu\n", id.c_str(),
                    static_cast<unsigned long long>(value),
                    static_cast<unsigned long long>(registry.counter_value(
                        client_prefix + id + ".shed.count")));
      out << line;
    }
  }

  // --- frontier sizes (only populated in traced runs) ----------------
  const auto frontier = registry.histogram("bc.frontier_size");
  if (frontier.count > 0) {
    out << "\n== BFS frontier sizes ==\n  " << frontier.count
        << " levels, mean " << fmt("%.1f", frontier.mean()) << ", ~p50 "
        << fmt("%.1f", frontier.quantile(0.5)) << ", ~p99 "
        << fmt("%.1f", frontier.quantile(0.99)) << ", max "
        << fmt("%.0f", frontier.max) << "; log2 buckets:";
    std::size_t top = 0;
    for (std::size_t i = 0; i < frontier.buckets.size(); ++i) {
      if (frontier.buckets[i] > 0) top = i;
    }
    for (std::size_t i = 0; i <= top; ++i) {
      out << " " << frontier.buckets[i];
    }
    out << "\n";
  }
}

std::string report_string(const Tracer& tracer,
                          const MetricsRegistry& registry) {
  std::ostringstream out;
  write_report(tracer.events(), registry, out);
  return out.str();
}

}  // namespace bcdyn::trace
