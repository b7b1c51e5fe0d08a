#include "bc/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "bc/dynamic_bc.hpp"
#include "bc/recovery.hpp"
#include "gpusim/stream.hpp"
#include "trace/metrics.hpp"
#include "trace/telemetry.hpp"
#include "trace/trace.hpp"

namespace bcdyn {

namespace {

void fold_batch(const UpdateOutcome& o, UpdateOutcome& total) {
  // Same fold as UpdateOutcome::absorb except modeled_seconds: the
  // pipeline total's modeled time is the overlapped makespan, not the
  // per-batch sum, so the fold must not accumulate it.
  const double makespan = total.modeled_seconds;
  total.absorb(o);
  total.modeled_seconds = makespan;
}

void record_pipeline_metrics(const PipelineResult& res) {
  auto& reg = trace::metrics();
  reg.add("bc.pipeline.runs");
  reg.add("bc.pipeline.batches", static_cast<std::uint64_t>(res.batches));
  reg.add("bc.pipeline.h2d_bytes", res.h2d_bytes);
  reg.add("bc.pipeline.d2h_bytes", res.d2h_bytes);
  reg.set_gauge("bc.pipeline.depth", static_cast<double>(res.depth));
  reg.set_gauge("bc.pipeline.modeled_seconds", res.modeled_seconds);
  reg.set_gauge("bc.pipeline.serial_seconds", res.serial_seconds);
  reg.observe("bc.pipeline.overlap_efficiency", res.overlap_efficiency);
}

/// Host staging cost of one batch, in device cycles: per submitted edge,
/// the adjacency probe + snapshot append a streaming ingest loop pays
/// (modeled with the CostModel's host-CPU coefficients, then moved onto
/// the device-cycle axis so it composes with the engine timelines).
double classify_cycles(const sim::CostModel& cm, std::size_t edges,
                       double cycles_per_second) {
  const auto k = static_cast<std::uint64_t>(edges);
  return sim::cpu_seconds(cm, 24 * k, 12 * k, 6 * k) * cycles_per_second;
}

}  // namespace

std::uint64_t pipeline_upload_bytes(const CSRGraph& g, int accepted_edges) {
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  const auto arcs = static_cast<std::uint64_t>(g.num_arcs());
  return (n + 1) * sizeof(EdgeId)        // row offsets
         + arcs * sizeof(VertexId) * 3   // col indices + arc endpoints
         + static_cast<std::uint64_t>(accepted_edges) * 2 * sizeof(VertexId);
}

PipelineResult DynamicBc::insert_edge_batches(
    std::span<const std::vector<std::pair<VertexId, VertexId>>> batches) {
  if (!computed_) {
    throw std::logic_error(
        "DynamicBc::compute() must run before insert_edge_batches");
  }
  const double threshold = options_.batch_recompute_threshold;
  PipelineResult res;
  res.depth = options_.pipeline_depth;
  res.batches = static_cast<int>(batches.size());
  res.per_batch.reserve(batches.size());
  trace::Span span("bc.insert_edge_batches", "bc",
                   {{"batches", static_cast<double>(batches.size())},
                    {"depth", static_cast<double>(res.depth)}});

  // The CPU engine has no device or copy engine to schedule against; the
  // pipelined driver degenerates to the serial chain at every depth.
  if (engine() == EngineKind::kCpu) {
    for (const auto& edges : batches) {
      UpdateOutcome o;
      const BatchSnapshots batch = stage_batch(edges, o);
      if (!batch.empty()) {
        run_batch_kernels(batch, threshold, o);
        record_telemetry(trace::UpdateKind::kBatch, o);
      }
      res.serial_seconds += o.modeled_seconds;
      fold_batch(o, res.total);
      res.per_batch.push_back(o);
    }
    res.modeled_seconds = res.serial_seconds;
    res.total.modeled_seconds = res.modeled_seconds;
    res.overlap_efficiency = 1.0;
    record_pipeline_metrics(res);
    return res;
  }

  const std::vector<sim::Device*> devs = devices();
  const double cycles_per_second = devs.front()->spec().clock_ghz * 1e9;

  // Start barrier: every engine timeline (SMs, copy engines, staging host)
  // joins at t0, so depth-1 runs are exactly the sum of the batch chains.
  double t0 = 0.0;
  for (const sim::Device* d : devs) t0 = std::max(t0, d->makespan_cycles());
  const sim::Event start = sim::Event::at(t0);

  std::vector<sim::Stream> uploads;
  std::vector<sim::Stream> downloads;
  uploads.reserve(devs.size());
  downloads.reserve(devs.size());
  for (sim::Device* d : devs) {
    uploads.emplace_back(*d, "pipeline upload").wait_event(start);
    downloads.emplace_back(*d, "pipeline download").wait_event(start);
  }

  double host_free = t0;
  std::vector<sim::Event> retired;  // retired[j]: buffer slot j free again
  retired.reserve(batches.size());

  for (std::size_t j = 0; j < batches.size(); ++j) {
    UpdateOutcome o;
    // Double-buffer reuse edge: slot (j mod depth) holds batch j - depth
    // until its scores have landed; staging into it must wait.
    sim::Event slot;  // unrecorded: the first `depth` batches start freely
    if (j >= static_cast<std::size_t>(res.depth)) {
      slot = retired[j - static_cast<std::size_t>(res.depth)];
    }
    const double host_start =
        std::max(host_free, slot.recorded() ? slot.cycles() : t0);
    const BatchSnapshots batch = stage_batch(batches[j], o);
    const double stage_cycles =
        classify_cycles(cost_model_, batches[j].size(), cycles_per_second);
    const double host_done = host_start + stage_cycles;
    host_free = host_done;

    if (batch.empty()) {
      // Nothing accepted: no transfers, no launch; the slot retires as
      // soon as staging rejected the batch.
      retired.push_back(sim::Event::at(host_done));
      res.serial_seconds += stage_cycles / cycles_per_second;
      fold_batch(o, res.total);
      res.per_batch.push_back(o);
      continue;
    }

    const std::uint64_t up_bytes = pipeline_upload_bytes(csr_, o.inserted);
    const sim::Event staged = sim::Event::at(host_done);
    double upload_duration = 0.0;
    for (std::size_t d = 0; d < devs.size(); ++d) {
      uploads[d].wait_event(slot);
      uploads[d].wait_event(staged);
      // A faulted transfer still occupied its copy engine; the retry
      // re-issues behind it. Transfers have no fallback - exhaustion
      // propagates the FaultError to the caller.
      sim::TransferStats t{};
      detail::retry_faults(
          "bc.pipeline.upload", options_.recovery, num_devices(),
          [&] { t = uploads[d].memcpy_h2d(up_bytes, "pipeline.upload"); },
          [&](double cycles) { devs[d]->charge_fault_backoff(cycles); });
      upload_duration = t.end_cycles - t.start_cycles;
      res.h2d_bytes += up_bytes;
      devs[d]->wait_compute_until(t.end_cycles);
    }

    run_batch_kernels(batch, threshold, o);
    record_telemetry(trace::UpdateKind::kBatch, o);

    const std::uint64_t down_bytes =
        static_cast<std::uint64_t>(csr_.num_vertices()) * sizeof(double);
    double retire_cycles = 0.0;
    double download_duration = 0.0;
    for (std::size_t d = 0; d < devs.size(); ++d) {
      downloads[d].wait_event(sim::Event::at(devs[d]->compute_end_cycles()));
      sim::TransferStats t{};
      detail::retry_faults(
          "bc.pipeline.scores", options_.recovery, num_devices(),
          [&] { t = downloads[d].memcpy_d2h(down_bytes, "pipeline.scores"); },
          [&](double cycles) { devs[d]->charge_fault_backoff(cycles); });
      download_duration = t.end_cycles - t.start_cycles;
      res.d2h_bytes += down_bytes;
      retire_cycles = std::max(retire_cycles, downloads[d].ready_cycles());
    }
    retired.push_back(sim::Event::at(retire_cycles));

    res.serial_seconds +=
        stage_cycles / cycles_per_second + upload_duration / cycles_per_second +
        o.modeled_seconds + download_duration / cycles_per_second;
    fold_batch(o, res.total);
    res.per_batch.push_back(o);
  }

  double end = host_free;
  for (const sim::Device* d : devs) end = std::max(end, d->makespan_cycles());
  res.modeled_seconds = (end - t0) / cycles_per_second;
  res.total.modeled_seconds = res.modeled_seconds;
  res.overlap_efficiency =
      res.modeled_seconds > 0.0 ? res.serial_seconds / res.modeled_seconds
                                : 1.0;
  record_pipeline_metrics(res);
  return res;
}

}  // namespace bcdyn
