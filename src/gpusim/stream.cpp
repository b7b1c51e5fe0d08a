#include "gpusim/stream.hpp"

#include <algorithm>
#include <utility>

#include "gpusim/fault_injector.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/validate.hpp"

namespace bcdyn::sim {

double transfer_cycles(const CostModel& cost, TransferDir dir,
                       std::uint64_t bytes) {
  const double per_byte = dir == TransferDir::kHostToDevice
                              ? cost.h2d_cycles_per_byte
                              : cost.d2h_cycles_per_byte;
  return cost.transfer_setup_cycles +
         per_byte * static_cast<double>(bytes);
}

Stream::Stream(Device& device, std::string name)
    : device_(&device),
      id_(device.register_stream(name)),
      name_(std::move(name)) {}

void Stream::wait_event(const Event& event) {
  if (!event.recorded()) return;
  ready_cycles_ = std::max(ready_cycles_, event.cycles());
  trace::metrics().add("sim.stream.event_waits");
}

TransferStats Stream::memcpy_h2d(std::uint64_t bytes, std::string_view label) {
  const Device::TransferRecord r = device_->record_transfer(
      id_, /*host_to_device=*/true, bytes, ready_cycles_, label);
  ready_cycles_ = r.end_cycles;
  return {TransferDir::kHostToDevice, bytes, r.start_cycles, r.end_cycles,
          r.wait_cycles,
          (r.end_cycles - r.start_cycles) / (device_->spec().clock_ghz * 1e9)};
}

TransferStats Stream::memcpy_d2h(std::uint64_t bytes, std::string_view label) {
  const Device::TransferRecord r = device_->record_transfer(
      id_, /*host_to_device=*/false, bytes, ready_cycles_, label);
  ready_cycles_ = r.end_cycles;
  return {TransferDir::kDeviceToHost, bytes, r.start_cycles, r.end_cycles,
          r.wait_cycles,
          (r.end_cycles - r.start_cycles) / (device_->spec().clock_ghz * 1e9)};
}

int Device::register_stream(std::string_view name) {
  const int id = num_streams_++;
  trace::metrics().add("sim.stream.created");
  trace::tracer().set_thread_name(
      trace_pid_, trace::kStreamTrackBase + id,
      "stream " + std::to_string(id) +
          (name.empty() ? "" : " (" + std::string(name) + ")"));
  if (num_streams_ == 1) {
    trace::tracer().set_thread_name(trace_pid_, trace::kCopyEngineTid,
                                    "copy engine 0 (h2d)");
    trace::tracer().set_thread_name(trace_pid_, trace::kCopyEngineTid + 1,
                                    "copy engine 1 (d2h)");
  }
  return id;
}

void Device::wait_compute_until(double cycles) {
  if (cycles <= timeline_origin_cycles_) return;
  trace::metrics().observe("sim.stream.compute_stall_cycles",
                           cycles - timeline_origin_cycles_);
  timeline_origin_cycles_ = cycles;
}

Device::TransferRecord Device::record_transfer(int stream_id,
                                               bool host_to_device,
                                               std::uint64_t bytes,
                                               double not_before_cycles,
                                               std::string_view label) {
  const TransferDir dir = host_to_device ? TransferDir::kHostToDevice
                                         : TransferDir::kDeviceToHost;
  // One DMA engine per direction (the C2075's two async engines): same-
  // direction transfers queue, opposite directions overlap.
  double& engine_end = host_to_device ? h2d_end_cycles_ : d2h_end_cycles_;
  const char* dir_name = host_to_device ? "h2d" : "d2h";
  TransferRecord r;
  r.start_cycles = std::max(engine_end, not_before_cycles);
  r.wait_cycles = r.start_cycles - not_before_cycles;

  // Fault injection: a stall delays the engine grant (added modeled
  // latency before the DMA starts); a failure occupies the engine for the
  // full transfer window - the data never landed, but the bus time was
  // spent - and throws before the caller's stream observes completion.
  auto& injector = faults();
  if (injector.enabled()) {
    const std::string site = fault_domain_ + "." + dir_name;
    const double stall = injector.stall_cycles(site);
    if (stall > 0.0) {
      r.start_cycles += stall;
      r.wait_cycles += stall;
    }
    FaultRecord fired;
    if (injector.should_fail_transfer(site, &fired)) {
      engine_end = r.start_cycles + transfer_cycles(cost_, dir, bytes);
      throw FaultError(std::move(fired));
    }
  }

  r.end_cycles = r.start_cycles + transfer_cycles(cost_, dir, bytes);
  engine_end = r.end_cycles;

  auto& reg = trace::metrics();
  reg.add("sim.copy.transfers");
  reg.add(std::string("sim.copy.") + dir_name + ".transfers");
  reg.add(std::string("sim.copy.") + dir_name + ".bytes", bytes);
  reg.observe("sim.copy.transfer_bytes", static_cast<double>(bytes));
  if (r.wait_cycles > 0.0) reg.observe("sim.copy.wait_cycles", r.wait_cycles);

  auto& tr = trace::tracer();
  if (tr.enabled()) {
    const double us_per_cycle = 1.0 / (spec_.clock_ghz * 1e3);
    const std::string name =
        label.empty() ? std::string("memcpy_") + dir_name : std::string(label);
    std::vector<trace::TraceArg> args = {
        {trace::kArgBytes, static_cast<double>(bytes)},
        {trace::kArgStream, static_cast<double>(stream_id)}};
    tr.complete(trace_pid_, trace::kCopyEngineTid + (host_to_device ? 0 : 1),
                r.start_cycles * us_per_cycle,
                (r.end_cycles - r.start_cycles) * us_per_cycle, name,
                trace::kCatCopy, args);
    tr.complete(trace_pid_, trace::kStreamTrackBase + stream_id,
                r.start_cycles * us_per_cycle,
                (r.end_cycles - r.start_cycles) * us_per_cycle, name,
                trace::kCatStream, std::move(args));
  }
  return r;
}

}  // namespace bcdyn::sim
