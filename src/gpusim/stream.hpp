// Asynchronous streams, events, and the per-device copy engine.
//
// The synchronous launch API (gpusim/device.hpp) lays every kernel out
// back to back on one modeled timeline and models no data movement at all.
// This module adds the CUDA-shaped async vocabulary on top:
//
//   * a Device owns two copy (DMA) engines - one per direction, as on
//     Fermi-class compute parts like the Tesla C2075 - that move bytes
//     between host and device concurrently with the SMs; transfers are
//     costed from their byte count via CostModel (setup + bytes *
//     per-byte), same-direction transfers queue on their engine, and
//     opposite directions overlap;
//   * a Stream is a FIFO of transfers: operations on one stream execute
//     in issue order, operations on different streams overlap whenever
//     their engines are free; a kernel that needs a stream's data orders
//     itself after it with Device::wait_compute_until, and everything else
//     overlaps the copy engines - which is how transfer/compute overlap
//     arises;
//   * an Event is a recorded stream timestamp another stream can wait on
//     (cudaEventRecord / cudaStreamWaitEvent), the dependency edges the
//     pipelined batch engine uses for its double-buffer reuse constraint.
//
// Everything stays deterministic and host-order-independent: stream ops
// only do cycle arithmetic against the device's two engine timelines, so
// modeled makespans are pure functions of the issued op sequence. The
// device's makespan becomes max(SM schedule end, copy-engine end); see
// Device::makespan_cycles(). Host execution of kernels is unchanged -
// results never depend on the modeled schedule.
//
// Trace/metrics surface: transfers land on the device's copy-engine track
// (kCopyEngineTid) and on a per-stream track (kStreamTrackBase + id), and
// bump the sim.copy.* / sim.stream.* metrics.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "gpusim/device.hpp"

namespace bcdyn::sim {

/// Direction of a modeled transfer.
enum class TransferDir { kHostToDevice, kDeviceToHost };

/// Transfer cost in device cycles: the fixed setup charge plus the
/// per-byte interconnect charge for `dir`. Zero-byte transfers still pay
/// the setup (a real cudaMemcpyAsync of 0 bytes still takes the driver
/// round trip).
double transfer_cycles(const CostModel& cost, TransferDir dir,
                       std::uint64_t bytes);

/// Where one transfer landed on the copy-engine timeline. Cycle stamps are
/// absolute device-modeled time (same axis as Device::compute_end_cycles).
struct TransferStats {
  TransferDir dir = TransferDir::kHostToDevice;
  std::uint64_t bytes = 0;
  double start_cycles = 0.0;
  double end_cycles = 0.0;
  double wait_cycles = 0.0;  // how long the op sat behind its stream/engine
  double seconds = 0.0;      // (end - start) / device clock
};

/// A recorded stream timestamp (cudaEvent_t analogue). Default-constructed
/// events are "never recorded" and waiting on them is a no-op, matching
/// CUDA's behaviour for events that were created but never recorded.
class Event {
 public:
  Event() = default;

  bool recorded() const { return recorded_; }
  /// Absolute device-modeled cycle the event fired at (0 if unrecorded).
  double cycles() const { return cycles_; }

  /// An event pinned to an explicit timeline point (used by callers that
  /// synthesize dependency edges, e.g. the pipelined batch engine's
  /// cross-engine barriers).
  static Event at(double cycles) {
    Event e;
    e.cycles_ = cycles;
    e.recorded_ = true;
    return e;
  }

 private:
  friend class Stream;
  double cycles_ = 0.0;
  bool recorded_ = false;
};

/// A FIFO of asynchronous operations on one device. Streams are light
/// handles: the engine timelines live on the Device; the stream only
/// carries its own in-order completion frontier (`ready_cycles`).
///
/// Not thread-safe (neither is the rest of the simulator's launch path);
/// issue stream ops from one thread.
class Stream {
 public:
  /// Registers a named stream on `device` (the name labels the stream's
  /// trace track). The device must outlive the stream.
  Stream(Device& device, std::string name);

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  Device& device() { return *device_; }

  /// When the last operation issued on this stream completes (absolute
  /// device-modeled cycles).
  double ready_cycles() const { return ready_cycles_; }

  /// Enqueues a host->device (resp. device->host) copy of `bytes` bytes.
  /// Starts when both this stream's previous op and the direction's copy
  /// engine are done; occupies that engine until it completes.
  TransferStats memcpy_h2d(std::uint64_t bytes, std::string_view label = {});
  TransferStats memcpy_d2h(std::uint64_t bytes, std::string_view label = {});

  /// cudaEventRecord: captures this stream's current frontier.
  Event record_event() const { return Event::at(ready_cycles_); }

  /// cudaStreamWaitEvent: orders every later op on this stream after the
  /// event. Waiting on an unrecorded event is a no-op.
  void wait_event(const Event& event);

 private:
  Device* device_;
  int id_;
  std::string name_;
  double ready_cycles_ = 0.0;
};

}  // namespace bcdyn::sim
