// Multi-client serving front-end over bc::Session: update coalescing on
// the write path, epoch-versioned MVCC snapshots on the read path.
//
//   bc::Service service(graph, {.engine = EngineKind::kGpuEdge},
//                       {.coalesce_window_seconds = 1e-3,
//                        .coalesce_depth = 16});
//   auto responses = service.run(requests);   // sorted by arrival_time
//
// Clients submit Request{client_id, arrival_time, Read|Insert|Remove}
// streams. The scheduler runs entirely in *virtual time* (modeled
// seconds, never wall clock - the same determinism contract as telemetry
// and fault injection), so a replayed stream produces byte-identical
// responses, epochs, and metrics.
//
// Write path: adjacent writes of the same kind buffer until (a) the
// coalescing window measured from the first buffered write expires,
// (b) the buffer reaches coalesce_depth, (c) a write of the other kind
// arrives (adjacency broken), or (d) flush(). A flushed insert run of
// size >= 2 goes through Session::insert_edge_batch - the fused batch
// path whose scores agree with sequential application to the repo's
// established 1e-7 equivalence (tests/test_batch_update.cpp); set
// fused_commits = false to apply coalesced writes one-by-one instead,
// which makes final scores bit-identical at every coalescing depth at
// the cost of the fused-kernel speedup. Replaying the same stream with
// the same config is byte-identical either way. Each commit publishes
// epoch N+1 to the SnapshotStore at its engine completion time.
//
// Read path: reads never wait on the engine. Each read costs
// read_cost_seconds on the front-end timeline and pins
// snapshots().pinned_at(start): the latest epoch committed at or before
// the read's start, so a read racing an in-flight batch sees epoch N,
// never a torn N+1. Admission is a bounded FIFO (queue_depth); on
// overflow the configured shed policy drops the oldest queued read
// (freeing the head for fresher traffic) or rejects the incoming one.
//
// Two timelines model the asymmetry the paper's serving framing needs:
// the *front-end* serves reads and pays commit_cost_seconds to dispatch
// each commit (the per-epoch publication overhead coalescing amortizes -
// this is why read tail latency improves under a write-heavy stream),
// while the *engine* timeline runs the analytic's own modeled seconds.
// The initial static pass is provisioning: epoch 0 commits at t=0 with
// both timelines free.
//
// Everything is observable under bc.service.* metrics and an optional
// "kind:read" telemetry series; with no Service constructed, no
// bc.service.* key exists and reports are byte-identical to before.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bc/session.hpp"
#include "bc/snapshot_store.hpp"

namespace bcdyn::util {
struct ServiceFlags;
}  // namespace bcdyn::util

namespace bcdyn::bc {

enum class RequestKind { kRead, kInsert, kRemove };

const char* to_string(RequestKind kind);

struct Request {
  int client_id = 0;
  /// Virtual arrival time in modeled seconds. run() stable-sorts by
  /// arrival, and arrivals earlier than anything already processed clamp
  /// forward (the virtual clock never runs backwards). Must be finite:
  /// run() rejects NaN and infinities with std::invalid_argument.
  double arrival_time = 0.0;
  RequestKind kind = RequestKind::kRead;
  /// Read: the queried vertex (kNoVertex = no score lookup, epoch-only).
  /// Insert/Remove: the edge endpoints.
  VertexId u = kNoVertex;
  VertexId v = kNoVertex;
};

struct Response {
  std::uint64_t seq = 0;  // submission order within the service lifetime
  int client_id = 0;
  RequestKind kind = RequestKind::kRead;
  VertexId u = kNoVertex;  // echoed from the request
  VertexId v = kNoVertex;
  /// True when admission control dropped this read: epoch and value stay
  /// zero, and start/completion both sit at the drop time (so latency()
  /// is the time the read waited before being shed).
  bool shed = false;
  /// Epoch the request observed (reads) or produced (writes).
  std::uint64_t epoch = 0;
  /// Reads: score of Request::u in the pinned epoch (0 for kNoVertex).
  double value = 0.0;
  double arrival_time = 0.0;
  double start_time = 0.0;       // virtual service start
  double completion_time = 0.0;  // virtual completion (commit for writes)
  double latency() const { return completion_time - arrival_time; }
};

enum class ShedPolicy {
  kOldestRead,  // drop the oldest queued read to admit the newcomer
  kRejectNew,   // drop the incoming read, keep the queue intact
};

const char* to_string(ShedPolicy policy);

struct ServiceConfig {
  /// Coalescing window in modeled seconds, measured from the first
  /// buffered write's arrival. 0 disables time-based coalescing.
  double coalesce_window_seconds = 1e-3;
  /// Maximum writes per commit; 1 = one-update-per-request (the uncoalesced
  /// baseline bench/service_throughput compares against).
  int coalesce_depth = 16;
  /// Bounded read queue; an admission beyond this sheds per `shed`.
  std::size_t queue_depth = 64;
  ShedPolicy shed = ShedPolicy::kOldestRead;
  /// Front-end cost of serving one read from the pinned snapshot.
  double read_cost_seconds = 1e-6;
  /// Front-end cost of dispatching one commit (epoch publication +
  /// batch hand-off) - the overhead coalescing amortizes.
  double commit_cost_seconds = 10e-6;
  /// Coalesced insert runs of size >= 2 dispatch through the fused
  /// batch engine (Session::insert_edge_batch): fastest, and scores
  /// agree with sequential application to 1e-7 (the batch path's
  /// floating-point summation order differs, so agreement is near-equal
  /// rather than bitwise - the same contract test_batch_update.cpp
  /// asserts). Set false to apply each coalesced write individually:
  /// final scores are then bit-identical at every coalescing depth.
  bool fused_commits = true;
  /// Snapshots kept resident in the SnapshotStore.
  std::size_t snapshot_retain = 64;
  /// Record each served read as a telemetry UpdateSample (kind:read
  /// series) when the telemetry layer is enabled.
  bool telemetry_reads = true;
};

/// Aggregate accounting over the service lifetime (virtual time).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads_served = 0;
  std::uint64_t reads_shed = 0;
  std::uint64_t commits = 0;
  std::uint64_t coalesced_updates = 0;  // writes that went through commits
  std::size_t queue_peak = 0;
  std::uint64_t latest_epoch = 0;
  double makespan_seconds = 0.0;  // completion of the last response
  double read_p50_seconds = 0.0;  // exact nearest-rank over served reads
  double read_p99_seconds = 0.0;
  double read_max_seconds = 0.0;
};

/// Builds a ServiceConfig from the shared --service-* CLI flags
/// (util::ServiceFlags); throws std::invalid_argument on an unknown shed
/// policy name.
ServiceConfig service_config_from_flags(const util::ServiceFlags& flags);

class Service {
 public:
  /// Owns a Session over `g` (applying options.runtime exactly as a bare
  /// Session would). The static pass runs on first use and publishes
  /// epoch 0 at virtual time 0. Throws std::invalid_argument naming the
  /// field when a ServiceConfig time is negative or not finite.
  Service(const CSRGraph& g, const Options& options,
          const ServiceConfig& config = {});

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Runs the static pass (if not yet run) and publishes epoch 0.
  void start();

  /// Processes one request stream: stable-sorts by arrival_time, admits
  /// and schedules every request in virtual time, flushes any trailing
  /// write buffer, and drains the read queue. Responses come back in
  /// submission order. The virtual clock and epoch counter persist across
  /// calls, so streams can be fed incrementally.
  std::vector<Response> run(std::vector<Request> requests);

  /// Commits any buffered writes (at the coalescing-window deadline) and
  /// serves every queued read. run() calls this before returning.
  void flush();

  const SnapshotStore& snapshots() const { return snapshots_; }
  /// Per-commit outcomes; `epoch` and `coalesced_updates` are filled in.
  const std::vector<UpdateOutcome>& commits() const { return commits_; }
  ServiceStats stats() const;
  Session& session() { return session_; }
  const Session& session() const { return session_; }
  const ServiceConfig& config() const { return config_; }
  /// The virtual clock: the latest arrival the scheduler has processed.
  double now() const { return last_arrival_; }

 private:
  void admit(const Request& req);
  void admit_read(std::size_t response_index);
  void buffer_write(const Request& req, std::size_t response_index);
  /// Serves queued reads whose virtual start precedes `until`.
  void serve_reads_before(double until);
  /// Serves every queued read (FIFO), regardless of start time.
  void drain_reads();
  void serve_one_read();
  void shed_read(std::size_t response_index, double at);
  /// Commits the write buffer as one batch dispatched at `trigger`.
  void commit(double trigger);
  void note_completion(double t);

  Session session_;
  ServiceConfig config_;
  SnapshotStore snapshots_;
  bool started_ = false;

  // Virtual-time scheduler state.
  double last_arrival_ = 0.0;    // processed-arrival high-water mark
  double front_free_at_ = 0.0;   // front-end timeline
  double engine_free_at_ = 0.0;  // analytic/engine timeline
  double window_deadline_ = 0.0;

  /// Responses for the stream currently being processed; queued reads and
  /// buffered writes index into it until they complete. run() moves it
  /// out after the final flush (at which point nothing dangles).
  std::vector<Response> responses_;
  std::vector<std::size_t> write_buffer_;   // response indices
  RequestKind buffered_kind_ = RequestKind::kInsert;
  std::deque<std::size_t> read_queue_;      // response indices, FIFO

  std::uint64_t next_seq_ = 0;
  std::vector<UpdateOutcome> commits_;
  std::vector<double> read_latencies_;  // served reads, completion order

  // Lifetime accounting (mirrored into bc.service.* metrics).
  ServiceStats totals_;
  double last_completion_ = 0.0;
};

}  // namespace bcdyn::bc
