#include "bc/service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace/metrics.hpp"
#include "trace/telemetry.hpp"
#include "util/cli.hpp"

namespace bcdyn::bc {

namespace {

/// Front-end cost of serving one read from the pinned snapshot.
constexpr double kReadCostSeconds = 1e-6;
/// Front-end cost of dispatching one commit (epoch publication + batch
/// hand-off) - the overhead coalescing amortizes.
constexpr double kCommitCostSeconds = 10e-6;
/// Snapshots kept resident in the SnapshotStore.
constexpr std::size_t kSnapshotRetain = 64;

std::string client_key(int client_id, const char* what) {
  return "bc.service.client." + std::to_string(client_id) + "." + what +
         ".count";
}

/// Rejects a ServiceConfig field outside its range: a negative window
/// commits before the first write arrives, an infinite one commits at
/// t = inf and pins every later read to the first epoch, and a depth
/// below 1 commits or queues nothing.
void check_config(const ServiceConfig& config) {
  const auto reject = [](const char* field, const char* want,
                         const std::string& got) {
    throw std::invalid_argument(std::string("ServiceConfig::") + field +
                                " must be " + want + " (got " + got + ")");
  };
  if (!std::isfinite(config.coalesce_window_seconds) ||
      config.coalesce_window_seconds < 0.0) {
    reject("coalesce_window_seconds", "finite and >= 0",
           std::to_string(config.coalesce_window_seconds));
  }
  if (config.coalesce_depth < 1) {
    reject("coalesce_depth", ">= 1", std::to_string(config.coalesce_depth));
  }
  if (config.queue_depth < 1) {
    reject("queue_depth", ">= 1", std::to_string(config.queue_depth));
  }
}

}  // namespace

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kRead:
      return "read";
    case RequestKind::kInsert:
      return "insert";
    case RequestKind::kRemove:
      return "remove";
  }
  return "?";
}

const char* to_string(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kOldestRead:
      return "oldest-read";
    case ShedPolicy::kRejectNew:
      return "reject-new";
  }
  return "?";
}

ServiceConfig service_config_from_flags(const util::ServiceFlags& flags) {
  ServiceConfig config;
  config.coalesce_window_seconds = flags.window_us * 1e-6;
  config.coalesce_depth = flags.depth;
  config.queue_depth = flags.queue;
  if (flags.shed == "oldest-read") {
    config.shed = ShedPolicy::kOldestRead;
  } else if (flags.shed == "reject-new") {
    config.shed = ShedPolicy::kRejectNew;
  } else {
    throw std::invalid_argument("unknown --service-shed policy '" +
                                flags.shed +
                                "' (expected oldest-read | reject-new)");
  }
  return config;
}

Service::Service(const CSRGraph& g, const Options& options,
                 const ServiceConfig& config)
    : session_(g, options),
      config_(config),
      snapshots_(kSnapshotRetain) {
  check_config(config_);
}

void Service::start() {
  if (started_) return;
  started_ = true;
  // The static pass is provisioning, not traffic: epoch 0 commits at
  // virtual time 0 with both timelines free.
  session_.compute();
  snapshots_.publish(
      {session_.scores().begin(), session_.scores().end()}, 0.0, 0);
}

std::vector<Response> Service::run(std::vector<Request> requests) {
  // A NaN arrival would break the sort's strict weak ordering.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!std::isfinite(requests[i].arrival_time)) {
      throw std::invalid_argument(
          "Request::arrival_time must be finite (request " +
          std::to_string(i) + " has " +
          std::to_string(requests[i].arrival_time) + ")");
    }
  }
  start();
  std::stable_sort(requests.begin(), requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival_time < b.arrival_time;
                   });
  responses_.clear();
  responses_.reserve(requests.size());
  for (const Request& req : requests) admit(req);
  flush();
  auto& m = trace::metrics();
  m.set_gauge("bc.service.epoch",
              static_cast<double>(snapshots_.latest_epoch()));
  m.set_gauge("bc.service.queue_peak",
              static_cast<double>(totals_.queue_peak));
  m.set_gauge("bc.service.makespan_seconds", last_completion_);
  return std::exchange(responses_, {});
}

void Service::flush() {
  start();
  if (!write_buffer_.empty()) {
    // An expired window would already have committed on the next
    // admission, so at end of stream the deadline is still in the
    // future: the window elapses, then the batch dispatches.
    const double trigger = config_.coalesce_window_seconds > 0.0
                               ? window_deadline_
                               : last_arrival_;
    commit(trigger);
  }
  drain_reads();
}

void Service::admit(const Request& req) {
  // The virtual clock never runs backwards; a stale arrival clamps
  // forward to the processed high-water mark.
  const double arrival = std::max(req.arrival_time, last_arrival_);

  // A coalescing window that expired strictly before this arrival
  // commits first - the batch dispatched at its deadline, not at the
  // moment the next request happened to show up.
  if (!write_buffer_.empty() && config_.coalesce_window_seconds > 0.0 &&
      window_deadline_ <= arrival) {
    commit(window_deadline_);
  }
  serve_reads_before(arrival);
  last_arrival_ = arrival;

  const std::size_t index = responses_.size();
  Response response;
  response.seq = next_seq_++;
  response.client_id = req.client_id;
  response.kind = req.kind;
  response.u = req.u;
  response.v = req.v;
  response.arrival_time = arrival;
  responses_.push_back(response);

  auto& m = trace::metrics();
  totals_.requests += 1;
  m.add("bc.service.requests.count");
  m.add(client_key(req.client_id, "requests"));
  if (req.kind == RequestKind::kRead) {
    totals_.reads += 1;
    m.add("bc.service.reads.count");
    admit_read(index);
  } else {
    totals_.writes += 1;
    m.add("bc.service.writes.count");
    buffer_write(req, index);
  }
}

void Service::admit_read(std::size_t response_index) {
  const double arrival = responses_[response_index].arrival_time;
  if (read_queue_.size() >= static_cast<std::size_t>(config_.queue_depth)) {
    if (config_.shed == ShedPolicy::kOldestRead) {
      const std::size_t victim = read_queue_.front();
      read_queue_.pop_front();
      shed_read(victim, arrival);
      read_queue_.push_back(response_index);
    } else {
      shed_read(response_index, arrival);
      return;
    }
  } else {
    read_queue_.push_back(response_index);
  }
  totals_.queue_peak = std::max(totals_.queue_peak, read_queue_.size());
}

void Service::shed_read(std::size_t response_index, double at) {
  Response& r = responses_[response_index];
  r.shed = true;
  r.start_time = at;
  r.completion_time = at;
  totals_.reads_shed += 1;
  auto& m = trace::metrics();
  m.add("bc.service.reads.shed.count");
  m.add(client_key(r.client_id, "shed"));
}

void Service::serve_reads_before(double until) {
  while (!read_queue_.empty()) {
    const double start = std::max(
        responses_[read_queue_.front()].arrival_time, front_free_at_);
    if (start >= until) break;
    serve_one_read();
  }
}

void Service::drain_reads() {
  while (!read_queue_.empty()) serve_one_read();
}

void Service::serve_one_read() {
  const std::size_t index = read_queue_.front();
  read_queue_.pop_front();
  Response& r = responses_[index];
  const double start = std::max(r.arrival_time, front_free_at_);
  r.start_time = start;
  r.completion_time = start + kReadCostSeconds;
  front_free_at_ = r.completion_time;

  // The MVCC pin: the latest epoch committed at or before the read's
  // start. An in-flight batch (committing later) is invisible.
  const Snapshot snap = snapshots_.pinned_at(start);
  r.epoch = snap.epoch;
  if (r.u >= 0 && snap.valid() &&
      static_cast<std::size_t>(r.u) < snap.scores->size()) {
    r.value = (*snap.scores)[static_cast<std::size_t>(r.u)];
  }

  totals_.reads_served += 1;
  read_latencies_.push_back(r.latency());
  auto& m = trace::metrics();
  m.add("bc.service.reads.served.count");
  m.observe("bc.service.read_latency_us", r.latency() * 1e6);
  m.observe("bc.service.read_wait_us", (start - r.arrival_time) * 1e6);
  note_completion(r.completion_time);

  if (trace::telemetry().enabled()) {
    trace::UpdateSample sample;
    sample.kind = trace::UpdateKind::kRead;
    sample.engine = bcdyn::to_string(session_.engine());
    sample.devices = session_.num_devices();
    sample.modeled_seconds = r.latency();
    trace::telemetry().record(sample);
  }
}

void Service::buffer_write(const Request& req, std::size_t response_index) {
  if (!write_buffer_.empty() && buffered_kind_ != req.kind) {
    // Adjacency broken: only same-kind runs coalesce, so the pending run
    // commits before the new kind starts buffering.
    commit(responses_[response_index].arrival_time);
  }
  if (write_buffer_.empty()) {
    buffered_kind_ = req.kind;
    window_deadline_ = responses_[response_index].arrival_time +
                       config_.coalesce_window_seconds;
  }
  write_buffer_.push_back(response_index);
  if (static_cast<int>(write_buffer_.size()) >= config_.coalesce_depth) {
    commit(responses_[response_index].arrival_time);
  }
}

void Service::commit(double trigger) {
  if (write_buffer_.empty()) return;
  // Every queued read arrived before this dispatch; FIFO order serves
  // them first, so they pin pre-commit epochs.
  drain_reads();

  const double dispatch = std::max(trigger, front_free_at_);
  front_free_at_ = dispatch + kCommitCostSeconds;
  const double engine_start = std::max(front_free_at_, engine_free_at_);

  UpdateOutcome outcome;
  const int writes = static_cast<int>(write_buffer_.size());
  if (buffered_kind_ == RequestKind::kInsert) {
    if (writes == 1) {
      const Response& r = responses_[write_buffer_.front()];
      outcome = session_.insert_edge(r.u, r.v);
    } else if (config_.fused_commits) {
      std::vector<std::pair<VertexId, VertexId>> edges;
      edges.reserve(write_buffer_.size());
      for (const std::size_t index : write_buffer_) {
        edges.emplace_back(responses_[index].u, responses_[index].v);
      }
      outcome = session_.insert_edge_batch(edges);
    } else {
      for (const std::size_t index : write_buffer_) {
        const Response& r = responses_[index];
        const UpdateOutcome one = session_.insert_edge(r.u, r.v);
        outcome.absorb(one);
        // The single-edge path reports no skips; count no-op inserts here.
        if (!one.inserted) ++outcome.skipped;
      }
    }
  } else {
    for (const std::size_t index : write_buffer_) {
      const Response& r = responses_[index];
      outcome.absorb(session_.remove_edge(r.u, r.v));
    }
  }

  const double commit_time = engine_start + outcome.modeled_seconds;
  engine_free_at_ = commit_time;
  const std::uint64_t epoch = snapshots_.publish(
      {session_.scores().begin(), session_.scores().end()}, commit_time,
      writes);
  outcome.epoch = epoch;
  outcome.coalesced_updates = writes;
  commits_.push_back(outcome);

  totals_.commits += 1;
  totals_.coalesced_updates += static_cast<std::uint64_t>(writes);
  auto& m = trace::metrics();
  m.add("bc.service.commits.count");
  m.add("bc.service.coalesced_updates.count",
        static_cast<std::uint64_t>(writes));
  m.observe("bc.service.coalesce_size", static_cast<double>(writes));

  for (const std::size_t index : write_buffer_) {
    Response& r = responses_[index];
    r.epoch = epoch;
    r.start_time = dispatch;
    r.completion_time = commit_time;
  }
  write_buffer_.clear();
  note_completion(commit_time);
}

void Service::note_completion(double t) {
  last_completion_ = std::max(last_completion_, t);
}

ServiceStats Service::stats() const {
  ServiceStats s = totals_;
  s.latest_epoch = snapshots_.latest_epoch();
  s.makespan_seconds = last_completion_;
  if (!read_latencies_.empty()) {
    std::vector<double> sorted = read_latencies_;
    std::sort(sorted.begin(), sorted.end());
    s.read_p50_seconds = trace::StreamTelemetry::exact_quantile(sorted, 0.5);
    s.read_p99_seconds = trace::StreamTelemetry::exact_quantile(sorted, 0.99);
    s.read_max_seconds = sorted.back();
  }
  return s;
}

}  // namespace bcdyn::bc
