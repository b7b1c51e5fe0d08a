// bcdyn_serve: drive the multi-client serving layer (bc::Service) with a
// deterministic request stream and show the operator's view of it:
// per-client admission counters, commit/coalescing accounting, epoch
// progression, and the read latency distribution - all in virtual time
// (modeled seconds, never wall clock), so a rerun with the same flags is
// byte-identical.
//
// The stream is a pure function of --seed: --read-frac of the requests
// are score reads of random vertices, the rest are edge writes (inserts
// of edges absent from the starting graph, with --remove-frac of the
// writes removing a previously inserted edge). Requests arrive every
// --interarrival-us virtual microseconds, round-robin across --clients.
//
//   --record=PATH   write the generated stream as a text file and exit
//   --replay=PATH   serve a previously recorded stream instead of
//                   generating one (the file round-trips arrivals with
//                   %.17g, so replay is exact)
//   --responses=P   dump every response (one line per request)
//   --verify        run the stream twice through two fresh Services and
//                   exit 1 unless the full response dumps and final
//                   scores are byte-identical
//
// Coalescing knobs are the shared --service-* flags (util::Cli); engine
// and devices come from the shared --engine/--devices spellings. With
// --sequential the service applies coalesced writes one-by-one (final
// scores bit-identical at every --service-depth); the default fused
// batch dispatch matches sequential application to 1e-7.
//
// Run with --help for the full flag list.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bc/api.hpp"
#include "gen/suite.hpp"
#include "trace/metrics.hpp"
#include "trace/report.hpp"
#include "trace/telemetry.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bcdyn;

struct Options {
  std::string graph = "small";
  double scale = 0.25;
  std::uint64_t seed = 7;
  int sources = 32;
  util::StdFlags std_flags;          // --engine/--devices/--metrics/...
  util::ServiceFlags service_flags;  // --service-window-us/-depth/-queue/-shed
  int requests = 400;
  int clients = 4;
  double read_frac = 0.9;
  double remove_frac = 0.3;
  double interarrival_us = 5.0;
  bool sequential = false;
  std::string record_path;
  std::string replay_path;
  std::string responses_path;
  bool verify = false;
  bool report = false;
};

/// Deterministic mixed request stream: a pure function of the graph and
/// seed. Inserted edges are tracked so removals always target an edge
/// that is live at its point in the stream (stream order is application
/// order at every coalescing depth).
std::vector<bc::Request> make_stream(const CSRGraph& g, const Options& opt) {
  util::Rng rng(opt.seed ^ 0x5e21e77ULL);
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  std::vector<std::pair<VertexId, VertexId>> live;
  std::vector<bc::Request> stream;
  stream.reserve(static_cast<std::size_t>(opt.requests));
  for (int i = 0; i < opt.requests; ++i) {
    bc::Request req;
    req.client_id = i % opt.clients;
    req.arrival_time = opt.interarrival_us * 1e-6 * (i + 1);
    if (rng.next_double() < opt.read_frac) {
      req.kind = bc::RequestKind::kRead;
      req.u = static_cast<VertexId>(rng.next_below(n));
    } else if (!live.empty() && rng.next_double() < opt.remove_frac) {
      req.kind = bc::RequestKind::kRemove;
      const std::size_t pick = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(live.size())));
      req.u = live[pick].first;
      req.v = live[pick].second;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      req.kind = bc::RequestKind::kInsert;
      VertexId u = kNoVertex;
      VertexId v = kNoVertex;
      for (int attempt = 0; attempt < 64; ++attempt) {
        u = static_cast<VertexId>(rng.next_below(n));
        v = static_cast<VertexId>(rng.next_below(n));
        if (u == v || g.has_edge(u, v)) continue;
        bool in_live = false;
        for (const auto& e : live) {
          if ((e.first == u && e.second == v) ||
              (e.first == v && e.second == u)) {
            in_live = true;
            break;
          }
        }
        if (!in_live) break;
        u = kNoVertex;
      }
      if (u == kNoVertex) {  // dense graph: fall back to a read
        req.kind = bc::RequestKind::kRead;
        req.u = static_cast<VertexId>(rng.next_below(n));
      } else {
        req.u = u;
        req.v = v;
        live.emplace_back(u, v);
      }
    }
    stream.push_back(req);
  }
  return stream;
}

void write_stream(const std::vector<bc::Request>& stream, std::ostream& out) {
  out << "# bcdyn_serve stream v1: client kind u v arrival_seconds\n";
  char buf[128];
  for (const auto& r : stream) {
    std::snprintf(buf, sizeof(buf), "%d %s %lld %lld %.17g\n", r.client_id,
                  bc::to_string(r.kind), static_cast<long long>(r.u),
                  static_cast<long long>(r.v), r.arrival_time);
    out << buf;
  }
}

std::vector<bc::Request> read_stream(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open stream file " + path);
  std::vector<bc::Request> stream;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string kind;
    long long u = 0;
    long long v = 0;
    bc::Request req;
    if (!(row >> req.client_id >> kind >> u >> v >> req.arrival_time)) {
      throw std::runtime_error("malformed stream line: " + line);
    }
    req.u = static_cast<VertexId>(u);
    req.v = static_cast<VertexId>(v);
    if (kind == "read") {
      req.kind = bc::RequestKind::kRead;
    } else if (kind == "insert") {
      req.kind = bc::RequestKind::kInsert;
    } else if (kind == "remove") {
      req.kind = bc::RequestKind::kRemove;
    } else {
      throw std::runtime_error("unknown request kind '" + kind + "'");
    }
    stream.push_back(req);
  }
  return stream;
}

/// Byte-exact response dump: what --verify compares and --responses saves.
std::string render(const std::vector<bc::Response>& responses) {
  std::ostringstream out;
  char buf[256];
  for (const auto& r : responses) {
    std::snprintf(buf, sizeof(buf),
                  "%llu %d %s %lld %lld shed=%d epoch=%llu "
                  "value=%.17g arrival=%.17g start=%.17g done=%.17g\n",
                  static_cast<unsigned long long>(r.seq), r.client_id,
                  bc::to_string(r.kind), static_cast<long long>(r.u),
                  static_cast<long long>(r.v), r.shed ? 1 : 0,
                  static_cast<unsigned long long>(r.epoch), r.value,
                  r.arrival_time, r.start_time, r.completion_time);
    out << buf;
  }
  return out.str();
}

struct RunResult {
  std::string dump;
  std::vector<double> scores;
  bc::ServiceStats stats;
};

RunResult run_once(const CSRGraph& g, const Options& opt) {
  bc::Options options;
  options.engine = parse_engine_flag(opt.std_flags.engine);
  options.approx = {.num_sources = opt.sources, .seed = opt.seed};
  options.num_devices = opt.std_flags.devices;
  if (!opt.std_flags.telemetry.empty()) {
    options.runtime.telemetry = true;
    options.runtime.telemetry_config.window = opt.std_flags.window;
  }
  bc::ServiceConfig config = bc::service_config_from_flags(opt.service_flags);
  config.fused_commits = !opt.sequential;
  bc::Service service(g, options, config);
  const auto stream = opt.replay_path.empty() ? make_stream(g, opt)
                                              : read_stream(opt.replay_path);
  RunResult result;
  result.dump = render(service.run(stream));
  result.scores.assign(service.session().scores().begin(),
                       service.session().scores().end());
  result.stats = service.stats();
  return result;
}

void print_stats(const bc::ServiceStats& s) {
  util::Table t({"Metric", "Value"});
  auto row = [&t](const std::string& k, const std::string& v) {
    t.add_row({k, v});
  };
  row("requests", std::to_string(s.requests));
  row("reads served", std::to_string(s.reads_served));
  row("reads shed", std::to_string(s.reads_shed));
  row("writes", std::to_string(s.writes));
  row("commits", std::to_string(s.commits));
  row("coalesced updates", std::to_string(s.coalesced_updates));
  row("latest epoch", std::to_string(s.latest_epoch));
  row("queue peak", std::to_string(s.queue_peak));
  row("makespan (ms)", util::Table::fmt(s.makespan_seconds * 1e3, 3));
  row("read p50 (us)", util::Table::fmt(s.read_p50_seconds * 1e6, 2));
  row("read p99 (us)", util::Table::fmt(s.read_p99_seconds * 1e6, 2));
  row("read max (us)", util::Table::fmt(s.read_max_seconds * 1e6, 2));
  t.print(std::cout);
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
    opt.sources = cli.get_count(
        "sources", opt.sources, "BC approximation sources (paper K)");
    opt.std_flags = util::parse_std_flags(cli);
    opt.service_flags = util::parse_service_flags(cli);
    opt.requests = cli.get_count(
        "requests", opt.requests, "requests in the generated stream");
    opt.clients =
        cli.get_count("clients", opt.clients, "round-robin client count");
    opt.read_frac = cli.get_double("read-frac", opt.read_frac,
                                   "fraction of requests that are reads");
    opt.remove_frac = cli.get_double(
        "remove-frac", opt.remove_frac,
        "fraction of writes that remove a prior insertion");
    opt.interarrival_us = cli.get_double(
        "interarrival-us", opt.interarrival_us,
        "virtual microseconds between request arrivals");
    opt.sequential = cli.get_bool(
        "sequential", opt.sequential,
        "apply coalesced writes one-by-one (bit-identical at every depth)");
    opt.record_path = cli.get("record", opt.record_path,
                              "write the generated stream here and exit");
    opt.replay_path = cli.get("replay", opt.replay_path,
                              "serve this recorded stream instead");
    opt.responses_path =
        cli.get("responses", opt.responses_path, "dump every response here");
    opt.verify = cli.get_bool(
        "verify", opt.verify,
        "run twice and require byte-identical responses and scores");
    opt.report = cli.get_bool("report", opt.report,
                              "print the full metrics report at the end");
    if (cli.help_requested()) {
      cli.print_help("bcdyn_serve",
                     "Serve a deterministic multi-client request stream "
                     "through bc::Service; virtual-time replay driver.",
                     std::cout);
      return 0;
    }
    for (const auto& key : cli.unused_keys()) {
      std::cerr << "warning: unrecognized flag --" << key << "\n";
    }
    if (opt.clients < 1) opt.clients = 1;

    const gen::SuiteEntry entry =
        gen::build_suite_graph(opt.graph, opt.scale, opt.seed);
    if (!opt.record_path.empty()) {
      std::ofstream out(opt.record_path);
      if (!out) {
        std::cerr << "bcdyn_serve: cannot write " << opt.record_path << "\n";
        return 2;
      }
      write_stream(make_stream(entry.graph, opt), out);
      std::cout << "stream -> " << opt.record_path << "\n";
      return 0;
    }

    std::cout << "bcdyn_serve: graph=" << opt.graph << " ("
              << entry.graph.num_vertices() << " vertices), engine="
              << opt.std_flags.engine << ", devices=" << opt.std_flags.devices
              << ", window=" << opt.service_flags.window_us
              << "us, depth=" << opt.service_flags.depth
              << ", commits=" << (opt.sequential ? "sequential" : "fused")
              << "\n\n";
    const RunResult first = run_once(entry.graph, opt);
    print_stats(first.stats);

    if (opt.verify) {
      trace::metrics().reset();
      const RunResult second = run_once(entry.graph, opt);
      if (first.dump != second.dump || first.scores != second.scores) {
        std::cerr << "\nVERIFY FAILED: replay was not byte-identical\n";
        return 1;
      }
      std::cout << "\nverify: replay byte-identical ("
                << first.stats.requests << " responses, "
                << first.scores.size() << " scores)\n";
    }
    if (!opt.responses_path.empty()) {
      std::ofstream out(opt.responses_path);
      out << first.dump;
      std::cout << "responses -> " << opt.responses_path << "\n";
    }
    if (opt.report) {
      std::cout << "\n"
                << trace::report_string(trace::tracer(), trace::metrics());
    }
    if (!opt.std_flags.telemetry.empty()) {
      std::ofstream f(opt.std_flags.telemetry);
      trace::telemetry().write_json_snapshot(f);
      std::cout << "telemetry snapshot -> " << opt.std_flags.telemetry << "\n";
    }
    if (!opt.std_flags.metrics.empty()) {
      std::ofstream f(opt.std_flags.metrics);
      trace::metrics().write_json(f);
      std::cout << "metrics JSON -> " << opt.std_flags.metrics << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bcdyn_serve: " << e.what() << "\n";
    return 2;
  }
}
