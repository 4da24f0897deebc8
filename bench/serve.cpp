// Serve-path scale bench: the epoll reactor under pipelined newline-JSON
// clients. Three warm legs (64/256/1024 concurrent connections, every
// partition a result-store hit) measure the I/O layer itself; the cold leg
// runs unique designs through the full search; the closed-loop leg
// measures round-trip latency. tools/check_bench.py drift-checks the
// request counters; the wall clocks are informational (the end-to-end
// serve benchmark in perfbench/ compares them across changes).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "design/io_xml.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "synth/ip_library.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace prpart::server {
namespace {

constexpr unsigned kWorkers = 2;
constexpr unsigned kIoWorkers = 2;
constexpr std::size_t kPerConn = 8;      ///< pipelined requests per conn
constexpr std::uint64_t kWarmEvals = 60'000;
constexpr std::uint64_t kColdEvals = 10'000;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Design small_design() {
  std::vector<Module> modules = {
      {"Filter", {{"LowPass", {120, 4, 2}}, {"HighPass", {150, 2, 6}}}},
      {"Codec", {{"Fast", {80, 8, 0}}, {"Dense", {60, 12, 1}}}},
  };
  std::vector<Configuration> configs = {
      {"Receive", {1, 2}},
      {"Transmit", {2, 1}},
  };
  return Design("radio", {40, 1, 0}, std::move(modules), std::move(configs));
}

/// The warm workload: the paper's wireless-receiver case study, whose XML
/// is large enough that a served request is parse-bound — exactly the cost
/// the reactor's request-line cache elides on repeat submissions.
std::string warm_line(const std::string& id) {
  PartitionRequest req;
  req.id = id;
  req.design_xml = design_to_xml(synth::wireless_receiver_design());
  req.budget = ResourceVec{6800, 64, 150};
  req.options = default_partitioner_options();
  req.options.search.max_move_evaluations = kWarmEvals;
  return partition_request_json(req).dump() + "\n";
}

std::string cold_line(const std::string& id, std::uint64_t evals) {
  PartitionRequest req;
  req.id = id;
  req.design_xml = design_to_xml(small_design());
  req.budget = ResourceVec{4000, 60, 60};
  req.options = default_partitioner_options();
  req.options.search.max_move_evaluations = evals;
  return partition_request_json(req).dump() + "\n";
}

ServerOptions bench_options() {
  ServerOptions opt;
  opt.port = 0;
  opt.workers = kWorkers;
  opt.io_workers = kIoWorkers;
  opt.max_queue = 4096;  // the cold leg pipelines every search up front
  return opt;
}

struct Leg {
  std::size_t requests = 0;
  double wall_seconds = 0.0;
  double designs_per_second = 0.0;
};

/// Opens `conns` connections, pipelines `bursts[i]` on each before reading
/// anything, then drains `finals_per_conn` final responses per connection.
/// Wall clock covers first write to last response.
Leg pipelined_leg(std::uint16_t port, std::size_t conns,
                  const std::vector<std::string>& bursts,
                  std::size_t finals_per_conn) {
  std::vector<TcpStream> sockets;
  sockets.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i)
    sockets.push_back(TcpStream::connect("127.0.0.1", port));
  const double started = now_s();
  for (std::size_t i = 0; i < conns; ++i) sockets[i].write_all(bursts[i]);
  for (std::size_t i = 0; i < conns; ++i) {
    std::size_t finals = 0;
    while (finals < finals_per_conn) {
      const std::optional<std::string> line = sockets[i].read_line();
      if (!line) {
        std::fprintf(stderr, "conn %zu closed early\n", i);
        std::exit(1);
      }
      // Interim `queued` notices carry no `ok` key; skip them.
      if (line->find("\"ok\":") == std::string::npos) continue;
      ++finals;
    }
  }
  Leg leg;
  leg.requests = conns * finals_per_conn;
  leg.wall_seconds = now_s() - started;
  leg.designs_per_second =
      leg.wall_seconds > 0.0
          ? static_cast<double>(leg.requests) / leg.wall_seconds
          : 0.0;
  return leg;
}

/// The warm leg: every connection pipelines kPerConn repeats of the warmed
/// design under fresh ids, so the server answers each from the store.
Leg warm_leg(std::uint16_t port, std::size_t conns) {
  std::vector<std::string> bursts;
  bursts.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    std::string burst;
    for (std::size_t j = 0; j < kPerConn; ++j)
      burst += warm_line("w-" + std::to_string(i) + "-" + std::to_string(j));
    bursts.push_back(std::move(burst));
  }
  return pipelined_leg(port, conns, bursts, kPerConn);
}

/// Closed-loop latency: `conns` client threads, each doing `rounds` serial
/// warm round trips; returns all per-request latencies in seconds.
std::vector<double> latency_leg(std::uint16_t port, std::size_t conns,
                                std::size_t rounds) {
  std::vector<double> all;
  std::mutex merge;
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i)
    threads.emplace_back([&, i] {
      TcpStream stream = TcpStream::connect("127.0.0.1", port);
      std::vector<double> mine;
      mine.reserve(rounds);
      for (std::size_t r = 0; r < rounds; ++r) {
        const std::string line =
            warm_line("l-" + std::to_string(i) + "-" + std::to_string(r));
        const double t0 = now_s();
        stream.write_all(line);
        while (true) {
          const std::optional<std::string> reply = stream.read_line();
          if (!reply) std::exit(1);
          if (reply->find("\"ok\":") != std::string::npos) break;
        }
        mine.push_back(now_s() - t0);
      }
      const std::lock_guard<std::mutex> lock(merge);
      all.insert(all.end(), mine.begin(), mine.end());
    });
  for (std::thread& t : threads) t.join();
  std::sort(all.begin(), all.end());
  return all;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

json::Value leg_json(const Leg& leg) {
  json::Value v = json::Value::object();
  v.set("requests", json::Value(std::uint64_t(leg.requests)));
  v.set("wall_seconds", json::Value(leg.wall_seconds));
  v.set("designs_per_second", json::Value(leg.designs_per_second));
  return v;
}

/// All legs against one in-process server.
json::Value run_legs() {
  Server server(bench_options());
  server.start();

  // Warm the result store once; the line is a miss, everything after hits.
  {
    TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
    stream.write_all(warm_line("warmup"));
    while (true) {
      const std::optional<std::string> line = stream.read_line();
      if (!line) std::exit(1);
      if (line->find("\"ok\":") != std::string::npos) break;
    }
  }

  json::Value v = json::Value::object();
  for (const std::size_t conns : {std::size_t{64}, std::size_t{256},
                                  std::size_t{1024}}) {
    const Leg leg = warm_leg(server.port(), conns);
    std::printf("warm c%-5zu %6zu requests  %7.3f s  %9.0f designs/s\n",
                conns, leg.requests, leg.wall_seconds,
                leg.designs_per_second);
    v.set("warm_c" + std::to_string(conns), leg_json(leg));
  }

  // Cold leg: 64 pipelined searches over unique jobs (the evals knob is
  // part of the cache key), one per connection.
  {
    std::vector<std::string> bursts;
    for (std::size_t i = 0; i < 64; ++i)
      bursts.push_back(cold_line("c-" + std::to_string(i), kColdEvals + i));
    const Leg leg = pipelined_leg(server.port(), 64, bursts, 1);
    std::printf("cold c64    %6zu requests  %7.3f s  %9.0f designs/s\n",
                leg.requests, leg.wall_seconds, leg.designs_per_second);
    v.set("cold_c64", leg_json(leg));
  }

  // Closed-loop latency at 64 connections, 4 warm rounds each.
  {
    const std::vector<double> lat = latency_leg(server.port(), 64, 4);
    const double p50 = percentile(lat, 0.50);
    const double p99 = percentile(lat, 0.99);
    std::printf("latency c64 p50 %.0f us, p99 %.0f us\n", p50 * 1e6,
                p99 * 1e6);
    v.set("p50_latency_seconds", json::Value(p50));
    v.set("p99_latency_seconds", json::Value(p99));
  }

  server.stop();
  return v;
}

}  // namespace
}  // namespace prpart::server

int main() {
  using namespace prpart;
  using namespace prpart::server;

  std::printf("=== Serve-path scale: epoll reactor (workers=%u) ===\n",
              kWorkers);
  json::Value doc = json::Value::object();
  doc.set("workers", json::Value(std::uint64_t(kWorkers)));
  doc.set("io_workers", json::Value(std::uint64_t(kIoWorkers)));
  doc.set("requests_per_conn", json::Value(std::uint64_t(kPerConn)));
  doc.set("epoll", run_legs());

  std::ofstream bench_json("BENCH_serve.json");
  bench_json << doc.dump() << "\n";
  std::printf("wrote BENCH_serve.json\n");
  return 0;
}
