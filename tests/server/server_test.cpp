#include "server/server.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "design/io_xml.hpp"
#include "design/synthetic.hpp"
#include "server/client.hpp"
#include "synth/ip_library.hpp"
#include "util/rng.hpp"

namespace prpart::server {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kEvals = 60'000;

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

/// small_design() with every declaration list permuted: a semantically
/// identical design whose XML bytes differ.
Design permuted_small_design() {
  std::vector<Module> modules = {
      {"Codec", {{"Dense", {60, 12, 1}}, {"Fast", {80, 8, 0}}}},
      {"Filter", {{"HighPass", {150, 2, 6}}, {"LowPass", {120, 4, 2}}}},
  };
  std::vector<Configuration> configs = {
      {"Transmit", {2, 1}},
      {"Receive", {1, 2}},
  };
  return Design("radio", {40, 1, 0}, std::move(modules), std::move(configs));
}

PartitionRequest small_request(const std::string& id,
                               std::uint64_t evals = kEvals) {
  PartitionRequest req;
  req.id = id;
  req.design_xml = design_to_xml(small_design());
  req.budget = ResourceVec{4000, 60, 60};
  req.options = default_partitioner_options();
  req.options.search.max_move_evaluations = evals;
  return req;
}

PartitionRequest receiver_request(const std::string& id,
                                  std::uint64_t evals = kEvals) {
  PartitionRequest req;
  req.id = id;
  req.design_xml = design_to_xml(synth::wireless_receiver_design());
  req.budget = ResourceVec{6800, 64, 150};
  req.options = default_partitioner_options();
  req.options.search.max_move_evaluations = evals;
  return req;
}

/// A deeply adaptive design (8 modules x 4 modes, 300 configurations) whose
/// search runs ~200 ms on one job thread at the default effort: long enough
/// that requests behind it on the same connection provably overtake it.
PartitionRequest slow_request(const std::string& id) {
  SyntheticOptions so;
  so.min_modules = so.max_modules = 8;
  so.min_modes = so.max_modes = 4;
  so.max_clbs = 400;
  so.min_configurations = 300;
  Rng rng(1);
  PartitionRequest req;
  req.id = id;
  req.design_xml =
      design_to_xml(generate_synthetic(rng, CircuitClass::Logic, so).design);
  req.budget = ResourceVec{30720, 456, 384};
  req.options = default_partitioner_options();
  return req;
}

ServerOptions quiet_options() {
  ServerOptions opt;
  opt.port = 0;  // ephemeral
  opt.workers = 4;
  return opt;
}

/// Sends `request` over a raw socket and returns the raw response line,
/// bypassing the Client's parse/re-dump round trip: the tests below compare
/// these bytes directly.
std::string raw_exchange(std::uint16_t port, const json::Value& request) {
  TcpStream stream = TcpStream::connect("127.0.0.1", port);
  stream.write_all(request.dump() + "\n");
  const std::optional<std::string> line = stream.read_line();
  EXPECT_TRUE(line.has_value());
  return line.value_or("");
}

/// Extracts the spliced `result` payload from a raw ok response line.
std::string result_payload(const std::string& line, const std::string& id) {
  const std::string prefix =
      "{\"id\":" + json::escape(id) + ",\"ok\":true,\"result\":";
  EXPECT_EQ(line.rfind(prefix, 0), 0u) << line;
  if (line.rfind(prefix, 0) != 0) return "";
  return line.substr(prefix.size(), line.size() - prefix.size() - 1);
}

/// One target of the CLI-vs-server byte-identity twins: the CLI flags and
/// the request fields naming it, on a design every stage (partition,
/// floorplan, simulate, simulate --floorplan) answers successfully.
struct TwinTarget {
  std::string label;
  Design design;
  std::vector<std::string> flags;
  std::string device;
  std::optional<ResourceVec> budget;
};

std::vector<TwinTarget> twin_targets() {
  Rng rng(4);  // `prpart generate --seed 4 --class logic`
  return {
      {"budget", synth::wireless_receiver_design(), {"--budget", "6800,64,150"},
       "", ResourceVec{6800, 64, 150}},
      {"device", synth::wireless_receiver_design(), {"--device", "XC5VFX95T"},
       "XC5VFX95T", std::nullopt},
      // The smallest-device walk (it lands on XC5VFX70T).
      {"auto", generate_synthetic(rng, CircuitClass::Logic).design, {}, "",
       std::nullopt},
  };
}

/// The request core of a twin: `target`'s design and target at kEvals.
PartitionRequest twin_request(const TwinTarget& target, const std::string& id) {
  PartitionRequest req;
  req.id = id;
  req.design_xml = design_to_xml(target.design);
  req.device = target.device;
  req.budget = target.budget;
  req.options = default_partitioner_options();
  req.options.search.max_move_evaluations = kEvals;
  return req;
}

/// `prpart <command> <design> <args> <target flags> --evals kEvals --json`
/// on `target`'s design: its stdout without the trailing newline.
std::string cli_twin(const TwinTarget& target, const std::string& command,
                     const std::vector<std::string>& args = {}) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::temp_directory_path() /
                       ("prpart_server_test_" + std::to_string(::getpid()) +
                        "_" + info->name() + "_" + target.label);
  fs::create_directories(dir);
  const std::string design_path = (dir / "design.xml").string();
  {
    std::ofstream f(design_path);
    f << design_to_xml(target.design);
  }
  std::vector<std::string> argv = {command, design_path};
  argv.insert(argv.end(), args.begin(), args.end());
  argv.insert(argv.end(), target.flags.begin(), target.flags.end());
  argv.insert(argv.end(), {"--evals", std::to_string(kEvals), "--json"});
  std::ostringstream out, err;
  EXPECT_EQ(cli::run(argv, out, err), 0) << err.str();
  fs::remove_all(dir);
  std::string expected = out.str();
  EXPECT_FALSE(expected.empty());
  if (!expected.empty()) expected.pop_back();  // trailing newline
  return expected;
}

TEST(ServerTest, BootsPingsAndStops) {
  Server server(quiet_options());
  server.start();
  ASSERT_NE(server.port(), 0);
  Client client("127.0.0.1", server.port());
  const ClientResponse pong = client.ping("p");
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.id, "p");
  EXPECT_TRUE(pong.result.at("pong").as_bool());
  server.stop();
  // After the drain the listener is closed: new clients are refused.
  EXPECT_THROW(TcpStream::connect("127.0.0.1", server.port()), SocketError);
}

TEST(ServerTest, StopIsIdempotent) {
  Server server(quiet_options());
  server.start();
  server.stop();
  server.stop();  // second drain is a no-op; destructor adds a third
}

TEST(ServerTest, ResponseMatchesOneShotCliByteForByte) {
  Server server(quiet_options());
  server.start();
  for (const TwinTarget& target : twin_targets()) {
    SCOPED_TRACE(target.label);
    const std::string expected = cli_twin(target, "partition");
    const std::string line = raw_exchange(
        server.port(), partition_request_json(twin_request(target, "twin")));
    EXPECT_EQ(result_payload(line, "twin"), expected);
  }
}

TEST(ServerTest, AnalyzeRequestIsServedInline) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  AnalyzeRequest req;
  req.id = "an1";
  req.design_xml = design_to_xml(synth::wireless_receiver_design());
  const ClientResponse resp = client.analyze(req);
  ASSERT_TRUE(resp.ok) << resp.error_message;
  EXPECT_TRUE(resp.result.at("feasible").as_bool());
  EXPECT_EQ(resp.result.at("errors").as_u64(), 0u);
  bool dead_mode = false;
  for (const json::Value& d : resp.result.at("diagnostics").items())
    dead_mode = dead_mode || d.at("code").as_string() == "dead-mode";
  EXPECT_TRUE(dead_mode);
  // Analyze bypasses the job queue entirely.
  const StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServerTest, AnalyzeMalformedDesignReturnsDiagnosticsNotAnError) {
  // A broken design is the expected input of the diagnostics engine: the
  // response is ok with error-severity diagnostics, never bad_request.
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  AnalyzeRequest req;
  req.id = "an-broken";
  req.design_xml = "<design name=\"t\"></design>";
  const ClientResponse resp = client.analyze(req);
  ASSERT_TRUE(resp.ok) << resp.error_message;
  EXPECT_TRUE(resp.result.at("feasible").is_null());
  EXPECT_GE(resp.result.at("errors").as_u64(), 2u);  // no modules, no configs
}

TEST(ServerTest, AnalyzeUnknownDeviceIsBadRequest) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  AnalyzeRequest req;
  req.id = "an-dev";
  req.design_xml = design_to_xml(small_design());
  req.device = "XC9NOPE";
  const ClientResponse resp = client.analyze(req);
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "bad_request");
}

TEST(ServerTest, AnalyzeResponseMatchesOneShotCliByteForByte) {
  // The served analyze payload and `prpart analyze --json` run the same
  // encoder over the same text, so their bytes must be identical.
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::temp_directory_path() /
                       ("prpart_server_test_" + std::to_string(::getpid()) +
                        "_" + info->name());
  fs::create_directories(dir);
  const std::string design_path = (dir / "receiver.xml").string();
  const std::string design_xml = design_to_xml(synth::wireless_receiver_design());
  {
    std::ofstream f(design_path);
    f << design_xml;
  }
  std::ostringstream cli_out, cli_err;
  const int code =
      cli::run({"analyze", design_path, "--json"}, cli_out, cli_err);
  ASSERT_EQ(code, 0) << cli_err.str();
  std::string expected = cli_out.str();
  ASSERT_FALSE(expected.empty());
  expected.pop_back();  // trailing newline

  Server server(quiet_options());
  server.start();
  AnalyzeRequest req;
  req.id = "an-twin";
  req.design_xml = design_xml;
  const std::string line =
      raw_exchange(server.port(), analyze_request_json(req));
  EXPECT_EQ(result_payload(line, "an-twin"), expected);
  fs::remove_all(dir);
}

TEST(ServerTest, InfeasibleJobIsRejectedBeforeAdmissionWithTheProof) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  PartitionRequest req = small_request("hopeless");
  req.budget = ResourceVec{10, 0, 0};
  const ClientResponse resp = client.submit(req);
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "infeasible");
  EXPECT_NE(resp.error_message.find("no scheme fits"), std::string::npos);
  // The proof fired before admission: no queue slot, no search.
  const StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.infeasible, 1u);
}

TEST(ServerTest, CacheHitIsByteIdenticalToColdRun) {
  Server server(quiet_options());
  server.start();
  const json::Value request = partition_request_json(small_request("c1"));
  const std::string cold = raw_exchange(server.port(), request);
  const std::string warm = raw_exchange(server.port(), request);
  EXPECT_EQ(warm, cold);
  const StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.completed, 1u);  // the warm response ran no search
}

TEST(ServerTest, PermutedDesignXmlHitsTheCache) {
  Server server(quiet_options());
  server.start();
  PartitionRequest permuted = small_request("perm");
  permuted.design_xml = design_to_xml(permuted_small_design());
  ASSERT_NE(permuted.design_xml, small_request("perm").design_xml);

  const std::string first = raw_exchange(
      server.port(), partition_request_json(small_request("perm")));
  const std::string second =
      raw_exchange(server.port(), partition_request_json(permuted));
  // Content addressing sees through declaration order: same canonical
  // design, same key, byte-identical payload.
  EXPECT_EQ(second, first);
  EXPECT_EQ(server.stats_snapshot().cache_hits, 1u);
}

TEST(ServerTest, EightConcurrentClientsGetConsistentResponses) {
  ServerOptions opt = quiet_options();
  opt.max_queue = 32;
  opt.cache_entries = 0;  // force every job through the search
  Server server(opt);
  server.start();

  constexpr int kClients = 8;
  std::vector<std::string> lines(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      // Two distinct designs interleaved; ids are distinct per client but
      // excluded from the payload bytes under comparison.
      const PartitionRequest req = (i % 2 == 0)
                                       ? small_request("s" + std::to_string(i))
                                       : receiver_request("r" + std::to_string(i));
      lines[static_cast<std::size_t>(i)] =
          raw_exchange(server.port(), partition_request_json(req));
    });
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    // Append form: GCC 12's -Wrestrict misfires on the operator+ chain at
    // -O2 (PR 105329), breaking -Werror builds.
    std::string id = (i % 2 == 0 ? "s" : "r");
    id += std::to_string(i);
    const std::string payload = result_payload(lines[static_cast<std::size_t>(i)], id);
    ASSERT_FALSE(payload.empty()) << lines[static_cast<std::size_t>(i)];
    // Every client running the same design must see identical bytes.
    const std::string reference = result_payload(
        lines[i % 2 == 0 ? 0u : 1u], i % 2 == 0 ? "s0" : "r1");
    EXPECT_EQ(payload, reference) << "client " << i;
  }
  const StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServerTest, OverCapacityBurstIsRejectedWithoutWedging) {
  ServerOptions opt = quiet_options();
  opt.workers = 1;
  opt.max_queue = 1;
  // Collapse the soft `queued` band (high watermark == max_queue): this
  // test is about the *hard* reject path staying prompt under a burst.
  opt.high_watermark = 1;
  opt.cache_entries = 0;
  Server server(opt);
  server.start();

  constexpr int kBurst = 10;
  std::atomic<int> ok{0}, overloaded{0}, other{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kBurst; ++i)
    clients.emplace_back([&, i] {
      Client client("127.0.0.1", server.port());
      const ClientResponse resp =
          client.submit(small_request("b" + std::to_string(i), 500'000));
      if (resp.ok)
        ++ok;
      else if (resp.error_code == "overloaded")
        ++overloaded;
      else
        ++other;
    });
  for (std::thread& t : clients) t.join();

  // One worker and one queue slot against ten simultaneous submissions:
  // some jobs complete, the overflow is rejected, nothing crashes or hangs.
  EXPECT_EQ(ok + overloaded, kBurst);
  EXPECT_EQ(other, 0);
  EXPECT_GE(overloaded.load(), 1);
  const StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(overloaded.load()));
  server.stop();
  EXPECT_EQ(server.stats_snapshot().queue_depth, 0u);
}

TEST(ServerTest, JobTimeoutReturnsTimeoutError) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  PartitionRequest req = receiver_request("slow", 100'000'000);
  // A 1ms deadline (armed at admission) is always in the past by the time
  // the search reaches a cancellation point; the job itself takes tens of
  // milliseconds at the very least.
  req.timeout_ms = 1;
  const ClientResponse resp = client.submit(req);
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "timeout");
  EXPECT_EQ(server.stats_snapshot().timed_out, 1u);
}

TEST(ServerTest, ServerDefaultTimeoutApplies) {
  ServerOptions opt = quiet_options();
  opt.default_timeout_ms = 1;
  Server server(opt);
  server.start();
  Client client("127.0.0.1", server.port());
  const ClientResponse resp =
      client.submit(receiver_request("slow-default", 100'000'000));
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "timeout");
}

TEST(ServerTest, BadRequestsGetTypedErrors) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());

  // Malformed JSON line.
  {
    TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
    stream.write_all("this is not json\n");
    const std::optional<std::string> line = stream.read_line();
    ASSERT_TRUE(line.has_value());
    const json::Value doc = json::parse(*line);
    EXPECT_FALSE(doc.at("ok").as_bool());
    EXPECT_EQ(doc.at("error").at("code").as_string(), "bad_request");
  }
  // Unknown device name.
  {
    PartitionRequest req = small_request("bad-dev");
    req.budget.reset();
    req.device = "XC9NOPE";
    const ClientResponse resp = client.submit(req);
    ASSERT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_code, "bad_request");
  }
  // Invalid design XML.
  {
    PartitionRequest req = small_request("bad-xml");
    req.design_xml = "<not a design>";
    const ClientResponse resp = client.submit(req);
    ASSERT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_code, "bad_request");
  }
  // Structurally valid but hopeless budget.
  {
    PartitionRequest req = small_request("tiny");
    req.budget = ResourceVec{10, 0, 0};
    const ClientResponse resp = client.submit(req);
    ASSERT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_code, "infeasible");
  }
  // The connection survives all of the above.
  EXPECT_TRUE(client.ping().ok);
}

TEST(ServerTest, ResourceCountBeyond32BitsIsABadRequest) {
  // 4294967396 is 2^32 + 100: a reader that narrowed it would partition a
  // 100-CLB mode instead of refusing the design.
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  PartitionRequest req = small_request("wide");
  const std::string clbs = "clbs=\"120\"";
  const std::size_t at = req.design_xml.find(clbs);
  ASSERT_NE(at, std::string::npos);
  req.design_xml.replace(at, clbs.size(), "clbs=\"4294967396\"");
  const ClientResponse resp = client.submit(req);
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "bad_request");
  EXPECT_NE(resp.error_message.find("clbs=\"4294967396\""), std::string::npos)
      << resp.error_message;
}

TEST(ServerTest, ResourceTotalBeyond32BitsIsABadRequest) {
  // Every count fits 32 bits, but the tile-rounded total does not.
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  PartitionRequest req = small_request("wide-total");
  const std::string clbs = "clbs=\"120\"";
  const std::size_t at = req.design_xml.find(clbs);
  ASSERT_NE(at, std::string::npos);
  req.design_xml.replace(at, clbs.size(), "clbs=\"4294967295\"");
  const ClientResponse resp = client.submit(req);
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "bad_request");
  EXPECT_NE(resp.error_message.find("above the 32-bit limit"),
            std::string::npos)
      << resp.error_message;
}

TEST(ServerTest, FootprintsAtTheResourceLimitStayExact) {
  // The rules' CLB limit, 4294967280 in whole tiles: one mode that large,
  // and a configuration of two modules that sums to it. Tile rounding at 32
  // bits used to wrap either to a 0-CLB single region.
  const Design one("one", {},
                   {Module{"A", {{"Big", {4294967280u, 0, 0}},
                                 {"Small", {0, 4, 0}}}}},
                   {Configuration{"c1", {1}}, Configuration{"c2", {2}}});
  const Design two(
      "two", {},
      {Module{"A", {{"A1", {2147483640u, 0, 0}}, {"A2", {0, 4, 0}}}},
       Module{"B", {{"B1", {2147483640u, 0, 0}}, {"B2", {0, 4, 0}}}}},
      {Configuration{"c1", {1, 1}}, Configuration{"c2", {2, 2}}});
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  // 214748364 CLB tiles of 36 frames plus one or two BRAM tiles of 30.
  for (const auto& [design, frames] :
       {std::pair{&one, 7730941134u}, std::pair{&two, 7730941164u}}) {
    SCOPED_TRACE(design->name());
    PartitionRequest req = small_request(design->name());
    req.design_xml = design_to_xml(*design);
    req.budget = ResourceVec{4294967295u, 10, 10};
    const ClientResponse resp = client.submit(req);
    ASSERT_TRUE(resp.ok) << resp.error_message;
    const json::Value& single =
        resp.result.at("baselines").at("single_region");
    EXPECT_EQ(single.at("resources").at("clbs").as_u64(), 4294967280u);
    EXPECT_EQ(single.at("total_frames").as_u64(), frames);
  }
}

TEST(ServerTest, DrainCompletesAdmittedJobs) {
  ServerOptions opt = quiet_options();
  opt.workers = 2;
  opt.cache_entries = 0;
  Server server(opt);
  server.start();

  constexpr int kJobs = 4;
  std::atomic<int> ok{0}, overloaded{0}, other{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kJobs; ++i)
    clients.emplace_back([&, i] {
      Client client("127.0.0.1", server.port());
      const ClientResponse resp =
          client.submit(small_request("d" + std::to_string(i), 400'000));
      if (resp.ok)
        ++ok;
      else if (resp.error_code == "overloaded")
        ++overloaded;
      else
        ++other;
    });
  // Let the jobs get admitted, then drain while they are in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  for (std::thread& t : clients) t.join();

  // Every admitted job got a real response; anything that arrived after the
  // drain began was rejected as overloaded — never dropped.
  EXPECT_EQ(ok + overloaded, kJobs);
  EXPECT_EQ(other, 0);
  const StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(ok.load()));
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(ServerTest, StatsRequestReportsCounters) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.submit(small_request("one")).ok);
  const ClientResponse resp = client.stats();
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.result.at("accepted").as_u64(), 1u);
  EXPECT_EQ(resp.result.at("completed").as_u64(), 1u);
  EXPECT_EQ(resp.result.at("latency_count").as_u64(), 1u);
  EXPECT_GE(resp.result.at("p99_latency_us").as_u64(),
            resp.result.at("p50_latency_us").as_u64());
}

TEST(ServerTest, StatsReportWhatTheDeviceWalkSkipped) {
  Server server(quiet_options());
  server.start();
  PartitionRequest req = small_request("auto");
  req.budget.reset();  // auto device: walk the library
  const json::Value request = partition_request_json(req);
  const std::string cold = raw_exchange(server.port(), request);
  const WalkStats after_cold = server.stats_snapshot().walk;
  EXPECT_GE(after_cold.searches_run, 1u);

  // A cache hit answers byte-identically and walks nothing.
  EXPECT_EQ(raw_exchange(server.port(), request), cold);
  const WalkStats after_hit = server.stats_snapshot().walk;
  EXPECT_EQ(after_hit.searches_run, after_cold.searches_run);
  EXPECT_EQ(after_hit.devices_skipped_infeasible,
            after_cold.devices_skipped_infeasible);
  // The counters stay out of the cached payload.
  EXPECT_EQ(cold.find("searches_run"), std::string::npos);

  // A design no device fits: every library device is skipped unbuilt.
  PartitionRequest huge = req;
  huge.id = "huge";
  huge.design_xml = design_to_xml(
      Design("huge", {0, 0, 0}, {{"X", {{"X1", {500000, 0, 0}}}}},
             {{"Only", {1}}}));
  Client client("127.0.0.1", server.port());
  const ClientResponse resp = client.submit(huge);
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "infeasible");
  const ClientResponse stats = client.stats();
  ASSERT_TRUE(stats.ok);
  const json::Value& walk = stats.result.at("walk");
  EXPECT_EQ(walk.at("devices_skipped_infeasible").as_u64(),
            after_hit.devices_skipped_infeasible +
                DeviceLibrary::extended().devices().size());
  EXPECT_EQ(walk.at("searches_run").as_u64(), after_hit.searches_run);
  EXPECT_EQ(walk.at("searches_skipped_no_fit").as_u64(),
            after_hit.searches_skipped_no_fit);
  EXPECT_EQ(walk.at("proofs_inconclusive").as_u64(),
            after_hit.proofs_inconclusive);
}

SimulateRequest simulate_request(const std::string& id,
                                 std::uint64_t steps = 200) {
  SimulateRequest req;
  req.partition = receiver_request(id);
  req.params.steps = steps;
  req.params.seed = 3;
  return req;
}

TEST(ServerTest, SimulateJobReturnsLatencies) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const ClientResponse resp = client.simulate(simulate_request("sim1"));
  ASSERT_TRUE(resp.ok) << resp.error_message;
  EXPECT_EQ(resp.result.at("trace").at("source").as_string(), "markov");
  EXPECT_EQ(resp.result.at("trace").at("transitions").as_u64(), 200u);
  const json::Value& row = resp.result.at("schemes").items().at(0);
  EXPECT_EQ(row.at("label").as_string(), "proposed");
  EXPECT_EQ(row.at("transitions").as_u64(), 200u);
  EXPECT_GT(row.at("frames_loaded").as_u64(), 0u);
  EXPECT_GT(row.at("p99_latency_ns").as_u64(), 0u);

  // The stats surface the simulation counters.
  const ClientResponse stats = client.stats();
  ASSERT_TRUE(stats.ok);
  const json::Value& sim = stats.result.at("simulate");
  EXPECT_EQ(sim.at("simulations").as_u64(), 1u);
  EXPECT_EQ(sim.at("transitions").as_u64(), 200u);
  EXPECT_EQ(sim.at("frames_loaded").as_u64(), row.at("frames_loaded").as_u64());
}

TEST(ServerTest, SimulateResponseMatchesOneShotCliByteForByte) {
  // The CLI's `simulate --json` and the server's simulate payload share one
  // encoder and one trace construction; the bytes must agree exactly. The
  // extra target's search falls back to the single-region scheme, whose
  // row both label `proposed`.
  Server server(quiet_options());
  server.start();
  std::vector<TwinTarget> targets = twin_targets();
  targets.push_back({"fallback", synth::wireless_receiver_design(),
                     {"--device", "XC5VFX70T"}, "XC5VFX70T", std::nullopt});
  for (const TwinTarget& target : targets) {
    SCOPED_TRACE(target.label);
    const std::string expected =
        cli_twin(target, "simulate", {"--steps", "200", "--seed", "3"});
    SimulateRequest req;
    req.partition = twin_request(target, "sim-twin");
    req.params.steps = 200;
    req.params.seed = 3;
    const std::string line =
        raw_exchange(server.port(), simulate_request_json(req));
    EXPECT_EQ(result_payload(line, "sim-twin"), expected);
  }
}

TEST(ServerTest, SimulateWithFloorplanMatchesOneShotCliByteForByte) {
  // Both replay against the frames of the proposed scheme's rectangles on
  // the same placement device: the named or walked one, or for a budget
  // the first library device covering it.
  Server server(quiet_options());
  server.start();
  for (const TwinTarget& target : twin_targets()) {
    SCOPED_TRACE(target.label);
    const std::string expected = cli_twin(
        target, "simulate", {"--steps", "200", "--seed", "3", "--floorplan"});
    SimulateRequest req;
    req.partition = twin_request(target, "simfp-twin");
    req.params.steps = 200;
    req.params.seed = 3;
    req.params.floorplan = true;
    const std::string line =
        raw_exchange(server.port(), simulate_request_json(req));
    EXPECT_EQ(result_payload(line, "simfp-twin"), expected);
  }
}

TEST(ServerTest, SimulateCacheHitIsByteIdentical) {
  Server server(quiet_options());
  server.start();
  const json::Value request =
      simulate_request_json(simulate_request("simc"));
  const std::string cold = raw_exchange(server.port(), request);
  const std::string warm = raw_exchange(server.port(), request);
  EXPECT_EQ(cold, warm);
  const StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, 1u);
  // A cache hit does not re-run the simulator.
  EXPECT_EQ(stats.simulations, 1u);

  // Same partition target, different trace knobs: a distinct cache entry.
  SimulateRequest other = simulate_request("simc2");
  other.params.seed = 99;
  const std::string reseeded =
      raw_exchange(server.port(), simulate_request_json(other));
  EXPECT_NE(result_payload(cold, "simc"), result_payload(reseeded, "simc2"));
  EXPECT_EQ(server.stats_snapshot().simulations, 2u);
}

TEST(ServerTest, SimulateRejectsSingleConfigurationDesigns) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  SimulateRequest req;
  req.partition.id = "sim-one";
  std::vector<Module> modules = {{"M", {{"M1", {100, 0, 0}}}}};
  std::vector<Configuration> configs = {{"Only", {1}}};
  req.partition.design_xml = design_to_xml(
      Design("mono", {10, 0, 0}, std::move(modules), std::move(configs)));
  const ClientResponse resp = client.simulate(req);
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, "bad_request");
}

FloorplanRequest floorplan_request(const std::string& id) {
  FloorplanRequest req;
  req.partition = receiver_request(id);
  return req;
}

TEST(ServerTest, FloorplanJobReturnsRankingAndWinner) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const ClientResponse resp = client.floorplan(floorplan_request("fp1"));
  ASSERT_TRUE(resp.ok) << resp.error_message;
  EXPECT_TRUE(resp.result.at("feasible").as_bool());
  // Budget-targeted job: `device` names the explicit partition target only
  // (same convention as partition/simulate payloads), so it is null here
  // even though a library device was resolved for placement.
  EXPECT_TRUE(resp.result.at("device").is_null());
  EXPECT_GE(resp.result.at("candidates").as_u64(), 1u);
  const json::Value& top = resp.result.at("ranked").items().at(0);
  EXPECT_FALSE(top.at("vetoed").as_bool());
  EXPECT_GE(top.at("placement_total").as_u64(),
            top.at("estimated_total").as_u64());
  EXPECT_TRUE(resp.result.at("winner").is_object());

  // The stats surface the floorplan counters.
  const ClientResponse stats = client.stats();
  ASSERT_TRUE(stats.ok);
  const json::Value& fp = stats.result.at("floorplan");
  EXPECT_EQ(fp.at("passes").as_u64(), 1u);
  EXPECT_EQ(fp.at("candidates").as_u64(), resp.result.at("candidates").as_u64());
  EXPECT_EQ(fp.at("vetoes").as_u64(), resp.result.at("vetoed").as_u64());
}

TEST(ServerTest, FloorplanResponseMatchesOneShotCliByteForByte) {
  // `prpart floorplan --json` and the server's floorplan payload share one
  // encoder and one re-rank pass; the bytes must agree exactly.
  Server server(quiet_options());
  server.start();
  for (const TwinTarget& target : twin_targets()) {
    SCOPED_TRACE(target.label);
    const std::string expected = cli_twin(target, "floorplan");
    FloorplanRequest req;
    req.partition = twin_request(target, "fp-twin");
    const std::string line =
        raw_exchange(server.port(), floorplan_request_json(req));
    EXPECT_EQ(result_payload(line, "fp-twin"), expected);
  }
}

TEST(ServerTest, FloorplanCacheHitIsByteIdentical) {
  Server server(quiet_options());
  server.start();
  const json::Value request =
      floorplan_request_json(floorplan_request("fpc"));
  const std::string cold = raw_exchange(server.port(), request);
  const std::string warm = raw_exchange(server.port(), request);
  EXPECT_EQ(cold, warm);
  StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, 1u);
  // A cache hit does not re-run the placement pass.
  EXPECT_EQ(stats.floorplans, 1u);

  // Same partition target, different re-rank knobs: a distinct cache entry.
  FloorplanRequest other = floorplan_request("fpc2");
  other.params.top_k = 2;
  const std::string retuned =
      raw_exchange(server.port(), floorplan_request_json(other));
  EXPECT_NE(result_payload(cold, "fpc"), result_payload(retuned, "fpc2"));
  EXPECT_EQ(server.stats_snapshot().floorplans, 2u);
}

TEST(ServerTest, PlacementWithNoDeviceCoveringTheBudgetIsInfeasible) {
  // A budget above every library part partitions fine but leaves the
  // placement stages no device: `infeasible`, worded as the CLI's error.
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  const ResourceVec beyond_library{1'000'000, 10'000, 10'000};
  FloorplanRequest floorplan = floorplan_request("fp-nodev");
  floorplan.partition.budget = beyond_library;
  SimulateRequest simulate = simulate_request("sim-nodev");
  simulate.partition.budget = beyond_library;
  simulate.params.floorplan = true;
  for (const ClientResponse& resp :
       {client.floorplan(floorplan), client.simulate(simulate)}) {
    ASSERT_FALSE(resp.ok);
    EXPECT_EQ(resp.error_code, "infeasible");
    EXPECT_EQ(resp.error_message, "no library device covers the budget");
  }
  EXPECT_EQ(server.stats_snapshot().infeasible, 2u);
}

TEST(ServerTest, SimulateWithFloorplanReplaysPlacementTrueFrames) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  SimulateRequest plain = simulate_request("sim-plain");
  SimulateRequest placed = simulate_request("sim-placed");
  placed.params.floorplan = true;
  const ClientResponse plain_resp = client.simulate(plain);
  const ClientResponse placed_resp = client.simulate(placed);
  ASSERT_TRUE(plain_resp.ok) << plain_resp.error_message;
  ASSERT_TRUE(placed_resp.ok) << placed_resp.error_message;
  // Placement-true frame counts dominate the estimates, so the replay
  // loads at least as many frames.
  const json::Value& plain_row = plain_resp.result.at("schemes").items().at(0);
  const json::Value& placed_row =
      placed_resp.result.at("schemes").items().at(0);
  EXPECT_GE(placed_row.at("frames_loaded").as_u64(),
            plain_row.at("frames_loaded").as_u64());
  // The placement pass ran exactly once (the plain job skips it), and the
  // two jobs landed in distinct cache entries.
  const StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.floorplans, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(ServerTest, PipelinedRequestsAnswerOutOfOrderById) {
  ServerOptions opt = quiet_options();
  opt.workers = 1;
  opt.cache_entries = 0;
  Server server(opt);
  server.start();

  // One connection, three requests: a slow partition followed by two
  // pings. The pings are answered inline by the admission workers while the
  // search still runs, so they overtake the job — the client matches
  // responses by id, not arrival order. They are sent only once a stats
  // request on a second connection shows the worker holding the job, so
  // the search is already running when they arrive.
  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  stream.write_all(partition_request_json(slow_request("slow")).dump() + "\n");
  TcpStream probe = TcpStream::connect("127.0.0.1", server.port());
  std::uint64_t in_flight = 0;
  while (in_flight != 1) {
    probe.write_all("{\"type\":\"stats\",\"id\":\"s\"}\n");
    const std::optional<std::string> line = probe.read_line();
    ASSERT_TRUE(line.has_value());
    in_flight = json::parse(*line).at("result").at("in_flight").as_u64();
  }
  stream.write_all(
      "{\"type\":\"ping\",\"id\":\"p1\"}\n"
      "{\"type\":\"ping\",\"id\":\"p2\"}\n");

  std::vector<std::string> order;
  std::string slow_line;
  for (int i = 0; i < 3; ++i) {
    const std::optional<std::string> line = stream.read_line();
    ASSERT_TRUE(line.has_value());
    const json::Value doc = json::parse(*line);
    order.push_back(doc.at("id").as_string());
    if (order.back() == "slow") slow_line = *line;
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.back(), "slow") << "search should finish after the pings";
  EXPECT_FALSE(result_payload(slow_line, "slow").empty()) << slow_line;
}

TEST(ServerTest, BackpressureQueuedNoticeCarriesPositionAndEta) {
  ServerOptions opt = quiet_options();
  opt.workers = 1;
  opt.max_queue = 1;  // soft band: positions 2..high_watermark get notices
  opt.io_workers = 1;  // admit strictly in arrival order
  opt.cache_entries = 0;
  Server server(opt);
  server.start();

  // Three jobs pipelined on one connection with a single worker and a
  // single firm queue slot. The head job is a ~200 ms search, and the other
  // two are sent only once a stats request on a second connection shows
  // the worker holding it: the queue is then empty, so the first follower
  // takes the firm slot and the second lands beyond max_queue and draws an
  // interim `queued` envelope before its final response.
  TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
  stream.write_all(partition_request_json(slow_request("q0")).dump() + "\n");
  TcpStream probe = TcpStream::connect("127.0.0.1", server.port());
  std::uint64_t in_flight = 0;
  while (in_flight != 1) {
    probe.write_all("{\"type\":\"stats\",\"id\":\"s\"}\n");
    const std::optional<std::string> line = probe.read_line();
    ASSERT_TRUE(line.has_value());
    in_flight = json::parse(*line).at("result").at("in_flight").as_u64();
  }
  std::string burst;
  for (int i = 1; i < 3; ++i) {
    PartitionRequest req = small_request("q" + std::to_string(i), 300'000);
    req.options.search.max_move_evaluations += std::uint64_t(i);  // no cache
    burst += partition_request_json(req).dump() + "\n";
  }
  stream.write_all(burst);

  int finals = 0;
  int notices = 0;
  while (finals < 3) {
    const std::optional<std::string> line = stream.read_line();
    ASSERT_TRUE(line.has_value());
    const json::Value doc = json::parse(*line);
    if (!doc.find("ok") && doc.find("queued")) {
      ++notices;
      const json::Value& q = doc.at("queued");
      EXPECT_GT(q.at("position").as_u64(), opt.max_queue);
      EXPECT_TRUE(q.find("eta_ms") != nullptr) << *line;
      continue;
    }
    EXPECT_TRUE(doc.at("ok").as_bool()) << *line;
    ++finals;
  }
  EXPECT_GE(notices, 1);
  EXPECT_GE(server.stats_snapshot().queued_notices, std::uint64_t(notices));
}

TEST(ServerTest, ClientSkipsQueuedNoticesTransparently) {
  ServerOptions opt = quiet_options();
  opt.workers = 1;
  opt.max_queue = 1;
  opt.cache_entries = 0;
  Server server(opt);
  server.start();

  // Several serial clients racing one worker: whoever lands deep in the
  // soft band sees a notice, which Client::exchange skips silently.
  constexpr int kClients = 6;
  std::atomic<int> ok{0};
  std::atomic<std::uint64_t> notices{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      Client client("127.0.0.1", server.port());
      const ClientResponse resp = client.submit(small_request(
          "cq" + std::to_string(i), 200'000 + static_cast<std::uint64_t>(i)));
      if (resp.ok) ++ok;
      notices.fetch_add(client.queued_notices_seen());
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);  // soft band absorbs the burst: no rejects
  EXPECT_EQ(server.stats_snapshot().queued_notices, notices.load());
}

TEST(ServerTest, MetricsRequestReportsServerAndStoreState) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.submit(small_request("m1")).ok);
  const ClientResponse resp = client.metrics("m");
  ASSERT_TRUE(resp.ok) << resp.error_message;
  const json::Value& srv = resp.result.at("server");
  EXPECT_GE(srv.at("connections").as_u64(), 1u);  // this client
  EXPECT_GE(srv.at("connections_total").as_u64(), 1u);
  EXPECT_EQ(srv.at("admission_depth").as_u64(), 0u);
  // The jobs section is the full stats snapshot.
  EXPECT_EQ(resp.result.at("jobs").at("completed").as_u64(), 1u);
  const json::Value& store = resp.result.at("store");
  EXPECT_EQ(store.at("ram_entries").as_u64(), 1u);
  EXPECT_FALSE(store.at("disk_enabled").as_bool());
  EXPECT_EQ(store.at("disk_entries").as_u64(), 0u);
}

TEST(ServerTest, MetricsTextFormatIsFlatKeyValueLines) {
  Server server(quiet_options());
  server.start();
  Client client("127.0.0.1", server.port());
  ASSERT_TRUE(client.ping().ok);
  const ClientResponse resp = client.metrics("mt", /*text=*/true);
  ASSERT_TRUE(resp.ok) << resp.error_message;
  // The text exposition rides inside the JSON envelope as one string.
  const std::string text = resp.result.as_string();
  // Every leaf is a number or a boolean: no comment lines.
  EXPECT_EQ(text.find('#'), std::string::npos) << text;
  EXPECT_NE(text.find("prpart_jobs_completed 0"), std::string::npos) << text;
  EXPECT_NE(text.find("prpart_store_ram_entries 0"), std::string::npos)
      << text;
}

TEST(ServerTest, WarmRestartServesFromDiskWithoutRerunningTheSearch) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::temp_directory_path() /
                       ("prpart_server_test_" + std::to_string(::getpid()) +
                        "_" + info->name());
  fs::create_directories(dir);
  const json::Value request = partition_request_json(small_request("gen1"));

  ServerOptions opt = quiet_options();
  opt.store_dir = (dir / "store").string();
  std::string cold;
  {
    Server server(opt);
    server.start();
    cold = raw_exchange(server.port(), request);
    server.stop();  // graceful drain flushes the RAM store to disk
  }
  ASSERT_FALSE(result_payload(cold, "gen1").empty()) << cold;

  // A brand-new process image (fresh Server, same directory): the warm
  // store answers byte-identically without admitting a job or searching.
  Server restarted(opt);
  restarted.start();
  const std::string warm = raw_exchange(restarted.port(), request);
  EXPECT_EQ(warm, cold);
  const StatsSnapshot stats = restarted.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.search_move_evaluations, 0u);
  Client client("127.0.0.1", restarted.port());
  const ClientResponse metrics = client.metrics();
  ASSERT_TRUE(metrics.ok);
  EXPECT_TRUE(metrics.result.at("store").at("disk_enabled").as_bool());
  EXPECT_GE(metrics.result.at("store").at("disk_hits").as_u64(), 1u);
  restarted.stop();
  fs::remove_all(dir);
}

TEST(ServerTest, ThousandPipelinedClientsAreServedInOneProcess) {
  ServerOptions opt = quiet_options();
  opt.workers = 2;
  Server server(opt);
  server.start();

  // Warm the result store so the partition below is a cache hit for every
  // client: this test is about connection scale, not search throughput.
  ASSERT_FALSE(raw_exchange(server.port(),
                            partition_request_json(small_request("warm")))
                   .empty());

  // 1024 sockets held open at once, each with 3 pipelined requests written
  // before any response is read — far beyond what thread-per-connection
  // could hold on this machine's thread budget.
  constexpr int kConns = 1024;
  constexpr int kPerConn = 3;
  std::vector<TcpStream> conns;
  conns.reserve(kConns);
  for (int i = 0; i < kConns; ++i)
    conns.push_back(TcpStream::connect("127.0.0.1", server.port()));
  for (int i = 0; i < kConns; ++i) {
    const std::string tag = std::to_string(i);
    std::string burst = "{\"type\":\"ping\",\"id\":\"a" + tag + "\"}\n";
    burst += partition_request_json(small_request("j" + tag)).dump() + "\n";
    burst += "{\"type\":\"ping\",\"id\":\"b" + tag + "\"}\n";
    conns[static_cast<std::size_t>(i)].write_all(burst);
  }
  std::size_t responses = 0;
  for (int i = 0; i < kConns; ++i) {
    int finals = 0;
    while (finals < kPerConn) {
      const std::optional<std::string> line =
          conns[static_cast<std::size_t>(i)].read_line();
      ASSERT_TRUE(line.has_value()) << "conn " << i;
      const json::Value doc = json::parse(*line);
      if (!doc.find("ok") && doc.find("queued")) continue;
      EXPECT_TRUE(doc.at("ok").as_bool()) << *line;
      ++finals;
      ++responses;
    }
  }
  EXPECT_EQ(responses, static_cast<std::size_t>(kConns) * kPerConn);
  const StatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.cache_hits, static_cast<std::uint64_t>(kConns));
  Client client("127.0.0.1", server.port());
  const ClientResponse metrics = client.metrics();
  ASSERT_TRUE(metrics.ok);
  EXPECT_GE(metrics.result.at("server").at("connections_total").as_u64(),
            static_cast<std::uint64_t>(kConns));
}

TEST(ServerTest, OverlongLineClosesOnlyThatConnection) {
  Server server(quiet_options());
  server.start();

  // One connection streams an unterminated line past TcpStream::kMaxLine
  // while another pipelines ordinary requests at the same time.
  TcpStream abuser = TcpStream::connect("127.0.0.1", server.port());
  TcpStream good = TcpStream::connect("127.0.0.1", server.port());
  std::thread flood([&abuser] {
    const std::string chunk(1u << 20, 'x');
    try {
      for (std::size_t sent = 0; sent <= TcpStream::kMaxLine;
           sent += chunk.size())
        abuser.write_all(chunk);
    } catch (const SocketError&) {
      // EPIPE or a reset: the server closed the connection mid-stream.
    }
  });

  constexpr int kRequests = 6;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    const std::string id = "g" + std::to_string(i);
    burst += i % 2 == 0
                 ? "{\"type\":\"ping\",\"id\":\"" + id + "\"}\n"
                 : partition_request_json(small_request(id)).dump() + "\n";
  }
  good.write_all(burst);
  int finals = 0;
  while (finals < kRequests) {
    const std::optional<std::string> line = good.read_line();
    if (!line) {
      ADD_FAILURE() << "good connection closed after " << finals;
      break;  // still join the flood thread below
    }
    const json::Value doc = json::parse(*line);
    if (!doc.find("ok") && doc.find("queued")) continue;
    EXPECT_TRUE(doc.at("ok").as_bool()) << *line;
    ++finals;
  }
  flood.join();

  // The server closed the abusive connection without answering it: the
  // read sees EOF, or a reset because the server dropped unread bytes.
  pollfd pfd{abuser.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 10'000), 1) << "abusive connection still open";
  bool closed = false;
  try {
    closed = !abuser.read_line().has_value();
  } catch (const SocketError&) {
    closed = true;
  }
  EXPECT_TRUE(closed);
  server.stop();
  EXPECT_EQ(server.stats_snapshot().failed, 0u);
}

TEST(ServerTest, ServeCommandDrainsOnSigtermAndExitsZero) {
  // End to end through the CLI: `prpart serve` must install its handlers,
  // serve clients, and exit 0 on SIGTERM.
  constexpr const char* kPort = "29787";
  std::ostringstream out, err;
  int code = -1;
  std::thread serve([&] {
    code = cli::run({"serve", "--port", kPort, "--workers", "1"}, out, err);
  });

  // Wait for the listener, prove it serves, then signal the drain.
  bool pinged = false;
  for (int attempt = 0; attempt < 100 && !pinged; ++attempt) {
    try {
      Client client("127.0.0.1", 29787);
      pinged = client.ping().ok;
    } catch (const SocketError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(pinged) << err.str();
  std::raise(SIGTERM);
  serve.join();
  EXPECT_EQ(code, 0) << err.str();
  EXPECT_NE(err.str().find("drained:"), std::string::npos);
}

}  // namespace
}  // namespace prpart::server
