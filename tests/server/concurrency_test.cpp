#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "design/io_xml.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace prpart::server {
namespace {

/// Cross-thread hammer for the server's locking seams: ServerStats, the
/// result cache, the job queue and the connection registry all run hot and
/// concurrently here. Under TSan this is the data-race regression test for
/// the annotated concurrency layer; in every build the counter identities
/// below catch lost updates and torn aggregation.
constexpr unsigned kClientThreads = 4;
constexpr std::uint64_t kEvals = 10'000;

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

PartitionRequest partition_request(const std::string& id,
                                   std::uint64_t evals = kEvals) {
  PartitionRequest req;
  req.id = id;
  req.design_xml = design_to_xml(small_design());
  req.budget = ResourceVec{4000, 60, 60};
  req.options = default_partitioner_options();
  req.options.search.max_move_evaluations = evals;
  return req;
}

TEST(ServerConcurrencyTest, MixedJobHammerKeepsCountersConsistent) {
  ServerOptions options;
  options.port = 0;
  options.workers = 4;
  options.max_queue = 64;
  Server server(options);
  server.start();

  std::atomic<std::uint64_t> oks{0};
  std::atomic<std::uint64_t> submitted{0};  ///< queue-path jobs only
  std::atomic<bool> failed{false};

  auto hammer = [&](unsigned t) {
    try {
      Client client("127.0.0.1", server.port());
      const std::string tag = std::to_string(t);

      // Identical across threads: after the first miss these share one
      // cache entry, racing hit/miss bookkeeping on purpose.
      ClientResponse r = client.submit(partition_request("shared-" + tag));
      submitted.fetch_add(1);
      if (r.ok) oks.fetch_add(1);

      // Unique per thread (the evals knob is part of the cache key).
      r = client.submit(partition_request("unique-" + tag, kEvals + t + 1));
      submitted.fetch_add(1);
      if (r.ok) oks.fetch_add(1);

      SimulateRequest sim;
      sim.partition = partition_request("sim-" + tag);
      sim.params.steps = 2'000;
      sim.params.seed = t + 1;
      r = client.simulate(sim);
      submitted.fetch_add(1);
      if (r.ok) oks.fetch_add(1);

      FloorplanRequest fp;
      fp.partition = partition_request("fp-" + tag);
      fp.params.top_k = 3;
      r = client.floorplan(fp);
      submitted.fetch_add(1);
      if (r.ok) oks.fetch_add(1);

      // Inline paths exercise the stats mutex from the handler threads
      // without touching the queue.
      PartitionRequest an;
      an.id = "an-" + tag;
      an.design_xml = design_to_xml(small_design());
      if (client.analyze(an).ok) oks.fetch_add(1);
      if (client.stats("st-" + tag).ok) oks.fetch_add(1);
    } catch (...) {
      failed.store(true);
    }
  };

  // A dedicated poller reads snapshots (queue lock + stats lock) while the
  // workers fold counters in.
  std::atomic<bool> polling{true};
  std::thread poller([&] {
    while (polling.load()) {
      const StatsSnapshot snap = server.stats_snapshot();
      ASSERT_LE(snap.completed, snap.accepted);
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (unsigned t = 0; t < kClientThreads; ++t)
    clients.emplace_back(hammer, t);
  for (std::thread& c : clients) c.join();
  polling.store(false);
  poller.join();
  server.stop();

  ASSERT_FALSE(failed.load());
  // Every request succeeded: 6 per client thread.
  EXPECT_EQ(oks.load(), kClientThreads * 6u);

  const StatsSnapshot snap = server.stats_snapshot();
  // Admission identities: every queue-path submission either hit the cache
  // or was accepted, every miss was accepted, and — ample queue, feasible
  // jobs, no deadline — every accepted job completed. Lost or doubled
  // counter updates break these equalities.
  EXPECT_EQ(snap.cache_hits + snap.cache_misses, submitted.load());
  EXPECT_EQ(snap.accepted, snap.cache_misses);
  EXPECT_EQ(snap.completed, snap.accepted);
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.timed_out, 0u);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.infeasible, 0u);
  // The shared partition request guarantees at least one hit (first thread
  // misses, at least one later thread reuses the stored payload) — unless
  // all four raced past the store, which the identical-bytes determinism
  // makes harmless but the counters still record as misses. Weak bound:
  EXPECT_GE(snap.cache_hits + snap.cache_misses, kClientThreads * 4u);
  // Stage counters flowed through: searches, replays and floorplan passes
  // all ran at least once per thread's unique jobs.
  EXPECT_GT(snap.search_move_evaluations, 0u);
  EXPECT_GE(snap.simulations, 1u);
  EXPECT_GT(snap.simulated_transitions, 0u);
  EXPECT_GE(snap.floorplans, 1u);
  EXPECT_GT(snap.floorplan_candidates, 0u);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.in_flight, 0u);
}

TEST(ServerConcurrencyTest, PipelinedHammerKeepsCounterIdentities) {
  // The reactor-path twin of the hammer above: every client pipelines its
  // whole burst on one connection before reading anything, so admission,
  // the line cache, the result store and the completion outbox all run
  // concurrently. The identities must hold exactly — a lost or doubled
  // update under the event loop breaks them.
  ServerOptions options;
  options.port = 0;
  options.workers = 4;
  options.max_queue = 64;
  Server server(options);
  server.start();

  constexpr unsigned kConns = 8;
  constexpr unsigned kPerConn = 6;
  std::atomic<std::uint64_t> finals{0};
  std::atomic<bool> failed{false};
  auto hammer = [&](unsigned t) {
    try {
      TcpStream stream = TcpStream::connect("127.0.0.1", server.port());
      // Round 1 runs cold (every burst is admitted before anything has
      // completed, so nothing can hit); round 2 repeats the same requests
      // under fresh ids, which must all be served from the store.
      for (unsigned round = 0; round < 2; ++round) {
        std::string burst;
        for (unsigned i = 0; i < kPerConn; ++i) {
          // Half shared across connections (cache contention), half unique
          // per connection; both halves repeat across rounds.
          const bool shared = i % 2 == 0;
          const std::string id = (shared ? "ps-" : "pu-") +
                                 std::to_string(round) + "-" +
                                 std::to_string(t) + "-" + std::to_string(i);
          const std::uint64_t evals =
              shared ? kEvals : kEvals + 100 * t + i + 1;
          burst +=
              partition_request_json(partition_request(id, evals)).dump();
          burst += "\n";
        }
        stream.write_all(burst);
        unsigned seen = 0;
        while (seen < kPerConn) {
          const std::optional<std::string> line = stream.read_line();
          if (!line) break;
          // Interim queued notices carry no `ok`; finals always do.
          if (line->find("\"ok\":") == std::string::npos) continue;
          ++seen;
          finals.fetch_add(1);
        }
      }
    } catch (...) {
      failed.store(true);
    }
  };

  std::vector<std::thread> clients;
  clients.reserve(kConns);
  for (unsigned t = 0; t < kConns; ++t) clients.emplace_back(hammer, t);
  for (std::thread& c : clients) c.join();
  server.stop();

  ASSERT_FALSE(failed.load());
  EXPECT_EQ(finals.load(), 2u * kConns * kPerConn);
  const StatsSnapshot snap = server.stats_snapshot();
  // Every pipelined submission either hit a cache layer or was accepted;
  // every miss was accepted; every accepted job completed.
  EXPECT_EQ(snap.cache_hits + snap.cache_misses,
            2u * std::uint64_t(kConns) * kPerConn);
  EXPECT_EQ(snap.accepted, snap.cache_misses);
  EXPECT_EQ(snap.completed, snap.accepted);
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_EQ(snap.timed_out, 0u);
  // Round 2 repeats round 1 with only the ids changed: every one of those
  // requests is served from a cache layer.
  EXPECT_GE(snap.cache_hits, std::uint64_t(kConns) * kPerConn);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.in_flight, 0u);
}

}  // namespace
}  // namespace prpart::server
