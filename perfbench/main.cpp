// perfbench: end-to-end benchmark of `prpart serve` (see README.md).
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --prpart PATH --workdir DIR
//   perfbench gen --workload W --seed N --count K
//
// `run` prints a metric table and, as its last stdout line, one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced replay with --trace 1.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>

#include "perfbench.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Setups per run; setup_s is their median.
constexpr int kSetups = 31;
/// Every run keeps sending until at least this many answers fall in kept
/// seconds, so that at least kAboveP99 latency samples lie above p99; a run
/// with fewer is marked incorrect.
constexpr std::size_t kMinSamples = 1100;
constexpr std::size_t kAboveP99 = 10;
/// The traced replay times layers on at most this many served requests (a
/// few passes over a cold pool; a large sample of warm requests).
constexpr std::size_t kColdReplayPasses = 4;
constexpr std::size_t kWarmReplayCap = 20'000;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The server's own counters, from one `metrics` request.
struct ServerSnapshot {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t ram_evictions = 0;
  double p50_ms = 0;
};

ServerSnapshot server_snapshot(std::uint16_t port) {
  const prpart::json::Value doc = prpart::json::parse(
      request_once(port, "{\"type\":\"metrics\",\"id\":\"snapshot\"}"));
  const prpart::json::Value& jobs = doc.at("result").at("jobs");
  const prpart::json::Value& store = doc.at("result").at("store");
  ServerSnapshot s;
  s.cache_hits = jobs.at("cache_hits").as_u64();
  s.cache_misses = jobs.at("cache_misses").as_u64();
  s.disk_hits = store.at("disk_hits").as_u64();
  s.disk_writes = store.at("disk_writes").as_u64();
  s.ram_evictions = store.at("ram_evictions").as_u64();
  s.p50_ms = static_cast<double>(jobs.at("p50_latency_us").as_u64()) / 1e3;
  return s;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

unsigned replay_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

struct Verdict {
  std::size_t failed = 0;
  std::vector<std::string> failures;
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  /// Takes over the failures of a load phase (it lists only the first few).
  void absorb(const LoadResult& load) {
    for (const std::string& f : load.failures) fail(f);
    failed += load.failed - load.failures.size();
  }
};

/// `answer` with every occurrence of design name `from` replaced by `to`.
std::string renamed(std::string answer, const std::string& from,
                    const std::string& to) {
  if (from == to) return answer;
  for (std::size_t at = 0; (at = answer.find(from, at)) != std::string::npos;
       at += to.size())
    answer.replace(at, from.size(), to);
  return answer;
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics)
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& metrics) {
  prpart::json::Value doc = prpart::json::Value::object();
  doc.set("correct", prpart::json::Value(correct));
  doc.set("attempted", prpart::json::Value(static_cast<std::uint64_t>(attempted)));
  doc.set("failed", prpart::json::Value(static_cast<std::uint64_t>(failed)));
  prpart::json::Value ms = prpart::json::Value::object();
  for (const Metric& m : metrics) {
    prpart::json::Value v = prpart::json::Value::object();
    v.set("value", prpart::json::Value(m.value));
    v.set("unit", prpart::json::Value(m.unit));
    ms.set(m.name, std::move(v));
  }
  doc.set("metrics", std::move(ms));
  return doc.dump();
}

/// Per-layer metrics of a traced run.
std::vector<Metric> layer_metrics(const LoadResult& load,
                                  const ServerSnapshot& before,
                                  const ServerSnapshot& after,
                                  const ReplayResult& traced,
                                  const SpanSummary& s, double overhead) {
  std::vector<Metric> m;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    m.push_back(Metric{name, value, unit});
  };
  const auto pct = [&](const std::string& span, double q) {
    const auto it = s.durations_ms.find(span);
    return it == s.durations_ms.end() ? 0.0 : percentile(it->second, q);
  };
  const auto calls = [&](const std::string& layer) {
    const auto it = s.layer_calls.find(layer);
    return it == s.layer_calls.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto self = [&](const std::string& layer) {
    const auto it = s.layer_self_ms.find(layer);
    return it == s.layer_self_ms.end() ? 0.0 : it->second;
  };
  const auto layer = [&](const std::string& name) {
    add(name + ".calls", calls(name), "count");
    add(name + ".self_ms.total", self(name), "ms");
  };
  const ReplayCounters& c = traced.counters;

  layer("server");
  add("server.ping_rtt_ms.p50", percentile(load.ping_rtt_ms, 0.5), "ms");
  add("server.ping_rtt_ms.p99", percentile(load.ping_rtt_ms, 0.99), "ms");
  add("server.jobs_p50_ms", after.p50_ms, "ms");
  add("server.queue_depth.mean", mean(load.queue_depth), "count");
  add("server.admission_depth.mean", mean(load.admission_depth), "count");
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  add("server.cache_hit_ratio", ratio(hits, hits + misses), "ratio");

  layer("store");
  add("store.lookup_ms.p50", pct("store.lookup", 0.5), "ms");
  add("store.lookup_ms.p99", pct("store.lookup", 0.99), "ms");
  add("store.line_cache_hit_ratio",
      ratio(static_cast<double>(c.line_cache_hits),
            static_cast<double>(c.requests)),
      "ratio");
  // The server's store over the measured phase.
  add("store.disk_hit_ratio",
      ratio(static_cast<double>(after.disk_hits - before.disk_hits),
            hits + misses),
      "ratio");
  add("store.disk_writes",
      static_cast<double>(after.disk_writes - before.disk_writes), "count");
  add("store.ram_evictions",
      static_cast<double>(after.ram_evictions - before.ram_evictions),
      "count");
  add("store.warm_start_ms", traced.warm_start_ms, "ms");

  layer("protocol");
  add("protocol.parse_request_ms.p50", pct("protocol.parse_request", 0.5), "ms");
  add("protocol.encode_ms.p50", pct("protocol.encode", 0.5), "ms");
  layer("hash");
  add("hash.job_cache_key_ms.p50", pct("hash.job_cache_key", 0.5), "ms");
  layer("design");
  add("design.from_xml_ms.p50", pct("design.from_xml", 0.5), "ms");

  layer("core");
  add("core.partitioner_ms.p50", pct("core.partitioner", 0.5), "ms");
  add("core.partitioner_ms.p99", pct("core.partitioner", 0.99), "ms");
  add("core.partitioner.escalated_frac",
      ratio(static_cast<double>(c.escalated), static_cast<double>(c.partitions)),
      "ratio");
  // The stage-by-stage re-run has spans of its own ("stages.*"), so it
  // stays out of the core layer's calls and self time.
  add("core.connectivity_ms.p50", pct("stages.connectivity", 0.5), "ms");
  add("core.clustering_ms.p50", pct("stages.clustering", 0.5), "ms");
  add("core.compatibility_ms.p50", pct("stages.compatibility", 0.5), "ms");
  add("core.eval_kernel_ms.p50", pct("stages.eval_kernel", 0.5), "ms");
  add("core.search_ms.p50", pct("stages.search", 0.5), "ms");
  add("core.search_ms.p99", pct("stages.search", 0.99), "ms");
  add("core.search.move_evaluations", static_cast<double>(c.move_evaluations),
      "count");
  add("core.search.kernel_evaluations",
      static_cast<double>(c.kernel_evaluations), "count");
  add("core.search.prune_ratio",
      ratio(static_cast<double>(c.units_pruned), static_cast<double>(c.units)),
      "ratio");
  add("core.search.rescore_ratio",
      ratio(static_cast<double>(c.moves_rescored),
            static_cast<double>(c.moves_rescored + c.full_evaluations)),
      "ratio");
  add("core.search.budget_exhausted_frac",
      ratio(static_cast<double>(c.budget_exhausted),
            static_cast<double>(c.searches)),
      "ratio");

  layer("floorplan");
  add("floorplan.rerank_ms.p50", pct("floorplan.rerank", 0.5), "ms");
  add("floorplan.rerank_ms.p99", pct("floorplan.rerank", 0.99), "ms");
  add("floorplan.candidates", static_cast<double>(c.floorplan_candidates),
      "count");
  add("floorplan.veto_ratio",
      ratio(static_cast<double>(c.floorplan_vetoes),
            static_cast<double>(c.floorplan_candidates)),
      "ratio");
  add("floorplan.overturns", static_cast<double>(c.floorplan_overturns),
      "count");

  layer("sim");
  add("sim.setup_ms.p50", pct("sim.setup", 0.5), "ms");
  add("sim.replay_ms.p50", pct("sim.replay", 0.5), "ms");
  double replay_ms = 0;
  if (const auto it = s.durations_ms.find("sim.replay");
      it != s.durations_ms.end())
    replay_ms = std::accumulate(it->second.begin(), it->second.end(), 0.0);
  add("sim.transitions_per_s",
      ratio(static_cast<double>(c.transitions), replay_ms / 1e3), "1/s");

  add("trace.overhead_ratio", overhead, "ratio");
  add("trace.spans", static_cast<double>(s.spans), "count");
  return m;
}

/// The measured phase in the seconds kept_windows() keeps.
struct Kept {
  std::vector<double> latency_ms;
  double seconds = 0;
  double server_cpu_ms = 0;
  std::size_t windows = 0;
  std::size_t of = 0;
};

Kept steady_seconds(const LoadResult& load) {
  const std::vector<bool> keep = kept_windows(load.marks);
  const std::size_t n = keep.size();
  Kept out;
  out.of = n;
  for (std::size_t k = 0; k < n; ++k) {
    if (!keep[k]) continue;
    ++out.windows;
    out.seconds +=
        static_cast<double>(load.marks[k + 1].ns - load.marks[k].ns) / 1e9;
    out.server_cpu_ms +=
        load.marks[k + 1].server_cpu_ms - load.marks[k].server_cpu_ms;
  }
  // Window k of each answer, by its answer time.
  std::size_t k = 0;
  for (std::size_t i = 0; i < load.done_ns.size(); ++i) {
    while (k < n && load.done_ns[i] >= load.marks[k + 1].ns) ++k;
    if (k == n) break;
    if (load.done_ns[i] >= load.marks[k].ns && keep[k])
      out.latency_ms.push_back(load.latency_ms[i]);
  }
  return out;
}

/// Client-side spans of the served phase: one per request and probe.
SpanLog served_spans(const LoadResult& load) {
  SpanLog log;
  for (const LoadResult::Timed& t : load.timed) {
    SpanRecord r;
    r.name = t.probe ? "server.ping" : "server.request";
    r.start_ns = t.send_ns;
    r.end_ns = t.done_ns;
    r.request = t.request;
    log.spans.push_back(r);
  }
  return log;
}

int cmd_run(const prpart::Args& args) {
  const WorkloadSpec* spec = find_workload(args.value_or("workload", ""));
  if (spec == nullptr) {
    std::cerr << "error: --workload must be one of cold_sweep, warm_hits, "
                 "placement_sim\n";
    return 2;
  }
  const std::uint64_t seed = args.u64_or("seed", 1);
  const double seconds = static_cast<double>(args.u64_or("seconds", 10));
  const bool traced = args.u64_or("trace", 0) != 0;
  const std::string prpart = args.value_or("prpart", "");
  const fs::path workdir =
      fs::path(args.value_or("workdir", ".")) /
      (spec->name + "-seed" + std::to_string(seed) + "-pid" +
       std::to_string(::getpid()));
  fs::remove_all(workdir);
  fs::create_directories(workdir);
  const std::string store_dir = spec->store ? (workdir / "store").string() : "";
  const std::string log_path = (workdir / "serve.log").string();

  Stream stream(*spec, seed);
  Verdict verdict;
  std::size_t attempted = 0;
  std::map<std::size_t, std::string> served;  // template -> first answer

  // Untimed preparation: compute the working set into the store directory.
  if (spec->store) {
    ServerProcess prep = spawn_server(prpart, *spec, store_dir, log_path);
    const ServerGuard prep_guard(prep);
    const std::vector<std::size_t> order = stream.preparation();
    LoadResult p = run_load(prep.port, stream, *spec, LoadOptions{}, &order);
    if (!stop_server(prep)) verdict.fail("preparation server did not drain");
    attempted += p.attempted;
    verdict.absorb(p);
    served = std::move(p.answers);
  }

  // Set-up: spawn to first ok ping, kSetups times; the last server stays.
  std::vector<double> setups;
  ServerProcess server;
  const ServerGuard guard(server);
  for (int i = 0; i < kSetups; ++i) {
    server = spawn_server(prpart, *spec, store_dir, log_path);
    setups.push_back(server.setup_s);
    if (i + 1 < kSetups && !stop_server(server))
      verdict.fail("server did not drain after a set-up");
  }

  const ServerSnapshot before = server_snapshot(server.port);
  LoadOptions lo;
  lo.seconds = seconds;
  lo.min_requests = spec->pool;
  lo.min_kept = kMinSamples;
  lo.probes = traced;
  lo.server_pid = server.pid;
  LoadResult load = run_load(server.port, stream, *spec, lo);
  const ProcStats final_stats = proc_stats(server.pid);
  const ServerSnapshot after = server_snapshot(server.port);
  if (!stop_server(server)) verdict.fail("server did not drain cleanly");
  attempted += load.attempted;
  verdict.absorb(load);
  if (spec->store && after.cache_misses != before.cache_misses)
    verdict.fail("measured phase had " +
                 std::to_string(after.cache_misses - before.cache_misses) +
                 " cache misses");
  for (auto& [t, answer] : load.answers) {
    const auto [it, inserted] = served.emplace(t, answer);
    if (!inserted && it->second != answer)
      verdict.fail("a warm answer differs from the preparation pass");
  }

  // Expected answer of every pool design, computed fresh in process (RAM
  // store, so every design is partitioned). A later pass's answer is the
  // same bytes under its own design name.
  ReplayOptions ro;
  ro.cache = spec->pool;
  ro.threads = replay_threads();
  std::vector<std::size_t> pool(spec->pool);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  const ReplayResult expected = replay(stream, pool, ro);
  std::uint64_t frames_sum = 0;
  for (const auto& [t, answer] : served) {
    const Template& tm = stream.tmpl(t);
    const std::string want =
        renamed(expected.answers[tm.pool_index],
                stream.design(tm.pool_index).name(),
                stream.design(tm.design).name());
    if (answer != want) {
      verdict.fail("served answer differs from the in-process answer: " +
                   answer.substr(0, 200) + " vs " + want.substr(0, 200));
      continue;
    }
    if (tm.cycle != 0) continue;  // certified through its pool design
    std::uint64_t frames = 0;
    if (const std::string why =
            certify(stream, t, answer, expected.simulated[t], frames);
        !why.empty())
      verdict.fail("re-certification failed: " + why);
    frames_sum += frames;
  }
  for (const std::size_t j : pool)
    if (served.count(j) == 0) verdict.fail("pool design " + std::to_string(j) +
                                           " was never answered");

  std::vector<Metric> metrics;
  const Kept steady = steady_seconds(load);
  const std::size_t samples = steady.latency_ms.size();
  // Nearest-rank p99 is sample ceil(0.99 n); the rest lie above it.
  const std::size_t above_p99 =
      samples - static_cast<std::size_t>(
                    std::ceil(0.99 * static_cast<double>(samples)));
  if (above_p99 < kAboveP99)
    verdict.fail("only " + std::to_string(above_p99) +
                 " latency samples above p99 (" + std::to_string(samples) +
                 " kept)");
  if (!traced) {
    const auto answers = static_cast<double>(steady.latency_ms.size());
    std::printf("kept %zu of %zu seconds (hypervisor steal above %.0f%% in "
                "the rest)\n",
                steady.windows, steady.of, kMaxSteal * 100);
    metrics = {
        {"throughput_rps", ratio(answers, steady.seconds), "1/s"},
        {"latency_p50_ms", percentile(steady.latency_ms, 0.5), "ms"},
        {"latency_p99_ms", percentile(steady.latency_ms, 0.99), "ms"},
        {"setup_s", percentile(setups, 0.5), "s"},
        {"peak_rss_mb", final_stats.peak_rss_mb, "MB"},
        {"server_cpu_ms_per_req", ratio(steady.server_cpu_ms, answers), "ms"},
        {"scheme_frames_sum", static_cast<double>(frames_sum), "frames"},
    };
  } else {
    // The served requests again, in process: untraced, then traced. Both
    // passes make the same calls (including the stage-by-stage re-run), so
    // their wall-time ratio is the tracing overhead.
    std::vector<std::size_t> replayed = load.sent;
    replayed.resize(std::min(replayed.size(),
                             spec->store ? kWarmReplayCap
                                         : kColdReplayPasses * spec->pool));
    ReplayOptions uro;
    uro.cache = spec->cache;
    uro.store_dir = store_dir;
    uro.stages = true;
    uro.threads = ro.threads;
    ReplayOptions tro = uro;
    tro.traced = true;
    const ReplayResult untraced_run = replay(stream, replayed, uro);
    const ReplayResult traced_run = replay(stream, replayed, tro);
    for (std::size_t i = 0; i < replayed.size(); ++i) {
      const std::string& answer = served.at(replayed[i]);
      if (answer != untraced_run.answers[i] || answer != traced_run.answers[i])
        verdict.fail("replayed answer differs from the served answer: " +
                     answer.substr(0, 200) + " vs " +
                     traced_run.answers[i].substr(0, 200));
    }
    std::vector<const SpanLog*> logs;
    const SpanLog client = served_spans(load);
    logs.push_back(&client);
    for (const auto& l : traced_run.logs) logs.push_back(l.get());
    const SpanSummary summary = summarize(logs);
    metrics = layer_metrics(load, before, after, traced_run, summary,
                            ratio(traced_run.wall_s, untraced_run.wall_s));
    const fs::path trace_dir =
        fs::path(args.value_or("workdir", ".")) / "traces";
    fs::create_directories(trace_dir);
    const std::string trace_path =
        (trace_dir / (spec->name + "-seed" + std::to_string(seed) + ".json"))
            .string();
    write_trace(trace_path, logs);
    std::printf("trace: %zu spans written to %s\n", summary.spans,
                trace_path.c_str());
  }

  fs::remove_all(workdir);
  const bool correct = verdict.failed == 0;
  std::ostringstream title;
  title << spec->name << " seed " << seed << (traced ? " (traced)" : "")
        << ": " << load.completed << " answers in " << load.wall_s
        << " s, latency samples " << samples << " (" << above_p99
        << " above p99), error_rate "
        << ratio(static_cast<double>(verdict.failed),
                 static_cast<double>(std::max<std::size_t>(attempted, 1)))
        << ", correct " << (correct ? "yes" : "NO");
  print_table(title.str(), metrics);
  for (const std::string& f : verdict.failures)
    std::fprintf(stderr, "failure: %s\n", f.c_str());
  std::printf("%s\n",
              result_json(correct, attempted, verdict.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int cmd_gen(const prpart::Args& args) {
  const WorkloadSpec* spec = find_workload(args.value_or("workload", ""));
  if (spec == nullptr) {
    std::cerr << "error: unknown --workload\n";
    return 2;
  }
  Stream stream(*spec, args.u64_or("seed", 1));
  for (const std::size_t t : stream.preparation())
    std::cout << stream.tmpl(t).line("prep") << "\n";
  const std::uint64_t count = args.u64_or("count", 100);
  for (std::size_t k = 0; k < count; ++k)
    std::cout << stream.tmpl(stream.at(k)).line(stream.id(k)) << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      std::cerr << "usage: perfbench run|gen [options]\n";
      return 2;
    }
    const std::string cmd = argv[1];
    const prpart::Args args(std::vector<std::string>(argv + 2, argv + argc),
                            {});
    if (cmd == "run") {
      args.check_known(
          {"workload", "seed", "seconds", "trace", "prpart", "workdir"});
      return perfbench::cmd_run(args);
    }
    if (cmd == "gen") {
      args.check_known({"workload", "seed", "count"});
      return perfbench::cmd_gen(args);
    }
    std::cerr << "unknown command " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
