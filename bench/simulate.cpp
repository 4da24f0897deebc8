// Trace-driven simulator bench (DESIGN.md §5): replays workloads against the
// candidate schemes of a synthetic design suite and gates the headline
// contract in CI — ranking schemes by simulated cost over the uniform
// all-pairs trace must agree with the paper's Eq. 10 ranking on every
// candidate pair (uniform_ranking_agreement, hard floor 1.0 in
// tools/check_bench.py). Three further legs measure replay throughput on
// Markov workloads with and without prefetching and verify the fan-out is
// byte-identical across thread counts. A last pass replays every leg's runs
// through the step-by-step reference replay in oracle/ and gates that
// production equals it (replay_identity_agreement, hard floor 1.0). All
// counters except wall-clock and rates are deterministic and
// regression-gated against BENCH_simulate.json.
//
//   PRPART_SIM_DESIGNS=40 PRPART_SIM_STEPS=50000 ./bench_simulate
//
// The design count and step count are fixed knobs (not PRPART_DESIGNS): the
// committed baseline's deterministic counters only line up when CI runs the
// same scale.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/clustering.hpp"
#include "core/partitioner.hpp"
#include "design/synthetic.hpp"
#include "oracle/simulator_reference.hpp"
#include "reconfig/markov.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace prpart::bench {
namespace {

using sim::SchemeRef;
using sim::SimulationOptions;
using sim::SimulationResult;
using sim::TransitionTrace;

std::size_t env_count(const char* name, std::size_t fallback) {
  if (const char* value = std::getenv(name))
    return static_cast<std::size_t>(std::max(1, std::atoi(value)));
  return fallback;
}

/// One partitioned design plus every distinct fitting candidate scheme the
/// run produced: the proposal, the paper's baselines and the certified
/// near-optimal alternatives — the population `prpart simulate --rank`
/// replays.
struct SimCase {
  Design design;
  PartitionerResult result;
  std::vector<SchemeEvaluation> alt_evals;  ///< arena, pointers stay stable
  std::vector<SchemeRef> candidates;
  MarkovChain chain;
  TransitionTrace markov;

  // What the uniform, Markov and prefetch legs replayed, kept for the
  // replay identity pass.
  std::vector<SimulationResult> uniform_results;
  SimulationResult markov_result;
  SimulationResult prefetch_result;

  SimCase(Design d, PartitionerResult r, MarkovChain c)
      : design(std::move(d)), result(std::move(r)), chain(std::move(c)) {}
};

bool same_result(const SimulationResult& a, const SimulationResult& b) {
  return oracle::describe(a) == oracle::describe(b);
}

int main_impl() {
  const std::size_t count = env_count("PRPART_SIM_DESIGNS", 40);
  const std::uint64_t steps = env_count("PRPART_SIM_STEPS", 50'000);

  // The paper's §V generator with modest search effort: the bench measures
  // the simulator, not search quality, but the candidate sets must still be
  // real search output so the ranking leg compares genuinely distinct
  // schemes (including exact Eq. 10 ties between runners-up).
  PartitionerOptions options;
  options.search.max_move_evaluations = 60'000;
  options.search.keep_alternatives = 4;
  options.search.threads = 1;
  const ResourceVec budget{20000, 300, 250};
  const auto suite = generate_synthetic_suite(20260807, count);

  std::vector<SimCase> cases;
  Rng chain_rng(4242);
  for (const SyntheticDesign& sd : suite) {
    const std::size_t n = sd.design.configurations().size();
    if (n < 2) continue;
    PartitionerResult result = partition_design(sd.design, budget, options);
    if (!result.feasible) continue;
    MarkovChain chain = MarkovChain::random(chain_rng, n);
    cases.emplace_back(sd.design, std::move(result), std::move(chain));
    Rng trace_rng(9000 + cases.size());
    cases.back().markov = sim::markov_trace(cases.back().chain, trace_rng, steps);
  }

  // Candidate refs point into the SimCase objects, so they can only be
  // taken once the vector has stopped reallocating.
  for (SimCase& c : cases) {
    c.candidates.push_back({&c.result.proposed.scheme, &c.result.proposed.eval});
    if (c.result.modular.eval.valid && c.result.modular.eval.fits)
      c.candidates.push_back({&c.result.modular.scheme, &c.result.modular.eval});
    if (c.result.single_region.eval.valid && c.result.single_region.eval.fits)
      c.candidates.push_back(
          {&c.result.single_region.scheme, &c.result.single_region.eval});
    const ConnectivityMatrix matrix(c.design);
    const auto partitions = enumerate_base_partitions(c.design, matrix);
    c.alt_evals.reserve(c.result.alternatives.size());
    for (std::size_t i = 1; i < c.result.alternatives.size(); ++i) {
      c.alt_evals.push_back(evaluate_scheme(c.design, matrix, partitions,
                                            c.result.alternatives[i].scheme,
                                            budget));
      if (!c.alt_evals.back().valid || !c.alt_evals.back().fits) {
        c.alt_evals.pop_back();
        continue;
      }
      c.candidates.push_back(
          {&c.result.alternatives[i].scheme, &c.alt_evals.back()});
    }
  }

  std::size_t total_candidates = 0;
  for (const SimCase& c : cases) total_candidates += c.candidates.size();
  std::printf("trace-driven simulator bench: %zu designs (%zu feasible, "
              "%zu candidate schemes), %llu markov steps each\n\n",
              suite.size(), cases.size(), total_candidates,
              static_cast<unsigned long long>(steps));

  // Leg 1 — the headline property as a gated ratio: over the Eulerian
  // all-pairs circuit with zero fetch setup cost, simulated total latency
  // must order every candidate pair exactly as Eq. 10 frames do (both
  // directions, ties included), and each scheme must load exactly twice its
  // Eq. 10 frame sum.
  std::uint64_t pairs_checked = 0, pairs_agreeing = 0;
  std::uint64_t frames_identities = 0, uniform_transitions = 0;
  std::uint64_t uniform_frames_loaded = 0;
  SimulationOptions uniform_options;
  uniform_options.icap.fetch_latency_ns = 0;
  auto started = std::chrono::steady_clock::now();
  for (SimCase& c : cases) {
    const std::size_t n = c.design.configurations().size();
    const TransitionTrace trace = sim::uniform_pair_trace(n);
    std::vector<SimulationResult>& results = c.uniform_results;
    results.reserve(c.candidates.size());
    for (const SchemeRef& ref : c.candidates) {
      results.push_back(sim::simulate_scheme(c.design, *ref.scheme,
                                             *ref.evaluation, trace,
                                             uniform_options));
      uniform_transitions += results.back().transitions;
      uniform_frames_loaded += results.back().frames_loaded;
      if (results.back().frames_loaded ==
          2 * ref.evaluation->total_frames)
        ++frames_identities;
    }
    for (std::size_t a = 0; a < c.candidates.size(); ++a)
      for (std::size_t b = a + 1; b < c.candidates.size(); ++b) {
        const std::uint64_t fa = c.candidates[a].evaluation->total_frames;
        const std::uint64_t fb = c.candidates[b].evaluation->total_frames;
        const std::uint64_t sa = results[a].total_latency_ns;
        const std::uint64_t sb = results[b].total_latency_ns;
        ++pairs_checked;
        if ((fa < fb) == (sa < sb) && (fa == fb) == (sa == sb))
          ++pairs_agreeing;
      }
  }
  const double uniform_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  const double agreement =
      pairs_checked == 0 ? 0.0
                         : static_cast<double>(pairs_agreeing) /
                               static_cast<double>(pairs_checked);
  std::printf("uniform all-pairs leg: %llu candidate pairs, Eq. 10 ranking "
              "agreement %.4f (floor 1.0), frame identity %llu/%zu\n",
              static_cast<unsigned long long>(pairs_checked), agreement,
              static_cast<unsigned long long>(frames_identities),
              total_candidates);
  if (agreement != 1.0 || frames_identities != total_candidates) {
    std::printf("\nFAIL: simulated ranking diverged from Eq. 10\n");
    return 1;
  }

  // Leg 2 — Markov replay throughput (no prefetch) on the proposed scheme.
  std::uint64_t markov_transitions = 0, markov_frames = 0, markov_loads = 0;
  std::uint64_t markov_latency_ns = 0;
  started = std::chrono::steady_clock::now();
  for (SimCase& c : cases) {
    const SimulationResult& r = c.markov_result =
        sim::simulate_scheme(c.design, c.result.proposed.scheme,
                             c.result.proposed.eval, c.markov);
    markov_transitions += r.transitions;
    markov_frames += r.frames_loaded;
    markov_loads += r.region_loads;
    markov_latency_ns += r.total_latency_ns;
  }
  const double markov_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  const double markov_rate =
      markov_seconds == 0.0 ? 0.0
                            : static_cast<double>(markov_transitions) /
                                  markov_seconds;
  std::printf("markov leg:            %llu transitions in %.3f s "
              "(%.2fM transitions/s), %llu frames on the critical path\n",
              static_cast<unsigned long long>(markov_transitions),
              markov_seconds, markov_rate / 1e6,
              static_cast<unsigned long long>(markov_frames));

  // Leg 3 — the same traces through the prefetching controller, predictor =
  // the generating chain (the informed upper bound the ablation bench
  // sweeps; here it pins the hit accounting counters end to end). Note the
  // two legs are not ordered in general: the memoryless replay never charges
  // for regions idle at either endpoint of a transition, while the stateful
  // controller pays real reloads when a region comes back from idle — so
  // the counters are gated by the baseline, not by an inequality.
  std::uint64_t pf_frames = 0, pf_prefetched = 0;
  std::uint64_t pf_useful = 0, pf_wasted = 0;
  started = std::chrono::steady_clock::now();
  for (SimCase& c : cases) {
    SimulationOptions pf;
    pf.prefetch = true;
    pf.predictor = &c.chain;
    const SimulationResult& r = c.prefetch_result =
        sim::simulate_scheme(c.design, c.result.proposed.scheme,
                             c.result.proposed.eval, c.markov, pf);
    pf_frames += r.frames_loaded;
    pf_prefetched += r.prefetched_frames;
    pf_useful += r.useful_prefetches;
    pf_wasted += r.wasted_prefetches;
  }
  const double prefetch_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  const double hit_rate =
      pf_useful + pf_wasted == 0
          ? 0.0
          : static_cast<double>(pf_useful) /
                static_cast<double>(pf_useful + pf_wasted);
  std::printf("prefetch leg:          %llu stall frames (memoryless replay "
              "loaded %llu), %llu prefetched, hit rate %.1f%%\n",
              static_cast<unsigned long long>(pf_frames),
              static_cast<unsigned long long>(markov_frames),
              static_cast<unsigned long long>(pf_prefetched),
              100.0 * hit_rate);

  // Leg 4 — determinism: the candidate fan-out must be byte-identical at
  // every thread count (the same discipline the CLI/server JSON encoders
  // rely on for cache hits and cross-frontend identity).
  bool identical = true;
  for (const SimCase& c : cases) {
    const TransitionTrace trace =
        sim::uniform_pair_trace(c.design.configurations().size());
    const auto reference =
        sim::simulate_schemes(c.design, c.candidates, trace, {}, 1);
    for (unsigned threads : {4u, 8u}) {
      const auto run =
          sim::simulate_schemes(c.design, c.candidates, trace, {}, threads);
      for (std::size_t i = 0; i < reference.size(); ++i)
        identical = identical && same_result(reference[i], run[i]);
    }
  }
  std::printf("thread identity:       fan-out at threads {1, 4, 8} %s\n",
              identical ? "byte-identical" : "DIVERGED");
  if (!identical) {
    std::printf("\nFAIL: simulate_schemes diverged across thread counts\n");
    return 1;
  }

  // Leg 5 — replay identity: every replay of legs 1-3 again through the
  // step-by-step reference replay in oracle/, which must return the same
  // result field for field. Untimed, so the legs above time production
  // alone.
  std::uint64_t replays_checked = 0, replays_identical = 0;
  const auto check = [&](const SimulationResult& production,
                         const SimulationResult& reference) {
    ++replays_checked;
    if (same_result(production, reference)) ++replays_identical;
  };
  for (const SimCase& c : cases) {
    const TransitionTrace trace =
        sim::uniform_pair_trace(c.design.configurations().size());
    for (std::size_t i = 0; i < c.candidates.size(); ++i)
      check(c.uniform_results[i],
            oracle::simulate_scheme_reference(
                c.design, *c.candidates[i].scheme,
                *c.candidates[i].evaluation, trace, uniform_options));
    check(c.markov_result, oracle::simulate_scheme_reference(
                               c.design, c.result.proposed.scheme,
                               c.result.proposed.eval, c.markov));
    SimulationOptions pf;
    pf.prefetch = true;
    pf.predictor = &c.chain;
    check(c.prefetch_result, oracle::simulate_scheme_reference(
                                 c.design, c.result.proposed.scheme,
                                 c.result.proposed.eval, c.markov, pf));
  }
  const double replay_identity =
      replays_checked == 0 ? 0.0
                           : static_cast<double>(replays_identical) /
                                 static_cast<double>(replays_checked);
  std::printf("replay identity:       %llu/%llu replays equal the reference "
              "replay in oracle/\n",
              static_cast<unsigned long long>(replays_identical),
              static_cast<unsigned long long>(replays_checked));
  if (replays_identical != replays_checked) {
    std::printf("\nFAIL: the replay diverged from the reference replay\n");
    return 1;
  }

  // Machine-readable summary for the CI regression gate. Wall-clock keys
  // and rates are skipped by check_bench.py; everything else is a
  // deterministic function of the fixed seeds and scale knobs.
  {
    json::Value doc = json::Value::object();
    doc.set("designs", json::Value(static_cast<std::uint64_t>(suite.size())));
    doc.set("feasible", json::Value(static_cast<std::uint64_t>(cases.size())));
    doc.set("candidates",
            json::Value(static_cast<std::uint64_t>(total_candidates)));
    json::Value uniform = json::Value::object();
    uniform.set("transitions", json::Value(uniform_transitions));
    uniform.set("frames_loaded", json::Value(uniform_frames_loaded));
    uniform.set("pairs_checked", json::Value(pairs_checked));
    uniform.set("frames_identities", json::Value(frames_identities));
    uniform.set("wall_seconds", json::Value(uniform_seconds));
    doc.set("uniform", uniform);
    // Floor-gated (== 1.0 in tools/check_bench.py): the headline property.
    doc.set("uniform_ranking_agreement", json::Value(agreement));
    json::Value markov = json::Value::object();
    markov.set("transitions", json::Value(markov_transitions));
    markov.set("frames_loaded", json::Value(markov_frames));
    markov.set("region_loads", json::Value(markov_loads));
    markov.set("total_latency_ns", json::Value(markov_latency_ns));
    markov.set("wall_seconds", json::Value(markov_seconds));
    markov.set("transitions_per_second", json::Value(markov_rate));
    doc.set("markov", markov);
    json::Value prefetch = json::Value::object();
    prefetch.set("frames_loaded", json::Value(pf_frames));
    prefetch.set("prefetched_frames", json::Value(pf_prefetched));
    prefetch.set("useful_prefetches", json::Value(pf_useful));
    prefetch.set("wasted_prefetches", json::Value(pf_wasted));
    prefetch.set("prefetch_hit_rate", json::Value(hit_rate));
    prefetch.set("wall_seconds", json::Value(prefetch_seconds));
    doc.set("prefetch", prefetch);
    doc.set("thread_identical",
            json::Value(static_cast<std::uint64_t>(identical ? 1 : 0)));
    // Floor-gated (== 1.0 in tools/check_bench.py): the replays of legs 1-3
    // equal the reference replay in oracle/.
    doc.set("replay_identity_agreement", json::Value(replay_identity));
    std::ofstream bench_json("BENCH_simulate.json");
    bench_json << doc.dump() << "\n";
    std::printf("wrote BENCH_simulate.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace prpart::bench

int main() { return prpart::bench::main_impl(); }
