// Identity of the trace replay against the reference oracle: the
// closed-loop memoryless replay counts transition pairs, the prefetching
// one walks memoised controller-state edges, and both must return exactly
// what the step-by-step reference returns, on every SimulationResult field.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/clustering.hpp"
#include "core/partitioner.hpp"
#include "core/schemes.hpp"
#include "design/builder.hpp"
#include "design/synthetic.hpp"
#include "oracle/simulator_reference.hpp"
#include "reconfig/controller.hpp"
#include "reconfig/markov.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "tests/core/example_designs.hpp"
#include "util/rng.hpp"

namespace prpart::sim {
namespace {

/// One partitioner run's fitting schemes: the proposal, the paper's
/// baselines (the single-region one reloads on every transition) and the
/// certified alternatives.
struct Schemes {
  std::vector<SchemeEvaluation> alt_evals;  ///< arena, pointers stay stable
  std::vector<SchemeRef> refs;
};

void collect(const Design& design, const PartitionerResult& result,
             const ResourceVec& budget, Schemes& out) {
  out.refs.push_back({&result.proposed.scheme, &result.proposed.eval});
  for (const SchemeSummary* baseline : {&result.modular, &result.single_region})
    if (baseline->eval.valid && baseline->eval.fits)
      out.refs.push_back({&baseline->scheme, &baseline->eval});
  const ConnectivityMatrix matrix(design);
  const auto partitions = enumerate_base_partitions(design, matrix);
  out.alt_evals.reserve(result.alternatives.size());
  for (std::size_t i = 1; i < result.alternatives.size(); ++i) {
    out.alt_evals.push_back(evaluate_scheme(design, matrix, partitions,
                                            result.alternatives[i].scheme,
                                            budget));
    if (!out.alt_evals.back().valid || !out.alt_evals.back().fits) {
      out.alt_evals.pop_back();
      continue;
    }
    out.refs.push_back({&result.alternatives[i].scheme,
                        &out.alt_evals.back()});
  }
}

/// Markov, uniform all-pairs and hand-made traces over n configurations.
/// The hand-made ones: a trace that never leaves its boot configuration
/// (every transition loads zero frames), a ping-pong between two
/// configurations, and a sweep with self-loops in between.
std::vector<std::pair<std::string, TransitionTrace>> traces_for(
    const MarkovChain& chain, std::uint64_t seed) {
  const std::size_t n = chain.states();
  std::vector<std::pair<std::string, TransitionTrace>> out;
  out.reserve(5);
  Rng rng(seed);
  out.emplace_back("markov", markov_trace(chain, rng, 2000));
  out.emplace_back("uniform", uniform_pair_trace(n));
  TransitionTrace still;
  still.configs.assign(50, static_cast<std::uint32_t>(n - 1));
  out.emplace_back("all-zero-frame", still);
  TransitionTrace ping;
  for (int k = 0; k < 41; ++k) ping.configs.push_back(k % 2 == 0 ? 0 : 1);
  out.emplace_back("ping-pong", ping);
  TransitionTrace sweep;
  for (std::uint32_t c = 0; c < n; ++c)
    sweep.configs.insert(sweep.configs.end(), {c, c, c});
  out.emplace_back("sweep", sweep);
  return out;
}

/// Every scheme of `schemes` against every trace, closed loop and three
/// arrival periods (back-to-back queueing, some, none), prefetch off and
/// on. Returns the number of replays compared.
std::size_t check_grid(const Design& design, const Schemes& schemes,
                       const MarkovChain& chain, std::uint64_t seed,
                       const std::string& context) {
  std::size_t compared = 0;
  for (const auto& [trace_name, trace] : traces_for(chain, seed))
    for (const std::uint64_t period : {0ull, 1ull, 40'000ull, 50'000'000ull})
      for (const bool prefetch : {false, true}) {
        SimulationOptions options;
        options.inter_arrival_ns = period;
        options.prefetch = prefetch;
        options.predictor = &chain;
        for (std::size_t s = 0; s < schemes.refs.size(); ++s) {
          const SchemeRef& ref = schemes.refs[s];
          EXPECT_EQ(oracle::describe(simulate_scheme(
                        design, *ref.scheme, *ref.evaluation, trace, options)),
                    oracle::describe(oracle::simulate_scheme_reference(
                        design, *ref.scheme, *ref.evaluation, trace, options)))
              << context << " scheme " << s << " trace " << trace_name
              << " period " << period << " prefetch " << prefetch;
          ++compared;
        }
      }
  return compared;
}

TEST(ReplayIdentity, SyntheticDesignsAndTheirAlternatives) {
  PartitionerOptions options;
  options.search.max_move_evaluations = 40'000;
  options.search.keep_alternatives = 4;
  options.search.threads = 1;
  const ResourceVec budget{20000, 300, 250};
  Rng chain_rng(2718);
  std::size_t designs = 0, compared = 0;
  for (const SyntheticDesign& sd : generate_synthetic_suite(20261017, 6)) {
    const std::size_t n = sd.design.configurations().size();
    if (n < 2) continue;
    const PartitionerResult result =
        partition_design(sd.design, budget, options);
    if (!result.feasible) continue;
    Schemes schemes;
    collect(sd.design, result, budget, schemes);
    const MarkovChain chain = MarkovChain::random(chain_rng, n);
    compared += check_grid(sd.design, schemes, chain, sd.seed,
                           "design seed " + std::to_string(sd.seed));
    ++designs;
  }
  EXPECT_GE(designs, 4u);
  EXPECT_GT(compared, 4u * 5 * 4 * 2);
}

TEST(ReplayIdentity, PaperExamplesAndTheSingleRegionScheme) {
  for (const Design& design :
       {testing::paper_example(), testing::fig3_example(),
        testing::one_off_modules()}) {
    const ResourceVec budget{2000, 30, 40};
    const PartitionerResult result = partition_design(design, budget);
    ASSERT_TRUE(result.feasible) << design.name();
    Schemes schemes;
    collect(design, result, budget, schemes);
    // The single-region arrangement, fitting or not, is the one-region
    // case: every transition between distinct configurations reloads it.
    schemes.refs.push_back(
        {&result.single_region.scheme, &result.single_region.eval});
    check_grid(design, schemes,
               MarkovChain::uniform(design.configurations().size()), 5,
               design.name());
  }
}

/// One prefetching replay against the step-by-step reference.
void expect_prefetch_identity(const Design& design, const SchemeRef& ref,
                              const TransitionTrace& trace,
                              const MarkovChain& chain,
                              std::uint64_t idle_frames_budget,
                              std::uint64_t period,
                              const std::string& context) {
  SimulationOptions options;
  options.prefetch = true;
  options.predictor = &chain;
  options.idle_frames_budget = idle_frames_budget;
  options.inter_arrival_ns = period;
  EXPECT_EQ(oracle::describe(simulate_scheme(design, *ref.scheme,
                                             *ref.evaluation, trace, options)),
            oracle::describe(oracle::simulate_scheme_reference(
                design, *ref.scheme, *ref.evaluation, trace, options)))
      << context << " budget " << idle_frames_budget << " period " << period;
}

TEST(ReplayIdentity, FiniteIdleFramesBudgets) {
  // No prefetch at all (budget 0), one just under the largest region (that
  // region is never prefetched, smaller ones are), and one that fits only
  // the smallest region per idle period: each changes which states the
  // walk reaches, closed and open loop.
  PartitionerOptions options;
  options.search.max_move_evaluations = 40'000;
  options.search.keep_alternatives = 4;
  options.search.threads = 1;
  const ResourceVec budget{20000, 300, 250};
  Rng chain_rng(1618);
  std::size_t compared = 0;
  for (const SyntheticDesign& sd : generate_synthetic_suite(20261020, 6)) {
    const std::size_t n = sd.design.configurations().size();
    if (n < 2) continue;
    const PartitionerResult result =
        partition_design(sd.design, budget, options);
    if (!result.feasible) continue;
    Schemes schemes;
    collect(sd.design, result, budget, schemes);
    const MarkovChain chain = MarkovChain::random(chain_rng, n);
    Rng trace_rng(sd.seed);
    const TransitionTrace trace = markov_trace(chain, trace_rng, 3000);
    for (const SchemeRef& ref : schemes.refs) {
      std::uint64_t largest = 0, smallest = ~std::uint64_t{0};
      for (const RegionReport& region : ref.evaluation->regions) {
        largest = std::max(largest, region.frames);
        smallest = std::min(smallest, region.frames);
      }
      for (const std::uint64_t idle : {std::uint64_t{0}, largest - 1, smallest})
        for (const std::uint64_t period : {0ull, 40'000ull}) {
          expect_prefetch_identity(sd.design, ref, trace, chain, idle, period,
                                   "design seed " + std::to_string(sd.seed));
          ++compared;
        }
    }
  }
  EXPECT_GE(compared, 4u * 3 * 2);
}

TEST(ReplayIdentity, OpenLoopPrefetchQueuesBehindTheMemoisedSteps) {
  // Open loop serves each memoised step through the ICAP queue in trace
  // order; periods from back-to-back (everything queues) to idle.
  const Design design = testing::paper_example();
  const ResourceVec budget{2000, 30, 40};
  const PartitionerResult result = partition_design(design, budget);
  ASSERT_TRUE(result.feasible);
  Schemes schemes;
  collect(design, result, budget, schemes);
  const MarkovChain chain =
      MarkovChain::uniform(design.configurations().size());
  Rng rng(404);
  const TransitionTrace trace = markov_trace(chain, rng, 5000);
  for (const SchemeRef& ref : schemes.refs)
    for (const std::uint64_t period :
         {1ull, 10'000ull, 100'000ull, 1'000'000ull, 50'000'000ull})
      expect_prefetch_identity(design, ref, trace, chain, ~std::uint64_t{0},
                               period, "paper example");
}

/// `modules` modules of 4 modes each, one region per module (the modular
/// baseline), and `configs` configurations that use 2 modules apiece: the
/// other regions keep whatever earlier steps left, so the controller's
/// state carries a long history.
Design many_region_design(std::size_t modules, std::size_t configs) {
  DesignBuilder builder("many-regions");
  const std::size_t modes = 4;
  for (std::size_t m = 0; m < modules; ++m) {
    std::vector<Mode> list;
    for (std::size_t k = 0; k < modes; ++k)
      list.push_back(Mode{"M" + std::to_string(m) + "_" + std::to_string(k),
                          {static_cast<std::uint32_t>(40 + 17 * k + 5 * m), 0,
                           0}});
    builder.module("M" + std::to_string(m), std::move(list));
  }
  Rng rng(12);
  for (std::size_t c = 0; c < configs; ++c) {
    // (a, a's mode) differs for every c < modules * modes.
    const std::size_t a = c % modules;
    const std::size_t b = (a + 1 + rng.below(modules - 1)) % modules;
    builder.configuration(
        {{"M" + std::to_string(a),
          "M" + std::to_string(a) + "_" + std::to_string(c / modules)},
         {"M" + std::to_string(b),
          "M" + std::to_string(b) + "_" + std::to_string(rng.below(modes))}});
  }
  return builder.build();
}

/// Replays a Markov trace of `steps` steps over many_region_design with
/// prefetching, closed and open loop, unlimited and finite idle budgets,
/// against the reference; returns how many distinct (controller state,
/// configuration) edges the trace takes.
std::size_t expect_many_region_identity(std::size_t modules,
                                        std::size_t configs,
                                        std::size_t steps) {
  const Design design = many_region_design(modules, configs);
  const std::size_t n = design.configurations().size();
  const ConnectivityMatrix matrix(design);
  const auto partitions = enumerate_base_partitions(design, matrix);
  const PartitionScheme scheme =
      make_modular_scheme(design, matrix, partitions);
  const SchemeEvaluation eval = evaluate_scheme(
      design, matrix, partitions, scheme, ResourceVec{100000, 100, 100});
  EXPECT_TRUE(eval.valid && eval.fits);
  EXPECT_EQ(eval.regions.size(), modules);
  const SchemeRef ref{&scheme, &eval};
  Rng chain_rng(31);
  const MarkovChain chain = MarkovChain::random(chain_rng, n);
  Rng trace_rng(32);
  const TransitionTrace trace = markov_trace(chain, trace_rng, steps);

  // Count the distinct edges with the controller's own snapshots.
  ReconfigurationController controller(design, eval, {},
                                       PrefetchPolicy{chain});
  controller.boot(trace.configs.front());
  std::set<std::pair<std::size_t, std::vector<int>>> edges;
  for (std::size_t k = 1; k < trace.configs.size(); ++k) {
    const ControllerState s = controller.snapshot();
    std::vector<int> key = s.loaded;
    key.insert(key.end(), s.speculative.begin(), s.speculative.end());
    key.push_back(static_cast<int>(trace.configs[k]));
    edges.emplace(s.current, std::move(key));
    controller.transition(trace.configs[k]);
  }

  const std::string context = std::to_string(modules) + " regions";
  for (const std::uint64_t period : {0ull, 40'000ull})
    for (const std::uint64_t idle : {~std::uint64_t{0}, std::uint64_t{150}})
      expect_prefetch_identity(design, ref, trace, chain, idle, period,
                               context);
  return edges.size();
}

TEST(ReplayIdentity, NearlyEveryStepANewControllerState) {
  // The memo's worst case: almost every step takes an edge never seen
  // before, and the memo fills and starts afresh twice over the trace.
  const std::size_t steps = 3 * kPrefetchMemoEdges;
  EXPECT_GE(expect_many_region_identity(12, 40, steps), steps * 9 / 10);
}

TEST(ReplayIdentity, MemoFillsWhileStepsStillRepeatEdges) {
  // About four steps in ten repeat an edge: the memo fills and starts
  // afresh twice while the walk still reads memoised edges between the
  // new ones.
  const std::size_t steps = 20'000;
  const std::size_t edges = expect_many_region_identity(6, 20, steps);
  EXPECT_GT(edges, 2 * kPrefetchMemoEdges);
  EXPECT_LE(edges, steps * 7 / 10);
}

TEST(ReplayIdentity, ZeroFrameTraceReportsAnEmptyPort) {
  // A trace that never changes configuration loads nothing: every latency
  // is 0, the makespan is 0 and the rate stays 0, in both replays.
  const Design design = testing::paper_example();
  const PartitionerResult result = partition_design(design, {900, 8, 16});
  TransitionTrace still;
  still.configs.assign(10, 2);
  const SimulationResult r = simulate_scheme(
      design, result.proposed.scheme, result.proposed.eval, still);
  EXPECT_EQ(r.transitions, 9u);
  EXPECT_EQ(r.frames_loaded, 0u);
  EXPECT_EQ(r.makespan_ns, 0u);
  EXPECT_EQ(r.transitions_per_second, 0.0);
  ASSERT_EQ(r.latency_counts.size(), 1u);
  EXPECT_EQ(r.latency_counts.front(), std::make_pair(std::uint64_t{0},
                                                     std::uint64_t{9}));
  EXPECT_EQ(oracle::describe(r),
            oracle::describe(oracle::simulate_scheme_reference(
                design, result.proposed.scheme, result.proposed.eval,
                still)));
}

}  // namespace
}  // namespace prpart::sim
