#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/partitioner.hpp"
#include "reconfig/markov.hpp"
#include "reconfig/controller.hpp"
#include "tests/core/example_designs.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace prpart::sim {
namespace {

/// Paper running example partitioned on the budget the §IV walkthrough uses.
struct SimFixture : ::testing::Test {
  SimFixture()
      : design(testing::paper_example()),
        result(partition_design(design, {900, 8, 16})) {}

  const PartitionScheme& scheme() const { return result.proposed.scheme; }
  const SchemeEvaluation& eval() const { return result.proposed.eval; }

  Design design;
  PartitionerResult result;
};

bool same_result(const SimulationResult& a, const SimulationResult& b) {
  return a.transitions == b.transitions && a.frames_loaded == b.frames_loaded &&
         a.region_loads == b.region_loads &&
         a.prefetched_frames == b.prefetched_frames &&
         a.useful_prefetches == b.useful_prefetches &&
         a.wasted_prefetches == b.wasted_prefetches &&
         a.total_latency_ns == b.total_latency_ns &&
         a.p50_latency_ns == b.p50_latency_ns &&
         a.p95_latency_ns == b.p95_latency_ns &&
         a.p99_latency_ns == b.p99_latency_ns &&
         a.max_latency_ns == b.max_latency_ns &&
         a.makespan_ns == b.makespan_ns &&
         a.transitions_per_second == b.transitions_per_second &&
         a.latency_counts == b.latency_counts;
}

TEST_F(SimFixture, ClosedLoopLatencyIsTheClosedFormIcapCost) {
  // Without prefetch and with closed-loop arrivals the port never queues, so
  // every served latency must be exactly reconfiguration_ns(frames(i, j)) —
  // the headline property of ISSUE satellites (the kernel's frame counts fed
  // through the ICAP model, nothing else).
  const std::size_t n = design.configurations().size();
  const TransitionTrace trace = uniform_pair_trace(n);
  const SimulationOptions options;
  const SimulationResult r = simulate_scheme(design, scheme(), eval(), trace, options);

  const auto frames = transition_frame_matrix(eval(), n);
  std::set<std::uint64_t> closed_form;
  std::uint64_t expected_total = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) {
        closed_form.insert(options.icap.reconfiguration_ns(frames[i][j]));
        expected_total += options.icap.reconfiguration_ns(frames[i][j]);
      }
  ASSERT_EQ(r.transitions, trace.transitions());
  EXPECT_EQ(r.total_latency_ns, expected_total);
  std::uint64_t counted = 0;
  for (const auto& [latency, count] : r.latency_counts) {
    EXPECT_TRUE(closed_form.count(latency))
        << latency << " ns is not a closed-form ICAP cost";
    counted += count;
  }
  EXPECT_EQ(counted, r.transitions);
}

TEST_F(SimFixture, PercentilesAreNearestRankReadsOfTheDistribution) {
  const TransitionTrace trace = uniform_pair_trace(design.configurations().size());
  const SimulationResult r = simulate_scheme(design, scheme(), eval(), trace);
  EXPECT_LE(r.p50_latency_ns, r.p95_latency_ns);
  EXPECT_LE(r.p95_latency_ns, r.p99_latency_ns);
  EXPECT_LE(r.p99_latency_ns, r.max_latency_ns);
  ASSERT_FALSE(r.latency_counts.empty());
  EXPECT_EQ(r.max_latency_ns, r.latency_counts.back().first);
}

TEST_F(SimFixture, OpenLoopArrivalsAddQueueingDelay) {
  const TransitionTrace trace = uniform_pair_trace(design.configurations().size());
  SimulationOptions closed;
  const SimulationResult base = simulate_scheme(design, scheme(), eval(), trace, closed);

  // A 1 ns arrival period floods the port: every request after the first
  // queues behind its predecessors, so latencies can only grow.
  SimulationOptions flooded;
  flooded.inter_arrival_ns = 1;
  const SimulationResult q = simulate_scheme(design, scheme(), eval(), trace, flooded);
  EXPECT_EQ(q.transitions, base.transitions);
  EXPECT_EQ(q.frames_loaded, base.frames_loaded);  // same work...
  EXPECT_GT(q.total_latency_ns, base.total_latency_ns);  // ...more waiting
  EXPECT_GE(q.max_latency_ns, base.max_latency_ns);
}

TEST_F(SimFixture, PrefetchRunMatchesTheControllerItWraps) {
  const std::size_t n = design.configurations().size();
  const MarkovChain chain = MarkovChain::uniform(n);
  Rng rng(11);
  const TransitionTrace trace = markov_trace(chain, rng, 400);

  SimulationOptions options;
  options.prefetch = true;
  options.predictor = &chain;
  const SimulationResult r = simulate_scheme(design, scheme(), eval(), trace, options);

  // Replay the same trace through the controller directly: the simulator
  // must report exactly its accounting (reconfig-seam coverage).
  ReconfigurationController controller(
      design, eval(), options.icap,
      PrefetchPolicy{chain, options.idle_frames_budget});
  controller.boot(trace.configs.front());
  std::uint64_t stall_frames = 0;
  for (std::size_t k = 1; k < trace.configs.size(); ++k)
    for (const ReconfigEvent& ev : controller.transition(trace.configs[k]))
      stall_frames += ev.frames;
  const RuntimeStats& ps = controller.stats();

  EXPECT_EQ(r.transitions, ps.transitions);
  EXPECT_EQ(r.frames_loaded, stall_frames);
  EXPECT_EQ(r.frames_loaded, ps.total_frames);
  EXPECT_EQ(r.region_loads, ps.region_loads);
  EXPECT_EQ(r.prefetched_frames, ps.prefetched_frames);
  EXPECT_EQ(r.useful_prefetches, ps.useful_prefetches);
  EXPECT_EQ(r.wasted_prefetches, ps.wasted_prefetches);
  EXPECT_EQ(r.max_latency_ns,
            options.icap.reconfiguration_ns(ps.worst_transition_frames));
}

TEST_F(SimFixture, PrefetchLoadsNoMoreThanMemorylessOnThePaperExample) {
  // Not a general property: prefetch switches the replay to the stateful
  // controller, which never loads fewer frames than the memoryless rule
  // (Prefetch.NeverLoadsFewerFramesThanTheMemorylessRule) and loads more on
  // designs whose configurations leave regions stale. On this scheme the
  // prefetcher hides every such reload, so the two replays meet.
  const std::size_t n = design.configurations().size();
  const MarkovChain chain = MarkovChain::uniform(n);
  Rng rng(3);
  const TransitionTrace trace = markov_trace(chain, rng, 1000);

  const SimulationResult plain = simulate_scheme(design, scheme(), eval(), trace);
  SimulationOptions options;
  options.prefetch = true;
  options.predictor = &chain;
  const SimulationResult pf = simulate_scheme(design, scheme(), eval(), trace, options);
  EXPECT_LE(pf.frames_loaded, plain.frames_loaded);
  EXPECT_LE(pf.total_latency_ns, plain.total_latency_ns);
}

TEST_F(SimFixture, ResultsAreByteIdenticalAcrossThreadCounts) {
  const std::size_t n = design.configurations().size();
  const MarkovChain chain = MarkovChain::uniform(n);
  Rng rng(5);
  const TransitionTrace trace = markov_trace(chain, rng, 2000);

  // Fan several schemes out: the proposal plus the paper's baselines.
  std::vector<SchemeRef> refs = {
      {&result.proposed.scheme, &result.proposed.eval},
      {&result.modular.scheme, &result.modular.eval},
      {&result.single_region.scheme, &result.single_region.eval}};

  const auto one = simulate_schemes(design, refs, trace, {}, 1);
  const auto four = simulate_schemes(design, refs, trace, {}, 4);
  const auto sixteen = simulate_schemes(design, refs, trace, {}, 16);
  const auto rerun = simulate_schemes(design, refs, trace, {}, 1);
  ASSERT_EQ(one.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_TRUE(same_result(one[i], four[i])) << "scheme " << i;
    EXPECT_TRUE(same_result(one[i], sixteen[i])) << "scheme " << i;
    EXPECT_TRUE(same_result(one[i], rerun[i])) << "scheme " << i;
  }
}

TEST_F(SimFixture, SingleRegionReloadsEveryTransition) {
  // One region holding everything: every transition reloads it, so
  // region_loads == transitions and frames are transitions * region frames.
  const SchemeEvaluation& sr = result.single_region.eval;
  ASSERT_TRUE(sr.valid);
  const std::size_t n = design.configurations().size();
  const TransitionTrace trace = uniform_pair_trace(n);
  const SimulationResult r = simulate_scheme(
      design, result.single_region.scheme, sr, trace);
  EXPECT_EQ(r.region_loads, r.transitions);
  EXPECT_EQ(r.frames_loaded, r.transitions * sr.regions.at(0).frames);
}

TEST_F(SimFixture, RejectsMalformedInputs) {
  const TransitionTrace good = uniform_pair_trace(design.configurations().size());

  SchemeEvaluation invalid = eval();
  invalid.valid = false;
  EXPECT_THROW(simulate_scheme(design, scheme(), invalid, good), Error);

  TransitionTrace tiny;
  tiny.configs = {0};
  EXPECT_THROW(simulate_scheme(design, scheme(), eval(), tiny), Error);

  TransitionTrace out_of_range;
  out_of_range.configs = {0, 99};
  EXPECT_THROW(simulate_scheme(design, scheme(), eval(), out_of_range), Error);

  SimulationOptions prefetch_without_predictor;
  prefetch_without_predictor.prefetch = true;
  EXPECT_THROW(
      simulate_scheme(design, scheme(), eval(), good, prefetch_without_predictor),
      Error);
}

}  // namespace
}  // namespace prpart::sim
