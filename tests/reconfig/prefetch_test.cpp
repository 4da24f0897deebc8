#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "design/synthetic.hpp"
#include "reconfig/controller.hpp"
#include "tests/core/example_designs.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

using testing::one_off_modules;
using testing::paper_example;

struct Fixture {
  Design design;
  PartitionerResult result;

  explicit Fixture(Design d, ResourceVec budget)
      : design(std::move(d)), result(partition_design(design, budget)) {
    if (!result.feasible) throw std::runtime_error("fixture infeasible");
  }
};

/// Critical-path frames of one transition.
std::uint64_t frames_of(const std::vector<ReconfigEvent>& events) {
  std::uint64_t frames = 0;
  for (const ReconfigEvent& ev : events) frames += ev.frames;
  return frames;
}

/// Deterministic cycle chain c0 -> c2 -> c1 -> c0 over three configs.
MarkovChain cycle021() {
  std::vector<std::vector<double>> p(3, std::vector<double>(3, 0.0));
  p[0][2] = 1.0;
  p[2][1] = 1.0;
  p[1][0] = 1.0;
  return MarkovChain(std::move(p));
}

/// Module A (two modes) shares one region under a 450-CLB budget; module B
/// is always on. Configuration c2 uses only B, leaving the A region idle —
/// the prefetch window the cycle exploits.
Design idle_window_design() {
  return DesignBuilder("idle-window")
      .module("A", {{"A1", {200, 0, 0}}, {"A2", {300, 0, 0}}})
      .module("B", {{"B1", {100, 0, 0}}})
      .configuration({{"A", "A1"}, {"B", "B1"}})  // c0
      .configuration({{"A", "A2"}, {"B", "B1"}})  // c1
      .configuration({{"B", "B1"}})               // c2
      .build();
}

TEST(Prefetch, PerfectPredictionHidesIdleRegionLoads) {
  // On the cycle c0 -> c2 -> c1 -> c0, the A region ({A1},{A2} merged) is
  // idle at c2; a perfect predictor preloads A2 there, so the c2 -> c1 hop
  // stalls zero frames while the plain controller pays the region's 540
  // frames. The c1 -> c0 hop cannot be hidden (the region is busy in c1).
  Fixture f(idle_window_design(), {450, 4, 4});
  ASSERT_TRUE(f.result.proposed_from_search);
  ReconfigurationController pre(f.design, f.result.proposed.eval, {},
                                PrefetchPolicy{cycle021()});
  ReconfigurationController plain(f.design, f.result.proposed.eval);
  pre.boot(0);
  plain.boot(0);
  const std::size_t walk[] = {2, 1, 0, 2, 1, 0, 2, 1, 0};
  for (std::size_t next : walk) {
    pre.transition(next);
    plain.transition(next);
  }
  // Three full cycles: plain pays 2 region loads per cycle, prefetch pays 1.
  EXPECT_GT(plain.stats().total_frames, 0u);
  EXPECT_EQ(2 * pre.stats().total_frames, plain.stats().total_frames);
  EXPECT_GE(pre.stats().useful_prefetches, 3u);
}

TEST(Prefetch, HitAccountingGoldenOnTheCycle) {
  // Hand-walked golden for the full accounting. On c0 -> c2 -> c1 -> c0:
  //   c0 -> c2: A idle at c2, nothing to load; the predictor (cycle) says c1
  //             is next, so A2 is prefetched into the idle A region.
  //   c2 -> c1: A2 already loaded -- a useful prefetch, zero stall.
  //   c1 -> c0: A busy at c1, no window; reload A1 on the critical path.
  // Per cycle: 1 stall load, 1 prefetch, 1 useful hit, 0 wasted.
  Fixture f(idle_window_design(), {450, 4, 4});
  const SchemeEvaluation& eval = f.result.proposed.eval;
  std::uint64_t frames_a = 0;  // the merged {A1},{A2} region
  for (const RegionReport& r : eval.regions)
    if (r.reconfig_pairs > 0) frames_a = r.frames;
  ASSERT_GT(frames_a, 0u);

  ReconfigurationController pre(f.design, eval, {}, PrefetchPolicy{cycle021()});
  pre.boot(0);
  std::vector<std::uint64_t> stalls;
  const std::size_t walk[] = {2, 1, 0, 2, 1, 0, 2, 1, 0};
  for (const std::size_t next : walk)
    stalls.push_back(frames_of(pre.transition(next)));
  EXPECT_EQ(stalls, (std::vector<std::uint64_t>{0, 0, frames_a, 0, 0,
                                                frames_a, 0, 0, frames_a}));
  const RuntimeStats& s = pre.stats();
  EXPECT_EQ(s.transitions, 9u);
  EXPECT_EQ(s.region_loads, 3u);
  EXPECT_EQ(s.total_frames, 3 * frames_a);
  EXPECT_EQ(s.worst_transition_frames, frames_a);
  EXPECT_EQ(s.prefetched_frames, 3 * frames_a);
  EXPECT_EQ(s.useful_prefetches, 3u);
  EXPECT_EQ(s.wasted_prefetches, 0u);
  // One region load per stalling transition, so per-region and
  // per-transition ICAP sums agree.
  EXPECT_EQ(s.total_ns, 3 * IcapModel{}.reconfiguration_ns(frames_a));
}

TEST(Prefetch, MispredictionIsCountedAsWasted) {
  // Same design, but the walk defies the cycle predictor: after c0 -> c2
  // the controller has speculatively loaded A2 for the predicted c1; going
  // back to c0 instead overwrites it, which must count as wasted, stall the
  // full region and never as a hit.
  Fixture f(idle_window_design(), {450, 4, 4});
  const SchemeEvaluation& eval = f.result.proposed.eval;
  std::uint64_t frames_a = 0;
  for (const RegionReport& r : eval.regions)
    if (r.reconfig_pairs > 0) frames_a = r.frames;

  ReconfigurationController pre(f.design, eval, {}, PrefetchPolicy{cycle021()});
  pre.boot(0);
  EXPECT_EQ(frames_of(pre.transition(2)), 0u);
  EXPECT_EQ(frames_of(pre.transition(0)), frames_a);
  const RuntimeStats& s = pre.stats();
  EXPECT_EQ(s.useful_prefetches, 0u);
  EXPECT_EQ(s.wasted_prefetches, 1u);
  EXPECT_EQ(s.prefetched_frames, frames_a);
  EXPECT_EQ(s.region_loads, 1u);
  EXPECT_EQ(s.total_frames, frames_a);
}

TEST(Prefetch, NeverWorseThanNoPrefetchOnActiveRegions) {
  // Prefetching only touches idle regions, so the stall of any transition
  // is at most the plain controller's cost for the same step sequence.
  Fixture f(paper_example(), {900, 8, 16});
  const std::size_t n = f.design.configurations().size();
  const MarkovChain uniform = MarkovChain::uniform(n);

  ReconfigurationController pre(f.design, f.result.proposed.eval, {},
                                PrefetchPolicy{uniform});
  ReconfigurationController plain(f.design, f.result.proposed.eval);
  Rng rng(7);
  pre.boot(0);
  plain.boot(0);
  std::size_t state = 0;
  for (int i = 0; i < 300; ++i) {
    state = uniform.sample_next(rng, state);
    pre.transition(state);
    plain.transition(state);
  }
  EXPECT_LE(pre.stats().total_frames, plain.stats().total_frames);
  EXPECT_EQ(pre.stats().transitions, plain.stats().transitions);
}

TEST(Prefetch, ZeroBudgetDisablesPrefetching) {
  Fixture f(paper_example(), {900, 8, 16});
  const std::size_t n = f.design.configurations().size();
  const MarkovChain uniform = MarkovChain::uniform(n);
  ReconfigurationController pre(f.design, f.result.proposed.eval, {},
                                PrefetchPolicy{uniform, 0});
  ReconfigurationController plain(f.design, f.result.proposed.eval);
  Rng rng(9);
  pre.boot(0);
  plain.boot(0);
  std::size_t state = 0;
  for (int i = 0; i < 200; ++i) {
    state = uniform.sample_next(rng, state);
    pre.transition(state);
    plain.transition(state);
  }
  EXPECT_EQ(pre.stats().prefetched_frames, 0u);
  EXPECT_EQ(pre.stats().total_frames, plain.stats().total_frames);
}

/// The paper example plus a few small synthetic designs, each with its
/// proposed evaluation: the shapes the step-by-step properties below run on.
std::vector<std::pair<Design, SchemeEvaluation>> property_designs() {
  std::vector<std::pair<Design, SchemeEvaluation>> out;
  const Fixture paper(paper_example(), {900, 8, 16});
  out.emplace_back(paper.design, paper.result.proposed.eval);
  PartitionerOptions options;
  options.search.max_move_evaluations = 40'000;
  options.search.threads = 1;
  for (const SyntheticDesign& sd : generate_synthetic_suite(1717, 8)) {
    if (sd.design.configurations().size() < 3) continue;
    const PartitionerResult r =
        partition_design(sd.design, {20000, 300, 250}, options);
    if (r.feasible) out.emplace_back(sd.design, r.proposed.eval);
  }
  return out;
}

TEST(Prefetch, ZeroBudgetMatchesThePlainControllerAtEveryStep) {
  // With no idle bandwidth the policy never loads anything, so whatever the
  // predictor says, the controller must account exactly like the
  // policy-free one after every single step.
  const auto designs = property_designs();
  ASSERT_GE(designs.size(), 4u);
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const auto& [design, eval] = designs[d];
    const std::size_t n = design.configurations().size();
    Rng chain_rng(100 + d);
    const MarkovChain env = MarkovChain::random(chain_rng, n);
    ReconfigurationController pre(design, eval, {}, PrefetchPolicy{env, 0});
    ReconfigurationController plain(design, eval);
    Rng walk_rng(200 + d);
    pre.boot(0);
    plain.boot(0);
    std::size_t state = 0;
    for (int i = 0; i < 300; ++i) {
      state = env.sample_next(walk_rng, state);
      pre.transition(state);
      plain.transition(state);
      ASSERT_EQ(pre.stats().total_frames, plain.stats().total_frames)
          << design.name() << " step " << i;
      ASSERT_EQ(pre.stats().region_loads, plain.stats().region_loads)
          << design.name() << " step " << i;
    }
    EXPECT_EQ(pre.stats().prefetched_frames, 0u) << design.name();
  }
}

TEST(Prefetch, NeverLoadsFewerFramesThanTheMemorylessRule) {
  // The memoryless pair rule (Eq. 8) charges i -> j only for regions both
  // configurations use; the controller keeps those regions loaded with i's
  // members, so it pays the same for them, and prefetching only touches
  // regions i leaves idle. Every step therefore costs at least the rule's
  // frames: the stateful and memoryless replays are different cost models.
  for (const auto& [design, eval] : property_designs()) {
    const std::size_t n = design.configurations().size();
    const auto frames = transition_frame_matrix(eval, n);
    const MarkovChain env = MarkovChain::uniform(n);
    ReconfigurationController pre(design, eval, {}, PrefetchPolicy{env});
    Rng rng(23);
    pre.boot(0);
    std::size_t state = 0;
    for (int i = 0; i < 300; ++i) {
      const std::size_t next = env.sample_next(rng, state);
      ASSERT_GE(frames_of(pre.transition(next)), frames[state][next])
          << design.name() << " step " << i;
      state = next;
    }
  }
}

TEST(Prefetch, StatsTrackUsefulAndWasted) {
  Fixture f(paper_example(), {900, 8, 16});
  const std::size_t n = f.design.configurations().size();
  const MarkovChain uniform = MarkovChain::uniform(n);
  ReconfigurationController pre(f.design, f.result.proposed.eval, {},
                                PrefetchPolicy{uniform});
  Rng rng(11);
  pre.boot(0);
  std::size_t state = 0;
  for (int i = 0; i < 400; ++i) {
    state = uniform.sample_next(rng, state);
    pre.transition(state);
  }
  const RuntimeStats& s = pre.stats();
  EXPECT_EQ(s.transitions, 400u);
  EXPECT_LE(s.worst_transition_frames, s.total_frames);
  // Bookkeeping sanity: prefetches either became useful or were wasted (or
  // are still pending); none can be both.
  EXPECT_GE(s.prefetched_frames, 0u);
}

TEST(Prefetch, RejectsMismatchedPredictor) {
  Fixture f(paper_example(), {900, 8, 16});
  EXPECT_THROW(
      ReconfigurationController(f.design, f.result.proposed.eval, {},
                                PrefetchPolicy{MarkovChain::uniform(3)}),
      InternalError);
}

TEST(Prefetch, RequiresBoot) {
  Fixture f(paper_example(), {900, 8, 16});
  ReconfigurationController pre(
      f.design, f.result.proposed.eval, {},
      PrefetchPolicy{MarkovChain::uniform(f.design.configurations().size())});
  EXPECT_THROW(pre.transition(0), InternalError);
}

}  // namespace
}  // namespace prpart
