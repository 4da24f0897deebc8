#include "reconfig/controller.hpp"

#include <gtest/gtest.h>

#include "core/clustering.hpp"
#include "core/partitioner.hpp"
#include "reconfig/markov.hpp"
#include "tests/core/example_designs.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

using testing::paper_example;

struct Fixture {
  Design design = paper_example();
  PartitionerResult result =
      partition_design(design, ResourceVec{900, 8, 16});

  Fixture() {
    if (!result.feasible) throw std::runtime_error("fixture infeasible");
  }

  ReconfigurationController controller() const {
    return ReconfigurationController(design, result.proposed.eval);
  }
};

TEST(Controller, BootThenNoopTransitionIsFree) {
  Fixture f;
  auto c = f.controller();
  c.boot(0);
  // Transition to the same mode assignment of every region: re-entering the
  // current configuration costs nothing.
  const auto events = c.transition(0);
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(c.stats().total_frames, 0u);
  EXPECT_EQ(c.stats().transitions, 1u);
}

TEST(Controller, WarmPairwiseTransitionsMatchCostModel) {
  // The simulator is the ground truth for Eq. 10: once both configurations
  // have been visited (all involved regions loaded), an i -> j transition
  // writes exactly the frames the transition matrix predicts, in both
  // directions.
  Fixture f;
  const std::size_t n = f.design.configurations().size();
  const auto frames = transition_frame_matrix(f.result.proposed.eval, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      auto c = f.controller();
      c.boot(i);
      c.transition(j);  // may include cold loads of regions blank after boot
      c.transition(i);  // now both configurations' regions are warm
      EXPECT_EQ(c.peek_frames(j), frames[i][j]) << i << "->" << j;
      c.reset_stats();
      c.transition(j);
      EXPECT_EQ(c.stats().total_frames, frames[i][j]) << i << "->" << j;
      EXPECT_EQ(c.current_config(), j);
    }
  }
}

TEST(Controller, ColdTransitionsPayAtLeastTheModel) {
  // Straight after boot, unused regions are blank, so the first transition
  // can only cost more than the warm model, never less.
  Fixture f;
  const std::size_t n = f.design.configurations().size();
  const auto frames = transition_frame_matrix(f.result.proposed.eval, n);
  auto c = f.controller();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      c.boot(i);
      EXPECT_GE(c.peek_frames(j), frames[i][j]) << i << "->" << j;
    }
}

TEST(Controller, Eq10EqualsSumOverUnorderedPairs) {
  Fixture f;
  const std::size_t n = f.design.configurations().size();
  const auto frames = transition_frame_matrix(f.result.proposed.eval, n);
  std::uint64_t total = 0;
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      total += frames[i][j];
      worst = std::max(worst, frames[i][j]);
    }
  EXPECT_EQ(total, f.result.proposed.eval.total_frames);
  EXPECT_EQ(worst, f.result.proposed.eval.worst_frames);
}

TEST(Controller, StaleContentsAvoidRewrites) {
  // In the warm steady state, oscillating i -> j -> i costs exactly twice
  // the pairwise model: regions untouched by j keep serving i for free.
  Fixture f;
  const std::size_t n = f.design.configurations().size();
  const auto frames = transition_frame_matrix(f.result.proposed.eval, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      auto c = f.controller();
      c.boot(i);
      c.transition(j);  // warm-up
      c.transition(i);
      c.reset_stats();
      c.transition(j);
      c.transition(i);
      EXPECT_EQ(c.stats().total_frames, 2 * frames[i][j]);
    }
}

TEST(Controller, StatsAccumulate) {
  Fixture f;
  auto c = f.controller();
  c.boot(0);
  const std::size_t n = f.design.configurations().size();
  for (std::size_t j = 1; j < n; ++j) c.transition(j);
  EXPECT_EQ(c.stats().transitions, n - 1);
  EXPECT_GT(c.stats().total_frames, 0u);
  EXPECT_GT(c.stats().total_ns, 0u);
  EXPECT_GE(c.stats().worst_transition_frames, 1u);
  EXPECT_LE(c.stats().worst_transition_frames, c.stats().total_frames);
  // Cold loads can exceed the warm worst case, but never the whole fabric.
  std::uint64_t all_regions = 0;
  for (const RegionReport& r : f.result.proposed.eval.regions)
    all_regions += r.frames;
  EXPECT_LE(c.stats().worst_transition_frames, all_regions);
}

TEST(Controller, RequiresBoot) {
  Fixture f;
  auto c = f.controller();
  EXPECT_THROW(c.transition(0), InternalError);
  EXPECT_THROW(c.peek_frames(0), InternalError);
}

TEST(Controller, RejectsOutOfRangeConfig) {
  Fixture f;
  auto c = f.controller();
  c.boot(0);
  EXPECT_THROW(c.transition(99), InternalError);
  EXPECT_THROW(c.boot(99), InternalError);
}

TEST(Controller, RejectsInvalidEvaluation) {
  Fixture f;
  SchemeEvaluation bad = f.result.proposed.eval;
  bad.valid = false;
  EXPECT_THROW(ReconfigurationController(f.design, bad), InternalError);
}

TEST(Controller, EventNanosecondsUseIcapModel) {
  Fixture f;
  IcapModel icap;
  ReconfigurationController c(f.design, f.result.proposed.eval, icap);
  c.boot(0);
  for (std::size_t j = 1; j < f.design.configurations().size(); ++j) {
    for (const ReconfigEvent& ev : c.transition(j))
      EXPECT_EQ(ev.ns, icap.reconfiguration_ns(ev.frames));
  }
}

}  // namespace
}  // namespace prpart
