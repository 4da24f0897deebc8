#include "benchlib/policy.hpp"

#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "reconfig/markov.hpp"
#include "tests/core/example_designs.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

using testing::paper_example;

struct Fixture {
  Design design = paper_example();
  PartitionerResult result = partition_design(design, {900, 8, 16});

  ReconfigurationController controller() const {
    ReconfigurationController c(design, result.proposed.eval);
    c.boot(0);
    return c;
  }
};

TEST(AdaptationPolicy, SpecificRuleBeatsWildcard) {
  AdaptationPolicy p(5);
  p.add_rule(AdaptationPolicy::kAnyConfig, "fallback", 0);
  p.add_rule(2, "fallback", 4);
  EXPECT_EQ(p.target(2, "fallback"), 4u);
  EXPECT_EQ(p.target(1, "fallback"), 0u);
}

TEST(AdaptationPolicy, UnmatchedEventIsIgnored) {
  AdaptationPolicy p(3);
  p.add_rule(0, "go", 1);
  EXPECT_FALSE(p.target(1, "go").has_value());
  EXPECT_FALSE(p.target(0, "unknown").has_value());
}

TEST(AdaptationPolicy, Validation) {
  AdaptationPolicy p(3);
  EXPECT_THROW(p.add_rule(5, "x", 0), InternalError);
  EXPECT_THROW(p.add_rule(0, "x", 5), InternalError);
  EXPECT_THROW(p.add_rule(0, "", 1), InternalError);
  p.add_rule(0, "x", 1);
  EXPECT_THROW(p.add_rule(0, "x", 2), InternalError);  // duplicate
  EXPECT_THROW(p.target(9, "x"), InternalError);
  EXPECT_THROW(AdaptationPolicy(0), InternalError);
}

TEST(AdaptationPolicy, RunDrivesController) {
  Fixture f;
  auto ctl = f.controller();
  AdaptationPolicy p(f.design.configurations().size());
  p.add_rule(0, "degrade", 1);
  p.add_rule(1, "degrade", 2);
  p.add_rule(AdaptationPolicy::kAnyConfig, "reset", 0);

  const PolicyRunResult r = run_policy(
      ctl, p, {"degrade", "noise", "degrade", "reset", "degrade"});
  EXPECT_EQ(r.events, 5u);
  EXPECT_EQ(r.applied, 4u);
  EXPECT_EQ(r.ignored, 1u);
  EXPECT_EQ(r.path, (std::vector<std::size_t>{0, 1, 2, 0, 1}));
  EXPECT_EQ(ctl.current_config(), 1u);
  EXPECT_EQ(ctl.stats().transitions, 4u);
}

TEST(AdaptationPolicy, SelfLoopRulesDoNotReconfigure) {
  Fixture f;
  auto ctl = f.controller();
  AdaptationPolicy p(f.design.configurations().size());
  p.add_rule(0, "stay", 0);
  const PolicyRunResult r = run_policy(ctl, p, {"stay", "stay"});
  EXPECT_EQ(r.self_loops, 2u);
  EXPECT_EQ(r.applied, 0u);
  EXPECT_EQ(ctl.stats().transitions, 0u);
}

TEST(AdaptationPolicy, PolicyCostMatchesCostModelOnWarmCycle) {
  Fixture f;
  auto ctl = f.controller();
  AdaptationPolicy p(f.design.configurations().size());
  p.add_rule(0, "flip", 1);
  p.add_rule(1, "flop", 0);
  // Warm both configurations, then measure one full cycle.
  run_policy(ctl, p, {"flip", "flop"});
  ctl.reset_stats();
  run_policy(ctl, p, {"flip", "flop"});
  const auto frames = transition_frame_matrix(
      f.result.proposed.eval, f.design.configurations().size());
  EXPECT_EQ(ctl.stats().total_frames, 2 * frames[0][1]);
}

}  // namespace
}  // namespace prpart
