#include "benchlib/application.hpp"

#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "tests/core/example_designs.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

using testing::paper_example;

struct Fixture {
  Design design = paper_example();
  PartitionerResult result = partition_design(design, {900, 8, 16});

  ApplicationModel app() const {
    ApplicationModel m;
    m.items_per_second.assign(design.configurations().size(), 2'000'000.0);
    m.arrival_items_per_second = 1'000'000.0;
    m.mean_dwell_ns = 5'000'000.0;
    return m;
  }
};

TEST(Application, NoLossWhenRatesKeepUpAndNoStalls) {
  // Static-equivalent scheme (huge budget): zero reconfiguration frames,
  // pipeline faster than the arrivals -> nothing lost.
  Fixture f;
  const PartitionerResult roomy =
      partition_design(f.design, {100000, 1000, 1000});
  ASSERT_TRUE(roomy.feasible);
  ASSERT_EQ(roomy.proposed.eval.total_frames, 0u);
  Rng rng(1);
  const ApplicationStats s = simulate_application(
      f.design, roomy.proposed.eval, f.app(),
      MarkovChain::uniform(f.design.configurations().size()), 200, rng);
  EXPECT_EQ(s.stall_ns, 0u);
  EXPECT_DOUBLE_EQ(s.items_lost, 0.0);
  EXPECT_DOUBLE_EQ(s.availability, 1.0);
}

TEST(Application, StallsLoseItems) {
  Fixture f;
  ASSERT_TRUE(f.result.feasible);
  ASSERT_GT(f.result.proposed.eval.total_frames, 0u);
  Rng rng(2);
  const ApplicationStats s = simulate_application(
      f.design, f.result.proposed.eval, f.app(),
      MarkovChain::uniform(f.design.configurations().size()), 500, rng);
  EXPECT_GT(s.stall_ns, 0u);
  EXPECT_GT(s.items_lost, 0.0);
  EXPECT_LT(s.availability, 1.0);
  EXPECT_GT(s.availability, 0.5);
  EXPECT_NEAR(s.items_processed + s.items_lost, s.items_arrived, 1.0);
}

TEST(Application, SlowConfigurationLosesByRateShortfall) {
  Fixture f;
  ApplicationModel slow = f.app();
  // Every configuration processes at half the arrival rate.
  slow.items_per_second.assign(f.design.configurations().size(), 500'000.0);
  const PartitionerResult roomy =
      partition_design(f.design, {100000, 1000, 1000});
  Rng rng(3);
  const ApplicationStats s = simulate_application(
      f.design, roomy.proposed.eval, slow,
      MarkovChain::uniform(f.design.configurations().size()), 200, rng);
  // ~50% of arrivals lost even with zero stalls.
  EXPECT_NEAR(s.loss_fraction, 0.5, 0.02);
}

TEST(Application, LowerFrameSchemeLosesFewerItems) {
  // The point of the paper's objective, measured at application level: the
  // proposed scheme's lower total frames translate into fewer lost items
  // than the single-region scheme on the same walk distribution.
  Fixture f;
  ASSERT_TRUE(f.result.feasible);
  Rng rng_a(4);
  const ApplicationStats proposed = simulate_application(
      f.design, f.result.proposed.eval, f.app(),
      MarkovChain::uniform(f.design.configurations().size()), 2000, rng_a);
  Rng rng_b(4);  // identical walk
  const ApplicationStats single = simulate_application(
      f.design, f.result.single_region.eval, f.app(),
      MarkovChain::uniform(f.design.configurations().size()), 2000, rng_b);
  EXPECT_LT(proposed.stall_ns, single.stall_ns);
  EXPECT_LT(proposed.items_lost, single.items_lost);
  EXPECT_GT(proposed.availability, single.availability);
}

TEST(Application, ValidatesInputs) {
  Fixture f;
  ApplicationModel bad = f.app();
  bad.items_per_second.pop_back();
  Rng rng(5);
  EXPECT_THROW(
      simulate_application(f.design, f.result.proposed.eval, bad,
                           MarkovChain::uniform(
                               f.design.configurations().size()),
                           10, rng),
      InternalError);

  ApplicationModel zero = f.app();
  zero.arrival_items_per_second = 0;
  EXPECT_THROW(
      simulate_application(f.design, f.result.proposed.eval, zero,
                           MarkovChain::uniform(
                               f.design.configurations().size()),
                           10, rng),
      InternalError);
}

}  // namespace
}  // namespace prpart
