#include "reconfig/markov.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "core/partitioner.hpp"
#include "tests/core/example_designs.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

using testing::paper_example;

TEST(MarkovChain, UniformChainProperties) {
  const MarkovChain c = MarkovChain::uniform(5);
  EXPECT_EQ(c.states(), 5u);
  EXPECT_DOUBLE_EQ(c.probability(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(c.probability(0, 1), 0.25);
  const auto pi = c.stationary();
  for (double p : pi) EXPECT_NEAR(p, 0.2, 1e-9);
}

TEST(MarkovChain, RejectsBadMatrices) {
  EXPECT_THROW(MarkovChain(std::vector<std::vector<double>>{}),
               InternalError);
  using Rows = std::vector<std::vector<double>>;
  EXPECT_THROW(MarkovChain(Rows{{0.5}}), InternalError);              // row sum
  EXPECT_THROW(MarkovChain(Rows{{1.0, 0.0}, {1.0}}), InternalError);  // ragged
  EXPECT_THROW(MarkovChain(Rows{{-0.5, 1.5}, {0.5, 0.5}}), InternalError);
}

TEST(MarkovChain, RandomChainIsStochastic) {
  Rng rng(5);
  const MarkovChain c = MarkovChain::random(rng, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    double sum = 0;
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_GE(c.probability(i, j), 0.0);
      sum += c.probability(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(c.probability(i, i), 0.0);
  }
}

TEST(MarkovChain, StationarySumsToOne) {
  Rng rng(9);
  const MarkovChain c = MarkovChain::random(rng, 4);
  const auto pi = c.stationary();
  EXPECT_NEAR(std::accumulate(pi.begin(), pi.end(), 0.0), 1.0, 1e-9);
}

TEST(MarkovChain, StationaryIsAFixedPointOfTheChain) {
  // pi P = pi: the power iteration must converge to an actual stationary
  // distribution, not just any normalised vector.
  Rng rng(31);
  for (const MarkovChain& c :
       {MarkovChain::uniform(5), MarkovChain::random(rng, 4),
        MarkovChain::random(rng, 7)}) {
    const auto pi = c.stationary();
    ASSERT_EQ(pi.size(), c.states());
    for (std::size_t j = 0; j < c.states(); ++j) {
      double next = 0;
      for (std::size_t i = 0; i < c.states(); ++i)
        next += pi[i] * c.probability(i, j);
      EXPECT_NEAR(next, pi[j], 1e-9) << "state " << j;
    }
  }
}

TEST(MarkovChain, SampleNextFollowsDistribution) {
  const MarkovChain c = MarkovChain::uniform(3);
  Rng rng(17);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) ++counts[c.sample_next(rng, 0)];
  EXPECT_EQ(counts[0], 0);  // no self transitions
  EXPECT_NEAR(static_cast<double>(counts[1]) / 30000, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / 30000, 0.5, 0.02);
}

TEST(MarkovChain, NumericalTailNeverPicksAZeroProbabilityState) {
  // The constructor accepts a row 9e-10 short of 1, so the largest draw,
  // u = 1 - 2^-53, runs off its end. The tail must land on state 1, the
  // last state the row can reach, not on the unreachable state 2.
  using Rows = std::vector<std::vector<double>>;
  const MarkovChain c(
      Rows{{0.5, 0.5 - 9e-10, 0.0}, {0.0, 0.0, 1.0}, {1.0, 0.0, 0.0}});
  const double largest = 1.0 - 0x1.0p-53;
  EXPECT_EQ(c.next_state(0, largest), 1u);
  EXPECT_EQ(c.next_state(0, 0.0), 0u);
  EXPECT_EQ(c.next_state(0, 0.5), 1u);
  EXPECT_EQ(c.next_state(1, largest), 2u);
  EXPECT_EQ(c.next_state(2, largest), 0u);
  EXPECT_THROW(c.next_state(3, 0.5), InternalError);
  // A uniform chain never leaves the last state for itself, even at the
  // largest draw.
  const MarkovChain u = MarkovChain::uniform(4);
  for (std::size_t from = 0; from < 4; ++from)
    EXPECT_NE(u.next_state(from, largest), from) << from;
}

class MarkovCost : public ::testing::Test {
 protected:
  Design design_ = paper_example();
  PartitionerResult result_ = partition_design(design_, {900, 8, 16});
};

TEST_F(MarkovCost, FrameMatrixIsSymmetricWithZeroDiagonal) {
  const std::size_t n = design_.configurations().size();
  const auto f = transition_frame_matrix(result_.proposed.eval, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(f[i][i], 0u);
    for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(f[i][j], f[j][i]);
  }
}

TEST_F(MarkovCost, UniformExpectationMatchesEq10Average) {
  // Under the uniform no-self-loop chain, the expected frames per
  // transition equal the Eq. 10 total divided by the number of unordered
  // pairs (each pair is visited with equal probability in both directions).
  const std::size_t n = design_.configurations().size();
  const MarkovChain chain = MarkovChain::uniform(n);
  const double expected =
      expected_frames_per_transition(result_.proposed.eval, n, chain);
  const double pairs = static_cast<double>(n * (n - 1) / 2);
  const double eq10_avg =
      static_cast<double>(result_.proposed.eval.total_frames) / pairs;
  EXPECT_NEAR(expected, eq10_avg, 1e-6 * eq10_avg + 1e-9);
}

TEST_F(MarkovCost, SkewedChainDiffersFromUniformProxy) {
  // A chain that mostly oscillates between two configurations weights their
  // transition cost far more than the uniform proxy does.
  const std::size_t n = design_.configurations().size();
  ASSERT_GE(n, 3u);
  std::vector<std::vector<double>> p(n, std::vector<double>(n, 0.0));
  const double eps = 0.02;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) p[i][j] = eps / static_cast<double>(n - 1);
    const std::size_t partner = i == 0 ? 1 : 0;
    p[i][partner] += 1.0 - eps - (i == 0 || partner == 0 ? 0.0 : 0.0);
    // Renormalise row exactly.
    double sum = 0;
    for (double v : p[i]) sum += v;
    for (double& v : p[i]) v /= sum;
  }
  const MarkovChain skewed(p);
  const double uniform = expected_frames_per_transition(
      result_.proposed.eval, n, MarkovChain::uniform(n));
  const double weighted =
      expected_frames_per_transition(result_.proposed.eval, n, skewed);
  EXPECT_NE(uniform, weighted);
}

TEST_F(MarkovCost, ChainSizeMismatchThrows) {
  EXPECT_THROW(expected_frames_per_transition(result_.proposed.eval, 5,
                                              MarkovChain::uniform(4)),
               InternalError);
}

}  // namespace
}  // namespace prpart
