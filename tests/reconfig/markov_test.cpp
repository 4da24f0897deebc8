#include "reconfig/markov.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>

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

// ---------------------------------------------------------------------------
// ThresholdSampler: MarkovChain::next_state by counting thresholds.

using Rows = std::vector<std::vector<double>>;

/// Every draw at and beside every finite threshold, the two extreme draws
/// and `random_draws` random ones pick what next_state picks, row by row.
void expect_draws_match(const MarkovChain& chain, std::size_t random_draws,
                        const std::string& context) {
  ThresholdSampler sampler(chain, ~std::uint64_t{0});
  ASSERT_TRUE(sampler.tabulates()) << context;
  const std::uint64_t range = ThresholdSampler::kDrawRange;
  const auto check = [&](std::size_t from, std::uint64_t k) {
    ASSERT_EQ(sampler.pick(from, k),
              chain.next_state(from, static_cast<double>(k) * 0x1.0p-53))
        << context << " row " << from << " draw " << k;
  };
  Rng rng(77);
  for (std::size_t from = 0; from < chain.states(); ++from) {
    const auto thresholds = sampler.thresholds(from);
    ASSERT_EQ(thresholds.size(), chain.states());
    for (std::size_t j = 0; j < thresholds.size(); ++j) {
      const std::uint64_t t = thresholds[j];
      if (j > 0) {
        ASSERT_GE(t, thresholds[j - 1]) << context;
      }
      if (t >= range) continue;
      if (t > 0) check(from, t - 1);
      check(from, t);
      if (t + 1 < range) check(from, t + 1);
    }
    check(from, 0);
    check(from, range - 1);
    for (std::size_t d = 0; d < random_draws; ++d)
      check(from, rng.next() >> 11);
  }
}

TEST(ThresholdSampler, DrawsEqualNextStateAroundEveryThreshold) {
  Rng rng(2029);
  // Row lengths on both sides of powers of two the binary search halves.
  for (const std::size_t n : {2u, 3u, 5u, 17u, 32u, 33u, 64u})
    expect_draws_match(MarkovChain::random(rng, n), 2000,
                       "random " + std::to_string(n));
  expect_draws_match(MarkovChain::uniform(4), 2000, "uniform 4");
  expect_draws_match(MarkovChain::uniform(50), 200, "uniform 50");
}

TEST(ThresholdSampler, ZeroEntriesAreNeverPicked) {
  const MarkovChain chain(Rows{{0.0, 0.25, 0.0, 0.0, 0.75, 0.0},
                               {0.0, 0.0, 0.0, 0.0, 0.0, 1.0},
                               {1.0, 0.0, 0.0, 0.0, 0.0, 0.0},
                               {0.5, 0.0, 0.0, 0.0, 0.0, 0.5},
                               {0.0, 0.0, 1e-300, 0.0, 1.0, 0.0},
                               {0.1, 0.2, 0.0, 0.3, 0.0, 0.4}});
  expect_draws_match(chain, 5000, "zeros");
  ThresholdSampler sampler(chain, ~std::uint64_t{0});
  Rng rng(3);
  for (std::size_t from = 0; from < chain.states(); ++from)
    for (int d = 0; d < 2000; ++d) {
      const std::size_t to = sampler.sample_next(rng, from);
      EXPECT_GT(chain.probability(from, to), 0.0) << from << " -> " << to;
    }
}

TEST(ThresholdSampler, RowsOffOneByRoundingKeepTheTailRule) {
  // Rows within the constructor's tolerance of 1, both sides. A short row
  // leaves the largest draws past its sum, where next_state falls back to
  // the last positive state; a long one ends before the draws run out.
  const MarkovChain chain(Rows{{0.3, 0.3, 0.4 - 1e-10, 0.0},
                               {0.3, 0.3, 0.4 + 1e-10, 0.0},
                               {0.5, 0.5 - 9e-10, 0.0, 0.0},
                               {0.0, 0.0, 0.5 + 1e-10, 0.5}});
  expect_draws_match(chain, 5000, "off by 1e-10");
  ThresholdSampler sampler(chain, ~std::uint64_t{0});
  const std::uint64_t largest = ThresholdSampler::kDrawRange - 1;
  EXPECT_EQ(sampler.pick(0, largest), 2u);
  EXPECT_EQ(sampler.pick(2, largest), 1u);
  EXPECT_EQ(sampler.pick(3, largest), 3u);
}

TEST(ThresholdSampler, LargeChainFallsBackToNextState) {
  // 300 states at 100k draws: fewer than kDrawsPerTableEntry draws per
  // table entry, so nothing is tabulated.
  Rng chain_rng(11);
  const MarkovChain chain = MarkovChain::random(chain_rng, 300);
  ThresholdSampler sampler(chain, 100'000);
  EXPECT_FALSE(sampler.tabulates());
  Rng a(5), b(5);
  std::size_t s = 0, t = 0;
  for (int k = 0; k < 20'000; ++k) {
    s = sampler.sample_next(a, s);
    t = chain.sample_next(b, t);
    ASSERT_EQ(s, t) << "draw " << k;
  }
  // Asked for enough draws, the same chain tabulates lazily, and its
  // binary-searched rows agree too (a few rows: each costs ~C^2).
  ThresholdSampler tabulating(chain, 4 * 300 * 300);
  EXPECT_TRUE(tabulating.tabulates());
  Rng c(9);
  for (const std::size_t from : {0u, 1u, 150u, 299u}) {
    const auto thresholds = tabulating.thresholds(from);
    for (std::size_t j = 0; j < thresholds.size(); ++j)
      for (const std::uint64_t k : {thresholds[j] - 1, thresholds[j]}) {
        if (k >= ThresholdSampler::kDrawRange) continue;
        ASSERT_EQ(tabulating.pick(from, k),
                  chain.next_state(from, static_cast<double>(k) * 0x1.0p-53))
            << "row " << from << " draw " << k;
      }
    for (int d = 0; d < 1000; ++d) {
      const std::uint64_t k = c.next() >> 11;
      ASSERT_EQ(tabulating.pick(from, k),
                chain.next_state(from, static_cast<double>(k) * 0x1.0p-53));
    }
  }
}

TEST(ThresholdSampler, TabulatesOnlyWhenTheDrawsRepayTheTable) {
  const MarkovChain chain = MarkovChain::uniform(10);
  EXPECT_FALSE(ThresholdSampler(chain, 399).tabulates());
  EXPECT_TRUE(ThresholdSampler(chain, 400).tabulates());
  EXPECT_THROW(ThresholdSampler(chain, 400).thresholds(10), InternalError);
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
