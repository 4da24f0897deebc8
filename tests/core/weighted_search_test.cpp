#include <gtest/gtest.h>

#include "core/clustering.hpp"
#include "core/partitioner.hpp"
#include "core/search.hpp"
#include "tests/core/example_designs.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

using testing::paper_example;

struct Harness {
  Design design;
  ConnectivityMatrix matrix;
  std::vector<BasePartition> partitions;
  CompatibilityTable compat;

  explicit Harness(Design d)
      : design(std::move(d)),
        matrix(design),
        partitions(enumerate_base_partitions(design, matrix)),
        compat(matrix, partitions) {}
};

PairWeights uniform_weights(std::size_t n, std::uint32_t value) {
  PairWeights w(n, std::vector<std::uint32_t>(n, value));
  for (std::size_t i = 0; i < n; ++i) w[i][i] = 0;
  return w;
}

TEST(WeightedSearch, AllOnesMatchesUnweighted) {
  Harness h(paper_example());
  const ResourceVec budget{900, 8, 16};
  const SearchResult plain = search_partitioning(
      h.design, h.matrix, h.partitions, h.compat, budget);
  const PairWeights ones = uniform_weights(h.matrix.configs(), 1);
  SearchOptions opt;
  opt.pair_weights = &ones;
  const SearchResult weighted = search_partitioning(
      h.design, h.matrix, h.partitions, h.compat, budget, opt);
  ASSERT_EQ(plain.feasible, weighted.feasible);
  ASSERT_TRUE(plain.feasible);
  EXPECT_EQ(plain.eval.total_frames, weighted.eval.total_frames);
  EXPECT_EQ(plain.eval.total_resources, weighted.eval.total_resources);
}

TEST(WeightedSearch, UniformScalingDoesNotChangeTheAnswer) {
  Harness h(paper_example());
  const ResourceVec budget{900, 8, 16};
  const PairWeights k7 = uniform_weights(h.matrix.configs(), 7);
  SearchOptions opt;
  opt.pair_weights = &k7;
  const SearchResult weighted = search_partitioning(
      h.design, h.matrix, h.partitions, h.compat, budget, opt);
  const SearchResult plain = search_partitioning(
      h.design, h.matrix, h.partitions, h.compat, budget);
  ASSERT_TRUE(weighted.feasible && plain.feasible);
  EXPECT_EQ(weighted.eval.total_frames, plain.eval.total_frames);
}

TEST(WeightedSearch, WeightedTotalFramesIdentity) {
  Harness h(paper_example());
  const SearchResult r = search_partitioning(
      h.design, h.matrix, h.partitions, h.compat, {900, 8, 16});
  ASSERT_TRUE(r.feasible);
  const PairWeights ones = uniform_weights(h.matrix.configs(), 1);
  EXPECT_EQ(weighted_total_frames(r.eval, ones), r.eval.total_frames);
  const PairWeights threes = uniform_weights(h.matrix.configs(), 3);
  EXPECT_EQ(weighted_total_frames(r.eval, threes), 3 * r.eval.total_frames);
}

TEST(WeightedSearch, RejectsMalformedWeights) {
  Harness h(paper_example());
  PairWeights bad(2, std::vector<std::uint32_t>(2, 1));  // wrong arity
  SearchOptions opt;
  opt.pair_weights = &bad;
  EXPECT_THROW(search_partitioning(h.design, h.matrix, h.partitions, h.compat,
                                   {900, 8, 16}, opt),
               InternalError);

  // Square but asymmetric: the search's between-group sum reads both
  // triangles while weighted_total_frames reads only i < j, so the two
  // would disagree on the objective.
  PairWeights lopsided = uniform_weights(h.matrix.configs(), 1);
  lopsided[0][4] = 10000;
  opt.pair_weights = &lopsided;
  EXPECT_THROW(search_partitioning(h.design, h.matrix, h.partitions, h.compat,
                                   {900, 8, 16}, opt),
               InternalError);
}

TEST(WeightedSearch, SkewedWeightsShiftTheOptimum) {
  // Make one configuration pair overwhelmingly likely: a weighted search
  // should produce a scheme at least as good for that objective as the
  // uniform search's scheme.
  Harness h(paper_example());
  const std::size_t n = h.matrix.configs();
  PairWeights skewed = uniform_weights(n, 1);
  skewed[0][4] = skewed[4][0] = 10000;  // Conf1 <-> Conf5 dominates

  const ResourceVec budget{900, 8, 16};
  SearchOptions opt;
  opt.pair_weights = &skewed;
  const SearchResult rw = search_partitioning(
      h.design, h.matrix, h.partitions, h.compat, budget, opt);
  const SearchResult ru = search_partitioning(
      h.design, h.matrix, h.partitions, h.compat, budget);
  ASSERT_TRUE(rw.feasible && ru.feasible);
  EXPECT_LE(weighted_total_frames(rw.eval, skewed),
            weighted_total_frames(ru.eval, skewed));
}

TEST(WeightedSearch, PartitionerComparesFallbackUnderWeights) {
  // The fallback decision must use the weighted objective so a weighted
  // search result is never rejected against an unweighted single-region
  // number.
  const Design d = paper_example();
  const ConnectivityMatrix m(d);
  PairWeights w = uniform_weights(m.configs(), 2);
  PartitionerOptions opt;
  opt.search.pair_weights = &w;
  const PartitionerResult r = partition_design(d, {900, 8, 16}, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(weighted_total_frames(r.proposed.eval, w),
            weighted_total_frames(r.single_region.eval, w));
}

}  // namespace
}  // namespace prpart
