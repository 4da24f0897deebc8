// Soundness of prove_fit, the device walk's fit proof, against the exact
// enumerator (optimal_partitioning) and the real search:
//
//  * "no fit" on a candidate set implies the exact enumerator finds no
//    fitting assignment of that set (without running out of states);
//  * "fit" implies it finds one;
//  * whenever the proof says no grouping of any candidate set fits, the
//    search records no fitting state and proposes nothing.
//
// Budgets are drawn around each design's fit boundary, so tile rounding and
// static promotion decide many of the verdicts.
#include "core/fit_proof.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/clustering.hpp"
#include "core/optimal.hpp"
#include "core/schemes.hpp"
#include "core/search.hpp"
#include "design/synthetic.hpp"
#include "tests/core/example_designs.hpp"
#include "util/rng.hpp"

namespace prpart {
namespace {

struct Harness {
  Design design;
  ConnectivityMatrix matrix;
  std::vector<BasePartition> partitions;
  CompatibilityTable compat;
  std::vector<CandidateSet> sets;

  explicit Harness(Design d)
      : design(std::move(d)),
        matrix(design),
        partitions(enumerate_base_partitions(design, matrix)),
        compat(matrix, partitions),
        sets(candidate_sets(partitions, matrix, 8)) {}
};

/// Small designs (2-4 modules of 2-3 modes) the exact enumerator can solve
/// outright.
std::vector<Design> small_designs() {
  std::vector<Design> designs = {testing::paper_example(),
                                 testing::one_off_modules(),
                                 testing::fig3_example()};
  SyntheticOptions opt;
  opt.max_modules = 4;
  opt.max_modes = 3;
  opt.max_clbs = 1500;
  for (SyntheticDesign& s : generate_synthetic_suite(7171, 24, opt))
    designs.push_back(std::move(s.design));
  return designs;
}

/// A budget between 0.5x and 3x of the single-region footprint per
/// resource: low enough that some draws fit nothing, high enough that
/// others fit the all-separate grouping.
ResourceVec random_budget(const Design& design, Rng& rng) {
  const ResourceVec bound = single_region_footprint(design);
  const auto scale = [&](std::uint32_t v) {
    return static_cast<std::uint32_t>(
        static_cast<double>(v + 4) * (0.5 + 2.5 * rng.uniform01()));
  };
  return {scale(bound.clbs), scale(bound.brams), scale(bound.dsps)};
}

/// A candidate set covering the design from a random list order: a valid
/// set the covering heuristic's own order would rarely produce.
CandidateSet random_cover(const Harness& h, Rng& rng) {
  std::vector<std::size_t> order(h.partitions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform(0, i - 1)]);
  const CoverResult cov = cover(h.partitions, h.matrix, order, 0);
  EXPECT_TRUE(cov.complete);
  return cov.selected;
}

TEST(FitProof, AgreesWithExactEnumerator) {
  Rng rng(20130520);
  std::size_t fits = 0, no_fit = 0;
  for (const Design& design : small_designs()) {
    const Harness h(design);
    for (int trial = 0; trial < 16; ++trial) {
      const bool promote = trial % 3 != 0;
      const ResourceVec budget = random_budget(h.design, rng);
      const CandidateSet set =
          trial % 2 == 0 ? h.sets[static_cast<std::size_t>(trial / 2) %
                                  h.sets.size()]
                         : random_cover(h, rng);
      const FitProof proof =
          prove_fit(h.partitions, h.compat, {set}, h.design.static_base(),
                    budget, promote);
      ASSERT_NE(proof.verdict, FitVerdict::kInconclusive);
      OptimalOptions oo;
      oo.allow_static_promotion = promote;
      const OptimalResult exact = optimal_partitioning(
          h.design, h.matrix, h.partitions, h.compat, budget, set, oo);
      ASSERT_FALSE(exact.exhausted) << h.design.name();
      if (proof.verdict == FitVerdict::kNoFit) {
        ++no_fit;
        EXPECT_FALSE(exact.feasible)
            << h.design.name() << " budget " << budget.to_string()
            << (promote ? "" : " (no promotion)");
      } else {
        ++fits;
        EXPECT_TRUE(exact.feasible)
            << h.design.name() << " budget " << budget.to_string()
            << (promote ? "" : " (no promotion)");
      }
    }
  }
  // Both verdicts were exercised.
  EXPECT_GT(fits, 80u) << no_fit;
  EXPECT_GT(no_fit, 80u) << fits;
}

TEST(FitProof, NoFitMeansTheSearchRecordsNothing) {
  Rng rng(1803);
  std::size_t proven = 0;
  for (const Design& design : small_designs()) {
    const Harness h(design);
    for (int trial = 0; trial < 8; ++trial) {
      SearchOptions so;
      so.threads = 1;
      so.max_candidate_sets = 8;
      so.allow_static_promotion = trial % 4 != 0;
      const ResourceVec budget = random_budget(h.design, rng);
      const FitProof proof =
          prove_fit(h.partitions, h.compat, h.sets, h.design.static_base(),
                    budget, so.allow_static_promotion);
      if (proof.verdict != FitVerdict::kNoFit) continue;
      ++proven;
      const SearchResult sr = search_partitioning(
          h.design, h.matrix, h.partitions, h.compat, h.sets, budget, so);
      EXPECT_EQ(sr.stats.states_recorded, 0u) << h.design.name();
      EXPECT_FALSE(sr.feasible) << h.design.name();
      EXPECT_TRUE(sr.alternatives.empty()) << h.design.name();
    }
  }
  EXPECT_GT(proven, 20u);
}

TEST(FitProof, AllSeparateGroupingFitsImmediately) {
  // A budget covering every partition in its own region proves a fit on the
  // first path: each item opens a region, no backtracking.
  const Harness h(testing::paper_example());
  const FitProof proof = prove_fit(h.partitions, h.compat, h.sets,
                                   h.design.static_base(),
                                   {100000, 1000, 1000}, true);
  EXPECT_EQ(proof.verdict, FitVerdict::kFits);
  EXPECT_EQ(proof.nodes, h.sets.front().size() + 1);
}

TEST(FitProof, NoCandidateSetsFitNothing) {
  const Harness h(testing::paper_example());
  const FitProof proof = prove_fit(h.partitions, h.compat, {},
                                   h.design.static_base(),
                                   {100000, 1000, 1000}, true);
  EXPECT_EQ(proof.verdict, FitVerdict::kNoFit);
  EXPECT_EQ(proof.nodes, 0u);
}

TEST(FitProof, NodeBudgetMakesItInconclusive) {
  const Harness h(testing::paper_example());
  // Nothing fits this budget, but proving it takes more than one node.
  const FitProof proof =
      prove_fit(h.partitions, h.compat, h.sets, h.design.static_base(),
                {200, 1, 1}, true, nullptr, /*node_budget=*/1);
  EXPECT_EQ(proof.verdict, FitVerdict::kInconclusive);
}

TEST(FitProof, PollsTheCancelToken) {
  const Harness h(testing::paper_example());
  CancelToken token;
  token.cancel();
  EXPECT_THROW(prove_fit(h.partitions, h.compat, h.sets,
                         h.design.static_base(), {400, 2, 2}, true, &token),
               CancelledError);
}

}  // namespace
}  // namespace prpart
