// The grouping enumerator (core/optimal) in both of its modes, against the
// reference exact enumerator (oracle::optimal_partitioning_reference).
//
// Optimising (optimal_partitioning): wherever the reference finishes, the
// engine reports the same feasibility, scheme and totals in no more states.
//
// Deciding fit (prove_fit, the device walk's fit proof), and against the
// real search:
//
//  * "no fit" on a candidate set implies the exact enumerator finds no
//    fitting assignment of that set (without running out of states);
//  * "fit" implies it finds one;
//  * whenever the proof says no grouping of any candidate set fits, the
//    search records no fitting state and proposes nothing.
//
// Budgets are drawn around each design's fit boundary, so tile rounding and
// static promotion decide many of the verdicts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/clustering.hpp"
#include "core/optimal.hpp"
#include "core/schemes.hpp"
#include "core/search.hpp"
#include "design/synthetic.hpp"
#include "device/device.hpp"
#include "oracle/optimal_reference.hpp"
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

std::string describe(const PartitionScheme& scheme) {
  std::string out;
  for (const Region& region : scheme.regions) {
    out += "[";
    for (std::size_t m : region.members) out += std::to_string(m) + " ";
    out += "]";
  }
  out += " static";
  for (std::size_t m : scheme.static_members) out += " " + std::to_string(m);
  return out;
}

/// Cases compared, how many of them fit, and the states each side visited.
struct Tally {
  std::size_t compared = 0;
  std::size_t feasible = 0;
  std::uint64_t states = 0;
  std::uint64_t ref_states = 0;
};

/// Runs the engine and the reference on one case and, when the reference
/// finishes, expects the same answer in no more states.
void expect_same_optimum(const Harness& h, const ResourceVec& budget,
                         const CandidateSet& set, const OptimalOptions& oo,
                         Tally& tally) {
  const OptimalResult ref = oracle::optimal_partitioning_reference(
      h.design, h.matrix, h.partitions, h.compat, budget, set, oo);
  if (ref.exhausted) return;
  const OptimalResult got = optimal_partitioning(
      h.design, h.matrix, h.partitions, h.compat, budget, set, oo);
  const std::string where = h.design.name() + " budget " + budget.to_string() +
                            (oo.allow_static_promotion ? "" : " (no promotion)");
  ++tally.compared;
  tally.states += got.states_explored;
  tally.ref_states += ref.states_explored;
  EXPECT_FALSE(got.exhausted) << where;
  EXPECT_LE(got.states_explored, ref.states_explored) << where;
  EXPECT_EQ(got.feasible, ref.feasible) << where;
  if (!got.feasible || !ref.feasible) return;
  ++tally.feasible;
  EXPECT_EQ(got.scheme.label, ref.scheme.label) << where;
  EXPECT_EQ(describe(got.scheme), describe(ref.scheme)) << where;
  EXPECT_EQ(got.eval.total_frames, ref.eval.total_frames) << where;
  EXPECT_EQ(got.eval.worst_frames, ref.eval.worst_frames) << where;
  EXPECT_EQ(got.eval.total_resources, ref.eval.total_resources) << where;
}

TEST(OptimalIdentity, MatchesReferenceOnRandomCoversAndBudgets) {
  Rng rng(1803'03748);
  Tally tally;
  for (const Design& design : small_designs()) {
    const Harness h(design);
    for (int trial = 0; trial < 16; ++trial) {
      OptimalOptions oo;
      oo.allow_static_promotion = trial % 3 != 0;
      const ResourceVec budget = random_budget(h.design, rng);
      const CandidateSet set =
          trial % 2 == 0 ? h.sets[static_cast<std::size_t>(trial / 2) %
                                  h.sets.size()]
                         : random_cover(h, rng);
      expect_same_optimum(h, budget, set, oo, tally);
    }
  }
  // The reference finishes on every small case; both answers occur.
  EXPECT_EQ(tally.compared, small_designs().size() * 16);
  EXPECT_GT(tally.feasible, 80u);
  EXPECT_GT(tally.compared - tally.feasible, 80u);
  // The fit prune bites on budgets near the boundary.
  EXPECT_LT(tally.states, tally.ref_states);
}

TEST(OptimalIdentity, MatchesReferenceOnSweepDesigns) {
  // Paper-population designs (up to six modules) on the two smallest
  // devices their single region fits, mode-level set and the deepest
  // candidate set, under a state cap the reference often finishes within.
  const DeviceLibrary lib = DeviceLibrary::extended();
  Tally tally;
  for (SyntheticDesign& s : generate_synthetic_suite(1013, 12)) {
    const Harness h(std::move(s.design));
    const ResourceVec bound = single_region_footprint(h.design);
    std::size_t devices = 0;
    for (const Device& device : lib.devices()) {
      if (!bound.fits_in(device.capacity())) continue;
      if (++devices > 2) break;
      for (const bool promote : {true, false}) {
        OptimalOptions oo;
        oo.allow_static_promotion = promote;
        oo.max_states = 100'000;
        for (const CandidateSet& set : {h.sets.front(), h.sets.back()})
          expect_same_optimum(h, device.capacity(), set, oo, tally);
      }
    }
  }
  EXPECT_GT(tally.compared, 40u);
  EXPECT_GT(tally.feasible, 10u);
  EXPECT_LT(tally.states, tally.ref_states);
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
      const OptimalResult exact = oracle::optimal_partitioning_reference(
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

TEST(FitProof, NodeCountsArePinned) {
  // The enumeration order and the prunes fix how many nodes a proof visits,
  // and so what the device walk pays for it: pin three proofs' counts.
  struct Case {
    Design design;
    ResourceVec budget;
    bool promote;
    FitVerdict verdict;
    std::uint64_t nodes;
  };
  std::vector<Case> cases;
  // Fits only by promotion, after backtracking out of the region subtrees.
  cases.push_back({testing::paper_example(), {740, 8, 16}, true,
                   FitVerdict::kFits, 17});
  cases.push_back({testing::paper_example(), {730, 8, 16}, true,
                   FitVerdict::kNoFit, 210});
  // A sweep design on XC5VFX70T, where the walk proves no grouping fits.
  cases.push_back({generate_synthetic_suite(1013, 5)[4].design,
                   {11200, 148, 128}, true, FitVerdict::kNoFit, 782});
  for (const Case& c : cases) {
    const Harness h(c.design);
    const FitProof proof =
        prove_fit(h.partitions, h.compat, h.sets, h.design.static_base(),
                  c.budget, c.promote);
    EXPECT_EQ(proof.verdict, c.verdict) << h.design.name();
    EXPECT_EQ(proof.nodes, c.nodes) << h.design.name();
  }
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
