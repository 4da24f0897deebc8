// Property-based sweeps: invariants of the whole partitioning pipeline over
// seeded synthetic designs (TEST_P over seeds, one design per seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/clustering.hpp"
#include "core/compatibility.hpp"
#include "core/partitioner.hpp"
#include "design/io_xml.hpp"
#include "design/synthetic.hpp"
#include "device/tiles.hpp"
#include "reconfig/controller.hpp"

namespace prpart {
namespace {

class PipelineProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  PipelineProperties() {
    Rng rng(GetParam());
    const auto cls = static_cast<CircuitClass>(GetParam() % 4);
    design_.emplace(generate_synthetic(rng, cls).design);
    // A budget between the single-region lower bound and full static keeps
    // the search non-trivial: 1.35x the lower bound.
    const ResourceVec lower =
        design_->largest_configuration_area() + design_->static_base();
    budget_ = ResourceVec{lower.clbs + lower.clbs / 3 + 200,
                          lower.brams + lower.brams / 3 + 8,
                          lower.dsps + lower.dsps / 3 + 8};
    PartitionerOptions opt;
    opt.search.max_move_evaluations = 300'000;  // keep the suite fast
    result_.emplace(partition_design(*design_, budget_, opt));
  }

  std::optional<Design> design_;
  ResourceVec budget_;
  std::optional<PartitionerResult> result_;
};

TEST_P(PipelineProperties, ProposedIsValidAndFits) {
  ASSERT_TRUE(result_->feasible);
  EXPECT_TRUE(result_->proposed.eval.valid)
      << result_->proposed.eval.invalid_reason;
  EXPECT_TRUE(result_->proposed.eval.fits);
  EXPECT_TRUE(result_->proposed.eval.total_resources.fits_in(budget_));
}

TEST_P(PipelineProperties, ProposedNeverWorseThanSingleRegion) {
  ASSERT_TRUE(result_->feasible);
  EXPECT_LE(result_->proposed.eval.total_frames,
            result_->single_region.eval.total_frames);
}

TEST_P(PipelineProperties, EveryConfigurationCoveredExactlyOnce) {
  ASSERT_TRUE(result_->feasible);
  // The single-region fallback intentionally uses full-configuration
  // bitstreams whose members overlap in occupancy; the unique-active-member
  // invariant only applies to search-produced schemes.
  if (!result_->proposed_from_search)
    GTEST_SKIP() << "single-region fallback";
  const ConnectivityMatrix matrix(*design_);
  const auto& parts = result_->base_partitions;
  const PartitionScheme& s = result_->proposed.scheme;

  DynBitset static_modes(design_->mode_count());
  for (std::size_t p : s.static_members) static_modes |= parts[p].modes;

  for (std::size_t c = 0; c < matrix.configs(); ++c) {
    DynBitset provided = static_modes;
    for (const Region& region : s.regions) {
      int active = -1;
      for (std::size_t m = 0; m < region.members.size(); ++m) {
        if (parts[region.members[m]].modes.intersects(matrix.row(c))) {
          EXPECT_EQ(active, -1)
              << "two active members in one region, config " << c;
          active = static_cast<int>(m);
        }
      }
      if (active >= 0)
        provided |=
            parts[region.members[static_cast<std::size_t>(active)]].modes;
    }
    EXPECT_TRUE(matrix.row(c).is_subset_of(provided))
        << "config " << c << " not fully provided";
  }
}

TEST_P(PipelineProperties, RegionsHoldOnlyCompatibleMembers) {
  ASSERT_TRUE(result_->feasible);
  if (!result_->proposed_from_search)
    GTEST_SKIP() << "single-region fallback";
  const ConnectivityMatrix matrix(*design_);
  const CompatibilityTable compat(matrix, result_->base_partitions);
  for (const Region& region : result_->proposed.scheme.regions)
    for (std::size_t i = 0; i < region.members.size(); ++i)
      for (std::size_t j = i + 1; j < region.members.size(); ++j)
        EXPECT_TRUE(compat.compatible(region.members[i], region.members[j]));
}

TEST_P(PipelineProperties, ResourceAccountingIsConsistent) {
  ASSERT_TRUE(result_->feasible);
  const SchemeEvaluation& e = result_->proposed.eval;
  // total = pr + static, and pr equals the sum of tile-rounded regions.
  ResourceVec pr;
  for (const RegionReport& r : e.regions) pr += r.tiles.resources();
  EXPECT_EQ(pr, e.pr_resources);
  EXPECT_EQ(e.pr_resources + e.static_resources, e.total_resources);
  // Regions are tile-rounded versions of their raw areas.
  for (const RegionReport& r : e.regions) EXPECT_EQ(r.tiles, tiles_for(r.raw));
}

TEST_P(PipelineProperties, WorstIsBoundedByTotalAndByRegionSum) {
  ASSERT_TRUE(result_->feasible);
  const SchemeEvaluation& e = result_->proposed.eval;
  std::uint64_t all_regions = 0;
  for (const RegionReport& r : e.regions) all_regions += r.frames;
  EXPECT_LE(e.worst_frames, all_regions);
  if (design_->configurations().size() >= 2) {
    EXPECT_LE(e.worst_frames, e.total_frames);
  }
}

TEST_P(PipelineProperties, SimulatorAgreesWithCostModel) {
  // Eq. 10 models warm operation: after i and j have both been visited, the
  // i <-> j costs equal the model's and are symmetric.
  ASSERT_TRUE(result_->feasible);
  const std::size_t n = design_->configurations().size();
  ReconfigurationController ctl(*design_, result_->proposed.eval);
  std::uint64_t total = 0;
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      ctl.boot(i);
      ctl.transition(j);  // warm-up: load j's regions
      ctl.transition(i);
      const std::uint64_t f = ctl.peek_frames(j);
      ctl.transition(j);
      // Symmetry of the stale-content rule in the warm state.
      EXPECT_EQ(ctl.peek_frames(i), f);
      total += f;
      worst = std::max(worst, f);
    }
  EXPECT_EQ(total, result_->proposed.eval.total_frames);
  EXPECT_EQ(worst, result_->proposed.eval.worst_frames);
}

TEST_P(PipelineProperties, XmlRoundTripPreservesPartitioningOutcome) {
  ASSERT_TRUE(result_->feasible);
  const Design reparsed = design_from_xml(design_to_xml(*design_));
  PartitionerOptions opt;
  opt.search.max_move_evaluations = 300'000;
  const PartitionerResult again = partition_design(reparsed, budget_, opt);
  ASSERT_TRUE(again.feasible);
  EXPECT_EQ(again.proposed.eval.total_frames,
            result_->proposed.eval.total_frames);
  EXPECT_EQ(again.proposed.eval.total_resources,
            result_->proposed.eval.total_resources);
}

TEST_P(PipelineProperties, TotalTimeMatchesBruteForceEq10) {
  // Recompute Eq. 10 from first principles — region frames from the member
  // areas (Eqs. 1-6), active members from mode-set intersection, d_ij from
  // comparing active members — without going through SchemeEvaluation, and
  // require exact agreement with the reported total.
  ASSERT_TRUE(result_->feasible);
  if (!result_->proposed_from_search)
    GTEST_SKIP() << "single-region fallback";
  const ConnectivityMatrix matrix(*design_);
  const auto& parts = result_->base_partitions;

  std::uint64_t total = 0;
  for (const Region& region : result_->proposed.scheme.regions) {
    ResourceVec raw;
    for (std::size_t m : region.members)
      raw = elementwise_max(raw, parts[m].area);
    const std::uint64_t frames = tiles_for(raw).frames();
    std::vector<int> active(matrix.configs(), -1);
    for (std::size_t c = 0; c < matrix.configs(); ++c)
      for (std::size_t m = 0; m < region.members.size(); ++m)
        if (parts[region.members[m]].modes.intersects(matrix.row(c)))
          active[c] = static_cast<int>(m);
    for (std::size_t i = 0; i < active.size(); ++i)
      for (std::size_t j = i + 1; j < active.size(); ++j)
        if (active[i] >= 0 && active[j] >= 0 && active[i] != active[j])
          total += frames;
  }
  EXPECT_EQ(total, result_->proposed.eval.total_frames);
}

TEST_P(PipelineProperties, EveryAlternativeFitsTheBudgetExactly) {
  // The search only records states with zero budget excess; re-evaluating
  // every ranked alternative must confirm element-wise feasibility and the
  // stored objective value.
  ASSERT_TRUE(result_->feasible);
  const ConnectivityMatrix matrix(*design_);
  for (const RankedScheme& alt : result_->alternatives) {
    const SchemeEvaluation e = evaluate_scheme(
        *design_, matrix, result_->base_partitions, alt.scheme, budget_);
    EXPECT_TRUE(e.valid) << e.invalid_reason;
    EXPECT_TRUE(e.fits);
    EXPECT_TRUE(e.total_resources.fits_in(budget_));
    EXPECT_EQ(e.total_frames, alt.total_frames);
  }
}

TEST_P(PipelineProperties, EveryAlternativeHasUniqueActiveMemberPerRegion) {
  // Active-partition uniqueness (at most one member of a region is present
  // in any configuration) must hold for every ranked alternative, not just
  // the proposed scheme.
  ASSERT_TRUE(result_->feasible);
  const ConnectivityMatrix matrix(*design_);
  const auto& parts = result_->base_partitions;
  for (const RankedScheme& alt : result_->alternatives)
    for (std::size_t c = 0; c < matrix.configs(); ++c)
      for (const Region& region : alt.scheme.regions) {
        std::size_t active = 0;
        for (std::size_t m : region.members)
          if (parts[m].modes.intersects(matrix.row(c))) ++active;
        EXPECT_LE(active, 1u) << "config " << c;
      }
}

TEST_P(PipelineProperties, ThreadCountDoesNotChangeOutcome) {
  // End-to-end determinism: partitioning with an explicit 4-thread search
  // must reproduce the reference run (auto thread count) exactly.
  PartitionerOptions opt;
  opt.search.max_move_evaluations = 300'000;
  opt.search.threads = 4;
  const PartitionerResult par = partition_design(*design_, budget_, opt);
  ASSERT_EQ(par.feasible, result_->feasible);
  if (!par.feasible) return;
  EXPECT_EQ(par.proposed.eval.total_frames,
            result_->proposed.eval.total_frames);
  EXPECT_EQ(par.proposed.eval.total_resources,
            result_->proposed.eval.total_resources);
  EXPECT_EQ(par.stats.move_evaluations, result_->stats.move_evaluations);
  EXPECT_EQ(par.stats.states_recorded, result_->stats.states_recorded);
  ASSERT_EQ(par.alternatives.size(), result_->alternatives.size());
  for (std::size_t i = 0; i < par.alternatives.size(); ++i)
    EXPECT_EQ(par.alternatives[i].total_frames,
              result_->alternatives[i].total_frames);
}

TEST_P(PipelineProperties, BaselinesAreValid) {
  EXPECT_TRUE(result_->modular.eval.valid);
  EXPECT_TRUE(result_->static_impl.eval.valid);
  EXPECT_EQ(result_->static_impl.eval.total_frames, 0u);
  // Single region: every pair reconfigures the one region.
  const std::size_t n = design_->configurations().size();
  EXPECT_EQ(result_->single_region.eval.total_frames,
            n * (n - 1) / 2 * result_->single_region.eval.regions[0].frames);
}

INSTANTIATE_TEST_SUITE_P(SyntheticSeeds, PipelineProperties,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace prpart
