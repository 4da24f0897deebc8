#include "benchlib/rana_clustering.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/partitioner.hpp"
#include "tests/core/example_designs.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

using testing::paper_example;

TEST(CommunicationGraph, SymmetricStorage) {
  CommunicationGraph g(4);
  g.set(0, 3, 2.5);
  EXPECT_DOUBLE_EQ(g.at(0, 3), 2.5);
  EXPECT_DOUBLE_EQ(g.at(3, 0), 2.5);
  EXPECT_DOUBLE_EQ(g.at(1, 2), 0.0);
}

TEST(CommunicationGraph, Validation) {
  CommunicationGraph g(3);
  EXPECT_THROW(g.set(0, 0, 1.0), InternalError);
  EXPECT_THROW(g.set(0, 5, 1.0), InternalError);
  EXPECT_THROW(g.set(0, 1, -1.0), InternalError);
  EXPECT_THROW(g.at(4, 0), InternalError);
}

TEST(CommunicationClustering, MergesHeaviestPairsFirst) {
  // 0-1 heavy, 2-3 medium, everything else light: with 2 target regions
  // the grouping must be {0,1} and {2,3}.
  CommunicationGraph g(4);
  g.set(0, 1, 10.0);
  g.set(2, 3, 5.0);
  g.set(0, 2, 0.1);
  g.set(1, 3, 0.1);
  const ModuleGrouping mg = communication_clustering(g, 2);
  ASSERT_EQ(mg.groups.size(), 2u);
  std::vector<std::vector<std::size_t>> sorted = mg.groups;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted[0], (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(sorted[1], (std::vector<std::size_t>{2, 3}));
}

TEST(CommunicationClustering, SingleRegionGroupsEverything) {
  CommunicationGraph g(3);
  g.set(0, 1, 1.0);
  const ModuleGrouping mg = communication_clustering(g, 1);
  ASSERT_EQ(mg.groups.size(), 1u);
  EXPECT_EQ(mg.groups[0].size(), 3u);
}

TEST(CommunicationClustering, TargetEqualsModulesIsIdentity) {
  CommunicationGraph g(3);
  const ModuleGrouping mg = communication_clustering(g, 3);
  EXPECT_EQ(mg.groups.size(), 3u);
}

TEST(CommunicationClustering, IntraBandwidthGrowsWithMerging) {
  Rng rng(3);
  const CommunicationGraph g = CommunicationGraph::random(rng, 6, 0.8);
  double prev = -1.0;
  for (std::size_t regions = 6; regions >= 1; --regions) {
    const double intra =
        intra_group_bandwidth(g, communication_clustering(g, regions));
    EXPECT_GE(intra, prev);
    prev = intra;
  }
}

TEST(EvaluateModuleGrouping, IdentityGroupingEqualsModularScheme) {
  // One module per group is exactly the paper's one-module-per-region
  // baseline; both evaluations must agree.
  const Design d = paper_example();
  const ResourceVec budget{100000, 100, 100};
  ModuleGrouping identity;
  identity.groups = {{0}, {1}, {2}};
  const SchemeEvaluation ours = evaluate_module_grouping(d, identity, budget);

  const PartitionerResult r = partition_design(d, budget);
  EXPECT_EQ(ours.total_frames, r.modular.eval.total_frames);
  EXPECT_EQ(ours.worst_frames, r.modular.eval.worst_frames);
  EXPECT_EQ(ours.pr_resources, r.modular.eval.pr_resources);
}

TEST(EvaluateModuleGrouping, GroupedModulesReconfigureTogether) {
  // Grouping A and B: any configuration pair where either module changes
  // mode reconfigures the shared region.
  const Design d = paper_example();
  ModuleGrouping mg;
  mg.groups = {{0, 1}, {2}};
  const SchemeEvaluation e =
      evaluate_module_grouping(d, mg, {100000, 100, 100});
  ASSERT_EQ(e.regions.size(), 2u);
  // Five configurations with distinct (A, B) mode pairs except confs 1/5
  // share... compute: signatures are (A3,B2),(A1,B1),(A3,B2),(A1,B2),
  // (A2,B2): conf1 and conf3 share a signature.
  EXPECT_EQ(e.regions[0].reconfig_pairs, 10u - 1u);
}

TEST(EvaluateModuleGrouping, RegionAreaIsLargestCombination) {
  const Design d = paper_example();
  ModuleGrouping mg;
  mg.groups = {{0, 1, 2}};  // everything in one region
  const SchemeEvaluation e =
      evaluate_module_grouping(d, mg, {100000, 100, 100});
  ASSERT_EQ(e.regions.size(), 1u);
  // Largest configuration: A1+B1+C1 = (650, 3, 0) vs others; element-wise
  // max over configs.
  EXPECT_EQ(e.regions[0].raw, d.largest_configuration_area());
}

TEST(EvaluateModuleGrouping, RejectsBadGroupings) {
  const Design d = paper_example();
  ModuleGrouping missing;
  missing.groups = {{0}, {1}};  // module 2 missing
  EXPECT_THROW(evaluate_module_grouping(d, missing, {100, 1, 1}),
               InternalError);
  ModuleGrouping dup;
  dup.groups = {{0, 1}, {1, 2}};
  EXPECT_THROW(evaluate_module_grouping(d, dup, {100, 1, 1}), InternalError);
}

TEST(EvaluateModuleGrouping, StaleRuleForAbsentGroups) {
  const Design d = testing::one_off_modules();
  // Group the two configurations' module sets separately: regions are
  // inactive in the "other" configuration, so no transitions reconfigure.
  ModuleGrouping mg;
  mg.groups = {{0, 1}, {2, 3, 4}};
  const SchemeEvaluation e =
      evaluate_module_grouping(d, mg, {100000, 100, 100});
  EXPECT_EQ(e.total_frames, 0u);
}

}  // namespace
}  // namespace prpart
