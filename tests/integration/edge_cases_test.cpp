// Edge cases the module-level suites do not reach: designs wider than one
// bitset word (>64 modes / >64 configurations), degenerate areas, exact
// budget boundaries, and single-configuration systems.
#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "design/builder.hpp"
#include "design/io_xml.hpp"
#include "reconfig/controller.hpp"

namespace prpart {
namespace {

/// 18 modules x 4 modes = 72 modes (two bitset words); configurations pair
/// mode k of every module so each mode is used.
Design wide_mode_design() {
  DesignBuilder b("wide-modes");
  for (int m = 0; m < 18; ++m) {
    const std::string name = "M" + std::to_string(m);
    std::vector<Mode> modes;
    for (int k = 0; k < 4; ++k)
      modes.push_back(Mode{name + "." + std::to_string(k),
                           {static_cast<std::uint32_t>(40 + 10 * k), 0, 0}});
    b.module(name, modes);
  }
  for (int k = 0; k < 4; ++k) {
    std::vector<std::pair<std::string, std::string>> choices;
    for (int m = 0; m < 18; ++m) {
      const std::string name = "M" + std::to_string(m);
      choices.emplace_back(name, name + "." + std::to_string(k));
    }
    b.configuration(choices);
  }
  return b.build();
}

/// 2 modules, 70 configurations (>64, two occupancy words): module A picks
/// one of 7 modes, module B one of 10.
Design wide_config_design() {
  DesignBuilder b("wide-configs");
  std::vector<Mode> a_modes, b_modes;
  for (int k = 0; k < 7; ++k)
    a_modes.push_back(Mode{"A" + std::to_string(k),
                           {static_cast<std::uint32_t>(30 + k), 0, 0}});
  for (int k = 0; k < 10; ++k)
    b_modes.push_back(Mode{"B" + std::to_string(k),
                           {static_cast<std::uint32_t>(50 + k), 0, 0}});
  b.module("A", a_modes).module("B", b_modes);
  for (int i = 0; i < 7; ++i)
    for (int j = 0; j < 10; ++j)
      b.configuration({{"A", "A" + std::to_string(i)},
                       {"B", "B" + std::to_string(j)}});
  return b.build();
}

TEST(EdgeCases, WideModeDesignPartitions) {
  const Design d = wide_mode_design();
  EXPECT_EQ(d.mode_count(), 72u);
  PartitionerOptions opt;
  opt.search.max_move_evaluations = 300'000;
  opt.max_partition_modes = 4;  // avoid the 2^18 subset enumeration
  const PartitionerResult r = partition_design(d, {100000, 100, 100}, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proposed.eval.valid);
  // Room for everything separately: zero reconfiguration time reachable.
  EXPECT_EQ(r.proposed.eval.total_frames, 0u);
}

TEST(EdgeCases, WideModeDesignTightBudget) {
  const Design d = wide_mode_design();
  const ResourceVec lower = d.largest_configuration_area();
  PartitionerOptions opt;
  opt.search.max_move_evaluations = 300'000;
  opt.max_partition_modes = 4;
  const PartitionerResult r = partition_design(
      d, {lower.clbs + lower.clbs / 4, 10, 10}, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proposed.eval.fits);
  EXPECT_LE(r.proposed.eval.total_frames,
            r.single_region.eval.total_frames);
}

TEST(EdgeCases, WideConfigDesignPartitions) {
  const Design d = wide_config_design();
  EXPECT_EQ(d.configurations().size(), 70u);
  PartitionerOptions opt;
  opt.search.max_move_evaluations = 300'000;
  const PartitionerResult r = partition_design(d, {400, 10, 10}, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proposed.eval.valid);
  // 70 configurations -> C(70,2) = 2415 unordered pairs in the single
  // region baseline.
  EXPECT_EQ(r.single_region.eval.regions[0].reconfig_pairs, 2415u);
}

TEST(EdgeCases, WideConfigXmlRoundTrip) {
  const Design d = wide_config_design();
  const Design back = design_from_xml(design_to_xml(d));
  EXPECT_EQ(back.configurations().size(), 70u);
  EXPECT_EQ(back.mode_count(), d.mode_count());
}

TEST(EdgeCases, SingleConfigurationNeverReconfigures) {
  const Design d = DesignBuilder("one-config")
                       .module("A", {{"A1", {100, 2, 4}}})
                       .module("B", {{"B1", {200, 0, 0}}})
                       .configuration({{"A", "A1"}, {"B", "B1"}})
                       .build();
  const PartitionerResult r = partition_design(d, {400, 4, 8});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.proposed.eval.total_frames, 0u);
  EXPECT_EQ(r.proposed.eval.worst_frames, 0u);
  EXPECT_EQ(r.single_region.eval.total_frames, 0u);
  EXPECT_EQ(r.single_region.eval.worst_frames, 0u);
}

TEST(EdgeCases, ZeroAreaModesAreHarmless) {
  const Design d = DesignBuilder("ghost")
                       .module("A", {{"on", {100, 0, 0}}, {"off", {0, 0, 0}}})
                       .module("B", {{"B1", {50, 0, 0}}, {"B2", {60, 0, 0}}})
                       .configuration({{"A", "on"}, {"B", "B1"}})
                       .configuration({{"A", "off"}, {"B", "B2"}})
                       .configuration({{"B", "B1"}})
                       .build();
  const PartitionerResult r = partition_design(d, {200, 2, 2});
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proposed.eval.valid);
  ReconfigurationController ctl(d, r.proposed.eval);
  ctl.boot(0);
  ctl.transition(1);
  ctl.transition(2);
  ctl.transition(0);
  EXPECT_EQ(ctl.stats().transitions, 3u);
}

TEST(EdgeCases, BudgetExactlyAtSingletonFootprint) {
  const Design d = DesignBuilder("exact")
                       .module("A", {{"A1", {20, 0, 0}}, {"A2", {40, 0, 0}}})
                       .configuration({{"A", "A1"}})
                       .configuration({{"A", "A2"}})
                       .build();
  // Singleton footprints tile-rounded: 20 + 40 CLBs = 60 exactly.
  const PartitionerResult r = partition_design(d, {60, 0, 0});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.proposed.eval.total_frames, 0u);
  EXPECT_EQ(r.proposed.eval.total_resources.clbs, 60u);
  // One CLB less forces sharing.
  const PartitionerResult tight = partition_design(d, {59, 0, 0});
  ASSERT_TRUE(tight.feasible);
  EXPECT_GT(tight.proposed.eval.total_frames, 0u);
}

TEST(EdgeCases, ManyModesOneModule) {
  // A single module with 12 modes: everything is pairwise compatible, so
  // any grouping is legal; with room for the largest mode only, all modes
  // share one region (the modular == single-region degenerate case).
  DesignBuilder b("fat-module");
  std::vector<Mode> modes;
  for (int k = 0; k < 12; ++k)
    modes.push_back(Mode{"m" + std::to_string(k),
                         {static_cast<std::uint32_t>(100 + k * 10), 0, 0}});
  b.module("A", modes);
  for (int k = 0; k < 12; ++k)
    b.configuration({{"A", "m" + std::to_string(k)}});
  const Design d = b.build();
  const PartitionerResult r = partition_design(d, {220, 0, 0});
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proposed.eval.fits);
  EXPECT_EQ(r.proposed.eval.total_frames,
            r.single_region.eval.total_frames);
}

TEST(EdgeCases, DesignWithBramAndDspOnlyModes) {
  const Design d = DesignBuilder("hard-blocks")
                       .module("mem", {{"big", {0, 32, 0}}, {"small", {0, 8, 0}}})
                       .module("mul", {{"wide", {0, 0, 48}}, {"narrow", {0, 0, 16}}})
                       .configuration({{"mem", "big"}, {"mul", "narrow"}})
                       .configuration({{"mem", "small"}, {"mul", "wide"}})
                       .build();
  const PartitionerResult r = partition_design(d, {100, 40, 64});
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proposed.eval.valid);
}

}  // namespace
}  // namespace prpart
