#include "design/design.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "design/builder.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

Design small_design() {
  return DesignBuilder("small")
      .static_base({90, 8, 0})
      .module("A", {{"A1", {100, 0, 2}}, {"A2", {200, 1, 0}}})
      .module("B", {{"B1", {50, 0, 0}}})
      .configuration({{"A", "A1"}, {"B", "B1"}})
      .configuration({{"A", "A2"}})
      .build();
}

TEST(Design, GlobalModeIndexing) {
  const Design d = small_design();
  EXPECT_EQ(d.mode_count(), 3u);
  EXPECT_EQ(d.global_mode_id(0, 1), 0u);
  EXPECT_EQ(d.global_mode_id(0, 2), 1u);
  EXPECT_EQ(d.global_mode_id(1, 1), 2u);
  EXPECT_EQ(d.mode_ref(0), (ModeRef{0, 1}));
  EXPECT_EQ(d.mode_ref(2), (ModeRef{1, 1}));
  EXPECT_EQ(d.mode_label(1), "A2");
  EXPECT_EQ(d.mode_area(1), ResourceVec(200, 1, 0));
}

TEST(Design, CopyOutlivesTheOriginal) {
  // Mode labels are looked up in the copy's own modules, never in the
  // design it was copied from.
  std::optional<Design> original(small_design());
  const Design copy = *original;
  original.reset();
  EXPECT_EQ(copy.mode_label(0), "A1");
  EXPECT_EQ(copy.mode_label(2), "B1");
}

TEST(Design, ConfigModesAsBitsets) {
  const Design d = small_design();
  EXPECT_TRUE(d.config_modes(0).test(0));
  EXPECT_TRUE(d.config_modes(0).test(2));
  EXPECT_FALSE(d.config_modes(0).test(1));
  // Second configuration: A2 only, B absent (mode 0).
  EXPECT_TRUE(d.config_modes(1).test(1));
  EXPECT_EQ(d.config_modes(1).count(), 1u);
}

TEST(Design, ConfigArea) {
  const Design d = small_design();
  EXPECT_EQ(d.config_area(0), ResourceVec(150, 0, 2));
  EXPECT_EQ(d.config_area(1), ResourceVec(200, 1, 0));
}

TEST(Design, LargestConfigurationIsElementwise) {
  const Design d = small_design();
  // max(150,200) CLBs, max(0,1) BRAMs, max(2,0) DSPs.
  EXPECT_EQ(d.largest_configuration_area(), ResourceVec(200, 1, 2));
}

TEST(Design, FullStaticArea) {
  const Design d = small_design();
  EXPECT_EQ(d.full_static_area(), ResourceVec(350, 1, 2));
}

TEST(Design, ModeUsed) {
  const Design d = DesignBuilder("x")
                       .module("A", {{"A1", {10, 0, 0}}, {"A2", {20, 0, 0}}})
                       .configuration({{"A", "A1"}})
                       .build();
  EXPECT_TRUE(d.mode_used(0));
  EXPECT_FALSE(d.mode_used(1));  // A2 never appears: dead mode
}

TEST(Design, ValidationRejectsNoModules) {
  EXPECT_THROW(Design("x", {}, {}, {Configuration{"c", {}}}), DesignError);
}

TEST(Design, ValidationRejectsNoConfigurations) {
  EXPECT_THROW(Design("x", {}, {Module{"A", {{"A1", {1, 0, 0}}}}}, {}),
               DesignError);
}

TEST(Design, ValidationRejectsDuplicateModuleNames) {
  EXPECT_THROW(DesignBuilder("x")
                   .module("A", {{"A1", {1, 0, 0}}})
                   .module("A", {{"A2", {1, 0, 0}}})
                   .configuration({{"A", "A1"}})
                   .build(),
               DesignError);
}

TEST(Design, ValidationRejectsDuplicateModeNames) {
  EXPECT_THROW(DesignBuilder("x")
                   .module("A", {{"A1", {1, 0, 0}}, {"A1", {2, 0, 0}}})
                   .configuration({{"A", "A1"}})
                   .build(),
               DesignError);
}

TEST(Design, ValidationRejectsEmptyConfiguration) {
  Configuration empty{"none", {0}};
  EXPECT_THROW(Design("x", {}, {Module{"A", {{"A1", {1, 0, 0}}}}}, {empty}),
               DesignError);
}

TEST(Design, ValidationRejectsOutOfRangeMode) {
  Configuration bad{"bad", {2}};
  EXPECT_THROW(Design("x", {}, {Module{"A", {{"A1", {1, 0, 0}}}}}, {bad}),
               DesignError);
}

TEST(Design, ValidationRejectsWrongArity) {
  Configuration bad{"bad", {1, 1}};
  EXPECT_THROW(Design("x", {}, {Module{"A", {{"A1", {1, 0, 0}}}}}, {bad}),
               DesignError);
}

TEST(Design, ValidationRejectsDuplicateConfigurations) {
  Configuration c1{"c1", {1}};
  Configuration c2{"c2", {1}};
  EXPECT_THROW(
      Design("x", {}, {Module{"A", {{"A1", {1, 0, 0}}}}}, {c1, c2}),
      DesignError);
}

TEST(Design, ModuleWithNoModesRejected) {
  EXPECT_THROW(
      Design("x", {}, {Module{"A", {}}}, {Configuration{"c", {0}}}),
      DesignError);
}

}  // namespace
}  // namespace prpart
