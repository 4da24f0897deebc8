#include "design/design.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

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

/// The one problem a design whose tile-rounded totals overflow reports.
DesignProblem overflow_problem(ResourceVec static_base,
                               std::vector<Mode> modes) {
  const std::size_t n = modes.size();
  std::vector<Configuration> configs;
  for (std::uint32_t k = 1; k <= n; ++k)
    configs.push_back({"c" + std::to_string(k), {k}});
  try {
    Design("x", static_base, {Module{"A", std::move(modes)}}, configs);
  } catch (const DesignRuleError& e) {
    EXPECT_EQ(e.problems().size(), 1u);
    return e.problems().front();
  }
  ADD_FAILURE() << "design built";
  return {};
}

TEST(Design, ValidationRejectsResourceTotalsBeyond32Bits) {
  // 4294967295 CLBs is a legal count, but 4294967300 in whole tiles.
  const DesignProblem mode =
      overflow_problem({}, {{"Big", {4294967295u, 0, 0}}, {"S", {10, 0, 0}}});
  EXPECT_EQ(mode.code, "resource-overflow");
  EXPECT_EQ(mode.element, DesignProblem::Element::Mode);
  EXPECT_EQ(mode.index, 0u);

  // Each of these fits alone; the second mode crosses the BRAM limit.
  const DesignProblem sum = overflow_problem(
      {0, 4, 0}, {{"M1", {0, 4294967200u, 0}}, {"M2", {0, 100, 0}}});
  EXPECT_EQ(sum.element, DesignProblem::Element::Mode);
  EXPECT_EQ(sum.index, 1u);
  EXPECT_NE(sum.message.find("BRAM total"), std::string::npos) << sum.message;

  // The static logic alone: reported on the design.
  const DesignProblem base =
      overflow_problem({0, 0, 4294967295u}, {{"M1", {1, 0, 0}}});
  EXPECT_EQ(base.element, DesignProblem::Element::Design);
  EXPECT_EQ(base.message.rfind("the static logic brings", 0), 0u)
      << base.message;

  // Within the limit in whole tiles still builds: 4294967280 + 8 DSPs is
  // 4294967288 (DSP tiles hold 8).
  EXPECT_NO_THROW(Design("x", {0, 0, 4294967280u},
                         {Module{"A", {{"M1", {0, 0, 8}}}}},
                         {Configuration{"c", {1}}}));
  // 4294967280 CLBs is the largest whole-tile CLB total (20 does not
  // divide 2^32); the rule admits it, alone or as two modules' sum.
  EXPECT_NO_THROW(Design("x", {}, {Module{"A", {{"M1", {4294967280u, 0, 0}}}}},
                         {Configuration{"c", {1}}}));
  EXPECT_NO_THROW(Design("x", {},
                         {Module{"A", {{"A1", {2147483640u, 0, 0}}}},
                          Module{"B", {{"B1", {2147483640u, 0, 0}}}}},
                         {Configuration{"c", {1, 1}}}));
}

}  // namespace
}  // namespace prpart
