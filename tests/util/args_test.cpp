#include "util/args.hpp"

#include <gtest/gtest.h>

#include "util/status.hpp"

namespace prpart {
namespace {

TEST(Args, SeparatesPositionalsAndOptions) {
  const Args a({"partition", "design.xml", "--device", "XC5VFX70T"}, {});
  EXPECT_EQ(a.positionals(),
            (std::vector<std::string>{"partition", "design.xml"}));
  EXPECT_EQ(a.value("device"), "XC5VFX70T");
  EXPECT_TRUE(a.has("device"));
  EXPECT_FALSE(a.has("budget"));
}

TEST(Args, SwitchesTakeNoValue) {
  const Args a({"partition", "--floorplan", "design.xml"}, {"floorplan"});
  EXPECT_TRUE(a.has("floorplan"));
  EXPECT_EQ(a.positionals().size(), 2u);
  EXPECT_EQ(a.positionals()[1], "design.xml");
}

TEST(Args, ValueOrAndU64Or) {
  const Args a({"--steps", "500"}, {});
  EXPECT_EQ(a.u64_or("steps", 10), 500u);
  EXPECT_EQ(a.u64_or("seed", 10), 10u);
  EXPECT_EQ(a.value_or("class", "logic"), "logic");
}

TEST(Args, MissingValueThrows) {
  // Reported when the value is read or the option is checked, not at
  // parse time (see UnknownTrailingOptionIsReportedAsUnknown).
  const Args a({"--device"}, {});
  EXPECT_TRUE(a.has("device"));
  EXPECT_THROW(a.value("device"), ParseError);
  EXPECT_THROW(a.u64_or("device", 1), ParseError);
  EXPECT_THROW(a.check_known({"device"}), ParseError);
}

/// The message check_known throws for `a`, or "" when it accepts.
std::string check_known_error(const Args& a,
                              const std::vector<std::string>& known) {
  try {
    a.check_known(known);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(Args, UnknownTrailingOptionIsReportedAsUnknown) {
  const Args a({"serve", "--legacy-io"}, {});
  EXPECT_EQ(check_known_error(a, {"port"}), "unknown option --legacy-io");
  // A known trailing option lacks its value.
  const Args b({"serve", "--port"}, {});
  EXPECT_EQ(check_known_error(b, {"port"}), "option --port expects a value");
}

TEST(Args, UnknownOptionSwallowingAPositionalIsReportedAsUnknown) {
  // `--bogus` takes `d.xml` as its value, so the design file seems to be
  // missing; check_known names the real mistake.
  const Args a({"partition", "--bogus", "d.xml"}, {});
  EXPECT_EQ(a.positionals().size(), 1u);
  EXPECT_EQ(check_known_error(a, {"device"}), "unknown option --bogus");
}

TEST(Args, StrayDashesThrow) {
  EXPECT_THROW(Args({"--"}, {}), ParseError);
}

TEST(Args, CheckKnownRejectsTypos) {
  const Args a({"--devcie", "X"}, {});
  EXPECT_THROW(a.check_known({"device"}), ParseError);
  const Args b({"--device", "X"}, {});
  EXPECT_NO_THROW(b.check_known({"device"}));
}

TEST(Args, NonNumericU64Throws) {
  const Args a({"--steps", "abc"}, {});
  EXPECT_THROW(a.u64_or("steps", 1), ParseError);
}

}  // namespace
}  // namespace prpart
