#include "analysis/frontend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace prpart::analysis {
namespace {

const Diagnostic* find_code(const SourceAnalysis& sa, const std::string& code) {
  for (const Diagnostic& d : sa.result.diagnostics)
    if (d.code == code) return &d;
  return nullptr;
}

std::size_t count_errors(const SourceAnalysis& sa) {
  return sa.result.count(Severity::Error);
}

/// Every error-severity diagnostic must be traceable to the input.
void expect_error_spans_known(const SourceAnalysis& sa) {
  for (const Diagnostic& d : sa.result.diagnostics) {
    if (d.severity == Severity::Error) {
      EXPECT_TRUE(d.span.known()) << d.code << ": " << d.message;
    }
  }
}

TEST(FrontendTest, MalformedXmlIsAnErrorDiagnosticWithASpan) {
  const SourceAnalysis sa = analyze_design_source("<design>\n  <oops\n");
  ASSERT_TRUE(sa.has_errors());
  EXPECT_FALSE(sa.parsed.has_value());
  const Diagnostic* d = find_code(sa, "xml-error");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("XML parse error"), std::string::npos);
  expect_error_spans_known(sa);
}

TEST(FrontendTest, WrongRootElementIsAnError) {
  const SourceAnalysis sa = analyze_design_source("<designs>\n</designs>\n");
  const Diagnostic* d = find_code(sa, "xml-error");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("expected <design>"), std::string::npos);
  EXPECT_EQ(d->span.line, 1u);
}

TEST(FrontendTest, ModuleWithoutANameIsMissingAttribute) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module>\n"
      "    <mode name=\"M1\" clbs=\"10\"/>\n"
      "  </module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"M1\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "missing-attribute");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 2u);
  EXPECT_EQ(d->fixit, "add name=\"...\"");
  // The nameless module cannot be referenced either.
  EXPECT_NE(find_code(sa, "unknown-module-ref"), nullptr);
  expect_error_spans_known(sa);
}

TEST(FrontendTest, NonNumericResourceIsBadAttribute) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\">\n"
      "    <mode name=\"M1\" clbs=\"lots\"/>\n"
      "  </module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"M1\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "bad-attribute");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 3u);
  EXPECT_NE(d->message.find("clbs=\"lots\""), std::string::npos);
}

TEST(FrontendTest, ResourceBeyond32BitsIsBadAttribute) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <static clbs=\"99999999999\"/>\n"
      "  <module name=\"A\"><mode name=\"M1\" clbs=\"10\"/></module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"M1\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "bad-attribute");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 2u);
}

TEST(FrontendTest, ResourceTotalBeyond32BitsIsResourceOverflow) {
  // Each count fits 32 bits; the static logic plus the modes, in whole
  // tiles, does not. The error sits on the mode that crosses the limit.
  const std::string text =
      "<design name=\"t\">\n"
      "  <static clbs=\"100\"/>\n"
      "  <module name=\"A\">\n"
      "    <mode name=\"M1\" clbs=\"10\"/>\n"
      "    <mode name=\"M2\" clbs=\"4294967190\"/>\n"
      "  </module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"M1\"/></configuration>\n"
      "    <configuration><use module=\"A\" mode=\"M2\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  EXPECT_FALSE(sa.parsed.has_value());
  const Diagnostic* d = find_code(sa, "resource-overflow");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->span.line, 5u);
  EXPECT_EQ(d->message,
            "mode 'M2' of module 'A' brings the design's tile-rounded CLB "
            "total (static logic plus every mode) to 4294967320, above the "
            "32-bit limit 4294967295");
  // One count short of the limit in whole tiles builds: 100 + 20 +
  // 4294967160 = 4294967280.
  std::string fits = text;
  fits.replace(fits.find("4294967190"), 10, "4294967160");
  EXPECT_TRUE(analyze_design_source(fits).parsed.has_value());
}

TEST(FrontendTest, DuplicateModuleNameIsAnError) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\"><mode name=\"M1\" clbs=\"10\"/></module>\n"
      "  <module name=\"A\"><mode name=\"M2\" clbs=\"20\"/></module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"M1\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "duplicate-module");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 3u);
}

TEST(FrontendTest, DuplicateModeNameIsAnError) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\">\n"
      "    <mode name=\"M1\" clbs=\"10\"/>\n"
      "    <mode name=\"M1\" clbs=\"20\"/>\n"
      "  </module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"M1\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "duplicate-mode");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 4u);
}

TEST(FrontendTest, ModuleWithoutModesIsAnError) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\"><mode name=\"M1\" clbs=\"10\"/></module>\n"
      "  <module name=\"B\"></module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"M1\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "empty-module");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 3u);
}

TEST(FrontendTest, DesignWithoutModulesIsAnError) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"M1\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  EXPECT_NE(find_code(sa, "no-modules"), nullptr);
  EXPECT_NE(find_code(sa, "unknown-module-ref"), nullptr);
}

TEST(FrontendTest, DesignWithoutConfigurationsIsAnError) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\"><mode name=\"M1\" clbs=\"10\"/></module>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "no-configurations");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->span.known());
}

TEST(FrontendTest, ConfigurationWithoutUsesIsAnError) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\"><mode name=\"M1\" clbs=\"10\"/></module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"M1\"/></configuration>\n"
      "    <configuration name=\"Idle\"></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "empty-configuration");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 5u);
  EXPECT_NE(d->message.find("'Idle'"), std::string::npos);
}

TEST(FrontendTest, UnknownModuleReferenceIsAnError) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\"><mode name=\"M1\" clbs=\"10\"/></module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"Z\" mode=\"M1\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "unknown-module-ref");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 4u);
  EXPECT_NE(d->message.find("'Z'"), std::string::npos);
}

TEST(FrontendTest, UnknownModeReferenceIsAnError) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\"><mode name=\"M1\" clbs=\"10\"/></module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"M9\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "unknown-mode-ref");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 4u);
  EXPECT_EQ(d->fixit, "declare the mode or fix the reference");
}

TEST(FrontendTest, ModuleAssignedTwiceInOneConfigurationIsAnError) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\">\n"
      "    <mode name=\"M1\" clbs=\"10\"/>\n"
      "    <mode name=\"M2\" clbs=\"20\"/>\n"
      "  </module>\n"
      "  <configurations>\n"
      "    <configuration>\n"
      "      <use module=\"A\" mode=\"M1\"/>\n"
      "      <use module=\"A\" mode=\"M2\"/>\n"
      "    </configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "duplicate-module-use");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 9u);
}

TEST(FrontendTest, DuplicateConfigurationsAreAnError) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\"><mode name=\"M1\" clbs=\"10\"/></module>\n"
      "  <configurations>\n"
      "    <configuration name=\"C1\"><use module=\"A\" mode=\"M1\"/>"
      "</configuration>\n"
      "    <configuration name=\"C2\"><use module=\"A\" mode=\"M1\"/>"
      "</configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  const Diagnostic* d = find_code(sa, "duplicate-config");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 5u);
  EXPECT_NE(d->message.find("'C2'"), std::string::npos);
  EXPECT_NE(d->message.find("'C1'"), std::string::npos);
}

TEST(FrontendTest, TheWalkIsTolerantAndCollectsEveryError) {
  // One document, three independent problems: all reported in one pass.
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\"><mode name=\"M1\" clbs=\"bad\"/></module>\n"
      "  <module name=\"B\"></module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"Z\" mode=\"M1\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  EXPECT_FALSE(sa.parsed.has_value());
  EXPECT_GE(count_errors(sa), 3u);
  EXPECT_NE(find_code(sa, "bad-attribute"), nullptr);
  EXPECT_NE(find_code(sa, "empty-module"), nullptr);
  EXPECT_NE(find_code(sa, "unknown-module-ref"), nullptr);
  expect_error_spans_known(sa);
}

TEST(FrontendTest, CleanSourceBuildsTheDesignAndRunsSemanticChecks) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <static clbs=\"90\" brams=\"8\"/>\n"
      "  <module name=\"A\">\n"
      "    <mode name=\"A1\" clbs=\"100\"/>\n"
      "    <mode name=\"A2\" clbs=\"200\"/>\n"
      "  </module>\n"
      "  <module name=\"B\"><mode name=\"B1\" clbs=\"50\"/></module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"A1\"/>"
      "<use module=\"B\" mode=\"B1\"/></configuration>\n"
      "    <configuration><use module=\"A\" mode=\"A1\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  const SourceAnalysis sa = analyze_design_source(text);
  EXPECT_FALSE(sa.has_errors());
  ASSERT_TRUE(sa.parsed.has_value());
  EXPECT_EQ(sa.parsed->design.name(), "t");

  // Semantic findings point back into the source: the dead mode A2 is
  // declared on line 5.
  const Diagnostic* dead = find_code(sa, "dead-mode");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->span.line, 5u);
}

TEST(FrontendTest, ExplicitBudgetReachesTheSemanticChecks) {
  const std::string text =
      "<design name=\"t\">\n"
      "  <module name=\"A\"><mode name=\"A1\" clbs=\"5000\"/></module>\n"
      "  <configurations>\n"
      "    <configuration><use module=\"A\" mode=\"A1\"/></configuration>\n"
      "  </configurations>\n"
      "</design>\n";
  AnalysisOptions options;
  options.budget = ResourceVec{100, 0, 0};
  const SourceAnalysis sa = analyze_design_source(text, options);
  ASSERT_TRUE(sa.result.proof.has_value());
  EXPECT_EQ(sa.result.proof->target, "budget");
  EXPECT_NE(find_code(sa, "infeasible"), nullptr);
}

}  // namespace
}  // namespace prpart::analysis
