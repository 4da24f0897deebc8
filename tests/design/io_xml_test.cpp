#include "design/io_xml.hpp"

#include <gtest/gtest.h>

#include "design/builder.hpp"
#include "synth/ip_library.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

const char* kSample = R"(<?xml version="1.0"?>
<design name="example">
  <static clbs="90" brams="8"/>
  <module name="A">
    <mode name="A1" clbs="100" dsps="2"/>
    <mode name="A2" clbs="250" brams="1" dsps="4"/>
  </module>
  <module name="B">
    <mode name="B1" clbs="300"/>
  </module>
  <configurations>
    <configuration name="c1">
      <use module="A" mode="A1"/>
      <use module="B" mode="B1"/>
    </configuration>
    <configuration name="c2">
      <use module="A" mode="A2"/>
    </configuration>
  </configurations>
</design>
)";

TEST(DesignXml, ParsesSampleDocument) {
  const Design d = design_from_xml(kSample);
  EXPECT_EQ(d.name(), "example");
  EXPECT_EQ(d.static_base(), ResourceVec(90, 8, 0));
  ASSERT_EQ(d.modules().size(), 2u);
  EXPECT_EQ(d.modules()[0].modes[0].area, ResourceVec(100, 0, 2));
  EXPECT_EQ(d.modules()[0].modes[1].area, ResourceVec(250, 1, 4));
  ASSERT_EQ(d.configurations().size(), 2u);
  EXPECT_EQ(d.configurations()[0].mode_of_module,
            (std::vector<std::uint32_t>{1, 1}));
  EXPECT_EQ(d.configurations()[1].mode_of_module,
            (std::vector<std::uint32_t>{2, 0}));
}

TEST(DesignXml, RoundTripsBuilderDesign) {
  const Design original = DesignBuilder("rt")
                              .static_base({10, 0, 1})
                              .module("X", {{"X1", {1, 2, 3}}, {"X2", {4, 5, 6}}})
                              .module("Y", {{"Y1", {7, 8, 9}}})
                              .configuration({{"X", "X1"}, {"Y", "Y1"}})
                              .configuration({{"X", "X2"}})
                              .build();
  const Design reparsed = design_from_xml(design_to_xml(original));
  EXPECT_EQ(reparsed.name(), original.name());
  EXPECT_EQ(reparsed.static_base(), original.static_base());
  ASSERT_EQ(reparsed.modules().size(), original.modules().size());
  for (std::size_t m = 0; m < original.modules().size(); ++m) {
    EXPECT_EQ(reparsed.modules()[m].name, original.modules()[m].name);
    ASSERT_EQ(reparsed.modules()[m].modes.size(),
              original.modules()[m].modes.size());
    for (std::size_t k = 0; k < original.modules()[m].modes.size(); ++k)
      EXPECT_EQ(reparsed.modules()[m].modes[k].area,
                original.modules()[m].modes[k].area);
  }
  ASSERT_EQ(reparsed.configurations().size(),
            original.configurations().size());
  for (std::size_t c = 0; c < original.configurations().size(); ++c)
    EXPECT_EQ(reparsed.configurations()[c].mode_of_module,
              original.configurations()[c].mode_of_module);
}

TEST(DesignXml, RoundTripsCaseStudy) {
  const Design original = synth::wireless_receiver_design();
  const Design reparsed = design_from_xml(design_to_xml(original));
  EXPECT_EQ(reparsed.mode_count(), original.mode_count());
  EXPECT_EQ(reparsed.configurations().size(),
            original.configurations().size());
  EXPECT_EQ(reparsed.largest_configuration_area(),
            original.largest_configuration_area());
  // Serialisation is a fixed point.
  EXPECT_EQ(design_to_xml(reparsed), design_to_xml(original));
}

TEST(DesignXml, RejectsWrongRoot) {
  EXPECT_THROW(design_from_xml("<notdesign/>"), ParseError);
}

TEST(DesignXml, RejectsUnknownModuleReference) {
  const char* doc = R"(<design>
    <module name="A"><mode name="A1" clbs="1"/></module>
    <configurations>
      <configuration><use module="Z" mode="A1"/></configuration>
    </configurations>
  </design>)";
  EXPECT_THROW(design_from_xml(doc), ParseError);
}

TEST(DesignXml, RejectsUnknownModeReference) {
  const char* doc = R"(<design>
    <module name="A"><mode name="A1" clbs="1"/></module>
    <configurations>
      <configuration><use module="A" mode="A9"/></configuration>
    </configurations>
  </design>)";
  EXPECT_THROW(design_from_xml(doc), ParseError);
}

TEST(DesignXml, RejectsDoubleAssignment) {
  const char* doc = R"(<design>
    <module name="A"><mode name="A1" clbs="1"/><mode name="A2" clbs="2"/></module>
    <configurations>
      <configuration>
        <use module="A" mode="A1"/>
        <use module="A" mode="A2"/>
      </configuration>
    </configurations>
  </design>)";
  EXPECT_THROW(design_from_xml(doc), ParseError);
}

TEST(DesignXml, RejectsResourceCountBeyond32BitsAtItsElement) {
  // 4294967396 = 2^32 + 100 must not be read as 100 CLBs.
  const char* doc = R"(<design>
    <module name="A">
      <mode name="A1" clbs="4294967396"/>
    </module>
    <configurations>
      <configuration><use module="A" mode="A1"/></configuration>
    </configurations>
  </design>)";
  try {
    design_from_xml(doc);
    FAIL() << "a resource count beyond 32 bits was accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 7u);
    EXPECT_STREQ(e.what(),
                 "mode 'A1' of module 'A' has an invalid clbs=\"4294967396\"");
  }
}

TEST(DesignXml, MissingConfigurationsRejected) {
  EXPECT_THROW(
      design_from_xml(
          R"(<design><module name="A"><mode name="A1" clbs="1"/></module></design>)"),
      ParseError);
}

}  // namespace
}  // namespace prpart
