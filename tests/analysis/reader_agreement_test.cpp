// design_from_xml and the analyzer read a document through one reader: the
// strict path throws exactly when the analyzer reports an error, and what
// it throws is the analyzer's first error diagnostic, position included.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/frontend.hpp"
#include "design/io_xml.hpp"
#include "design/synthetic.hpp"
#include "synth/ip_library.hpp"
#include "tests/xml/mutate.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace prpart::analysis {
namespace {

/// Against an unbounded budget no semantic check raises an error, so every
/// error diagnostic comes from the reader.
AnalysisOptions unbounded() {
  AnalysisOptions options;
  options.budget = ResourceVec{~0u, ~0u, ~0u};
  return options;
}

/// Returns whether the document is rejected, after checking both paths.
bool expect_agreement(const std::string& text) {
  const SourceAnalysis sa = analyze_design_source(text, unbounded());
  const Diagnostic* first = nullptr;
  for (const Diagnostic& d : sa.result.diagnostics)
    if (d.severity == Severity::Error) {
      first = &d;
      break;
    }
  EXPECT_EQ(sa.parsed.has_value(), first == nullptr) << text;
  try {
    (void)design_from_xml(text);
    EXPECT_EQ(first, nullptr)
        << "only the analyzer rejects: " << first->message << "\n" << text;
    return false;
  } catch (const ParseError& e) {
    EXPECT_NE(first, nullptr) << "only design_from_xml rejects: " << e.what()
                              << "\n" << text;
    if (first) {
      EXPECT_EQ(e.what(), first->message) << text;
      EXPECT_EQ(e.line(), first->span.line) << text;
      EXPECT_EQ(e.column(), first->span.column) << text;
    }
    return true;
  }
}

TEST(ReaderAgreement, FrontendDocuments) {
  const std::string head = "<design name=\"t\">\n";
  const std::string a = "  <module name=\"A\"><mode name=\"M1\" clbs=\"10\"/>"
                        "</module>\n";
  const std::string use_a =
      "    <configuration><use module=\"A\" mode=\"M1\"/></configuration>\n";
  const std::string configs_a =
      "  <configurations>\n" + use_a + "  </configurations>\n";
  const std::string tail = "</design>\n";
  const std::vector<std::string> rejected = {
      "<design>\n  <oops\n",
      "<designs>\n</designs>\n",
      head + "  <module>\n    <mode name=\"M1\" clbs=\"10\"/>\n  </module>\n" +
          configs_a + tail,
      head + "  <module name=\"A\">\n    <mode name=\"M1\" clbs=\"lots\"/>\n"
             "  </module>\n" + configs_a + tail,
      head + "  <static clbs=\"99999999999\"/>\n" + a + configs_a + tail,
      head + a + "  <module name=\"A\"><mode name=\"M2\" clbs=\"20\"/>"
                 "</module>\n" + configs_a + tail,
      head + "  <module name=\"A\">\n    <mode name=\"M1\" clbs=\"10\"/>\n"
             "    <mode name=\"M1\" clbs=\"20\"/>\n  </module>\n" +
          configs_a + tail,
      head + a + "  <module name=\"B\"></module>\n" + configs_a + tail,
      head + configs_a + tail,
      head + a + tail,
      head + a + "  <configurations>\n" + use_a +
          "    <configuration name=\"Idle\"></configuration>\n"
          "  </configurations>\n" + tail,
      head + a + "  <configurations>\n    <configuration><use module=\"Z\" "
                 "mode=\"M1\"/></configuration>\n  </configurations>\n" + tail,
      head + a + "  <configurations>\n    <configuration><use module=\"A\" "
                 "mode=\"M9\"/></configuration>\n  </configurations>\n" + tail,
      head + "  <module name=\"A\">\n    <mode name=\"M1\" clbs=\"10\"/>\n"
             "    <mode name=\"M2\" clbs=\"20\"/>\n  </module>\n"
             "  <configurations>\n    <configuration>\n"
             "      <use module=\"A\" mode=\"M1\"/>\n"
             "      <use module=\"A\" mode=\"M2\"/>\n    </configuration>\n"
             "  </configurations>\n" + tail,
      head + a + "  <configurations>\n    <configuration name=\"C1\"><use "
                 "module=\"A\" mode=\"M1\"/></configuration>\n"
                 "    <configuration name=\"C2\"><use module=\"A\" "
                 "mode=\"M1\"/></configuration>\n  </configurations>\n" + tail,
      head + "  <module name=\"A\"><mode name=\"M1\" clbs=\"bad\"/></module>\n"
             "  <module name=\"B\"></module>\n  <configurations>\n"
             "    <configuration><use module=\"Z\" mode=\"M1\"/>"
             "</configuration>\n  </configurations>\n" + tail,
  };
  for (const std::string& text : rejected) EXPECT_TRUE(expect_agreement(text));
  EXPECT_FALSE(expect_agreement(head + a + configs_a + tail));
}

TEST(ReaderAgreement, FuzzSeeds) {
  // The XmlFuzz sweep's documents: 10 seeds x 50 byte-mutated receivers.
  const std::string base = design_to_xml(synth::wireless_receiver_design());
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    for (int round = 0; round < 50; ++round) {
      const int edits = 1 + static_cast<int>(rng.below(8));
      expect_agreement(prpart::testing::mutate_bytes(rng, base, edits));
    }
  }
}

/// The `n`-th (mod count) occurrence of `from` in `doc`, or npos.
std::size_t nth(const std::string& doc, const std::string& from,
                std::uint64_t n) {
  std::vector<std::size_t> at;
  for (std::size_t p = doc.find(from); p != std::string::npos;
       p = doc.find(from, p + 1))
    at.push_back(p);
  return at.empty() ? std::string::npos : at[n % at.size()];
}

/// One schema-level edit of a serialised design: every input rule the
/// reader and Design check, plus edits that keep the document valid.
std::string mutate_schema(Rng& rng, std::string doc) {
  struct Edit {
    std::string from, to;
  };
  static const std::vector<Edit> kReplace = {
      {"<use module=\"", "<use module=\"Z"},      // unknown-module-ref
      {"\" mode=\"", "\" mode=\"Z"},              // unknown-mode-ref
      {"clbs=\"", "clbs=\"4294967"},              // beyond 32 bits
      {"brams=\"", "brams=\"x"},                  // not a number
      {"dsps=\"", "dsps=\"-"},                    // negative
      {"<mode name=\"", "<mode name=\"\" was=\""},     // nameless mode
      {"<module name=\"", "<module was=\""},           // nameless module
      {"</configuration>", "<use module=\"A\"/></configuration>"},
      {"<configurations>",
       "<configurations><configuration name=\"e\"></configuration>"},
      {"<configurations>", "<module name=\"E\"></module><configurations>"},
      {"<configuration name=\"", "<configuration name=\"\" was=\""},
      {"clbs=\"", "clbs=\"4294967295\" was=\""},  // resource-overflow
      {"<design ", "<designs "},
  };
  // Elements to duplicate in place: duplicate module, mode, configuration
  // and module use.
  static const std::vector<Edit> kCopy = {
      {"<module ", "</module>"},
      {"<mode ", "/>"},
      {"<configuration ", "</configuration>"},
      {"<use ", "/>"},
  };
  if (rng.below(3) != 0) {
    const Edit& e = kReplace[rng.below(kReplace.size())];
    const std::size_t at = nth(doc, e.from, rng.next());
    if (at != std::string::npos) doc.replace(at, e.from.size(), e.to);
  } else {
    const Edit& e = kCopy[rng.below(kCopy.size())];
    const std::size_t at = nth(doc, e.from, rng.next());
    const std::size_t close =
        at == std::string::npos ? at : doc.find(e.to, at);
    if (close == std::string::npos) return doc;
    const std::size_t end = close + e.to.size();
    doc.insert(end, doc.substr(at, end - at));
  }
  return doc;
}

TEST(ReaderAgreement, MutatedGeneratedDesigns) {
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(seed);
    const std::string base = design_to_xml(
        generate_synthetic(rng, static_cast<CircuitClass>(seed % 4)).design);
    for (int round = 0; round < 30; ++round) {
      std::string doc = base;
      const std::uint64_t edits = 1 + rng.below(3);
      for (std::uint64_t e = 0; e < edits; ++e) doc = mutate_schema(rng, doc);
      ++(expect_agreement(doc) ? rejected : accepted);
    }
  }
  // The sweep exercises both outcomes.
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(accepted, 10u);
}

}  // namespace
}  // namespace prpart::analysis
