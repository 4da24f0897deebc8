// Robustness: the XML parser must never crash or hang on corrupted input —
// every mutated document either parses or raises ParseError. Seeded
// mutations keep the sweep reproducible.
#include <gtest/gtest.h>

#include "design/io_xml.hpp"
#include "synth/ip_library.hpp"
#include "tests/xml/mutate.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "xml/xml.hpp"

namespace prpart::xml {
namespace {

class XmlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

std::string base_document() {
  return design_to_xml(synth::wireless_receiver_design());
}

TEST_P(XmlFuzz, MutatedDocumentsParseOrThrowCleanly) {
  Rng rng(GetParam());
  const std::string base = base_document();
  for (int round = 0; round < 50; ++round) {
    const int edits = 1 + static_cast<int>(rng.below(8));
    const std::string doc = prpart::testing::mutate_bytes(rng, base, edits);
    try {
      const auto root = parse(doc);
      // Parsed XML may still violate the design schema.
      try {
        const Design d = design_from_xml(doc);
        (void)d;
      } catch (const Error&) {
        // ParseError / DesignError are the contract.
      }
    } catch (const ParseError&) {
      // expected for malformed bytes
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzz,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(XmlFuzz, DeepNestingDoesNotOverflowQuickly) {
  // 2000 levels of nesting: the recursive-descent parser must survive
  // (depth is bounded by input size; this guards against quadratic blowup
  // or premature limits).
  std::string doc;
  for (int i = 0; i < 2000; ++i) doc += "<a>";
  for (int i = 0; i < 2000; ++i) doc += "</a>";
  EXPECT_NO_THROW(parse(doc));
}

TEST(XmlFuzz, HugeAttributeValue) {
  const std::string doc =
      "<a v=\"" + std::string(1 << 20, 'x') + "\"/>";
  const auto root = parse(doc);
  EXPECT_EQ(root->attr("v").size(), std::size_t{1} << 20);
}

TEST(XmlFuzz, ManySiblings) {
  std::string doc = "<root>";
  for (int i = 0; i < 20000; ++i) doc += "<c/>";
  doc += "</root>";
  const auto root = parse(doc);
  EXPECT_EQ(root->children().size(), 20000u);
}

}  // namespace
}  // namespace prpart::xml
