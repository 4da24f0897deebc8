#include "core/clustering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "design/synthetic.hpp"
#include "oracle/clustering_reference.hpp"
#include "device/tiles.hpp"
#include "tests/core/example_designs.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

using testing::one_off_modules;
using testing::paper_example;

/// label -> frequency weight map for comparisons against Table I.
std::map<std::string, std::uint32_t> as_map(
    const Design& design, const std::vector<BasePartition>& partitions) {
  std::map<std::string, std::uint32_t> out;
  for (const BasePartition& p : partitions) {
    std::vector<std::string> names;
    for (std::size_t m : p.modes.bits()) names.push_back(design.mode_label(m));
    std::sort(names.begin(), names.end());
    std::string key;
    for (const std::string& n : names) key += n + ",";
    out[key] = p.frequency_weight;
  }
  return out;
}

TEST(Clustering, PaperExampleReproducesTable1) {
  const Design d = paper_example();
  const ConnectivityMatrix m(d);
  const auto partitions = enumerate_base_partitions(d, m);

  // Table I has exactly 26 base partitions: 8 singletons, 13 pairs, 5
  // triples (the configurations themselves).
  EXPECT_EQ(partitions.size(), 26u);
  std::size_t singles = 0, pairs = 0, triples = 0;
  for (const BasePartition& p : partitions) {
    switch (p.modes.count()) {
      case 1: ++singles; break;
      case 2: ++pairs; break;
      case 3: ++triples; break;
      default: FAIL() << "unexpected partition size " << p.modes.count();
    }
  }
  EXPECT_EQ(singles, 8u);
  EXPECT_EQ(pairs, 13u);
  EXPECT_EQ(triples, 5u);

  const auto got = as_map(d, partitions);
  // Spot-check Table I entries (frequency weights).
  EXPECT_EQ(got.at("A2,"), 1u);
  EXPECT_EQ(got.at("B2,"), 4u);
  EXPECT_EQ(got.at("A1,"), 2u);
  EXPECT_EQ(got.at("A3,B2,"), 2u);
  EXPECT_EQ(got.at("B2,C3,"), 2u);
  EXPECT_EQ(got.at("A1,B1,"), 1u);
  EXPECT_EQ(got.at("A2,C3,"), 1u);
  EXPECT_EQ(got.at("A3,B2,C3,"), 1u);
  EXPECT_EQ(got.at("A1,B1,C1,"), 1u);
  EXPECT_EQ(got.at("A1,B2,C2,"), 1u);
  EXPECT_EQ(got.at("A2,B2,C3,"), 1u);
  EXPECT_EQ(got.at("A3,B2,C1,"), 1u);

  // The paper's exclusion: {A1,B2,C1} is a clique in the co-occurrence
  // graph (A1B2, B2C1, A1C1 all have weight 1) but never co-occurs as a
  // set, so it must NOT be a base partition.
  EXPECT_EQ(got.count("A1,B2,C1,"), 0u);
}

TEST(Clustering, KEdgesFieldMatchesSize) {
  const Design d = paper_example();
  const ConnectivityMatrix m(d);
  for (const BasePartition& p : enumerate_base_partitions(d, m)) {
    const std::size_t n = p.modes.count();
    EXPECT_EQ(p.edges, n * (n - 1) / 2);
  }
}

TEST(Clustering, AreaIsSumOfModeAreas) {
  const Design d = paper_example();
  const ConnectivityMatrix m(d);
  for (const BasePartition& p : enumerate_base_partitions(d, m)) {
    ResourceVec sum;
    for (std::size_t mode : p.modes.bits()) sum += d.mode_area(mode);
    EXPECT_EQ(p.area, sum);
    EXPECT_EQ(p.frames, frames_for(sum));
  }
}

TEST(Clustering, MatchesOracleOnPaperExample) {
  const Design d = paper_example();
  const ConnectivityMatrix m(d);
  const auto fast = as_map(d, enumerate_base_partitions(d, m));
  const auto reference =
      as_map(d, oracle::enumerate_base_partitions_reference(d, m));
  EXPECT_EQ(fast, reference);
}

TEST(Clustering, MatchesOracleOnSyntheticDesigns) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    const SyntheticDesign s = generate_synthetic(
        rng, static_cast<CircuitClass>(seed % 4));
    const ConnectivityMatrix m(s.design);
    const auto fast = as_map(s.design, enumerate_base_partitions(s.design, m));
    const auto reference = as_map(
        s.design, oracle::enumerate_base_partitions_reference(s.design, m));
    EXPECT_EQ(fast, reference) << "seed " << seed;
  }
}

TEST(Clustering, OneOffModulesYieldConfigurationsAsMaximalPartitions) {
  const Design d = one_off_modules();
  const ConnectivityMatrix m(d);
  const auto partitions = enumerate_base_partitions(d, m);
  // Subsets of {C,F} (3) plus subsets of {E,P,R} (7): 10 total.
  EXPECT_EQ(partitions.size(), 10u);
  const auto got = as_map(d, partitions);
  EXPECT_EQ(got.count("C1,F1,"), 1u);
  EXPECT_EQ(got.count("E1,P1,R1,"), 1u);
  EXPECT_EQ(got.count("C1,E1,"), 0u);  // never co-occur
}

TEST(Clustering, DeadModesGetNoPartition) {
  const Design d = DesignBuilder("dead")
                       .module("A", {{"A1", {10, 0, 0}}, {"A2", {20, 0, 0}}})
                       .configuration({{"A", "A1"}})
                       .build();
  const ConnectivityMatrix m(d);
  const auto partitions = enumerate_base_partitions(d, m);
  ASSERT_EQ(partitions.size(), 1u);
  EXPECT_TRUE(partitions[0].modes.test(0));
}

TEST(Clustering, DeterministicOrder) {
  const Design d = paper_example();
  const ConnectivityMatrix m(d);
  const auto a = enumerate_base_partitions(d, m);
  const auto b = enumerate_base_partitions(d, m);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].modes, b[i].modes);
}

TEST(Clustering, SizeCapKeepsSmallPartitionsAndFullConfigs) {
  const Design d = paper_example();
  const ConnectivityMatrix m(d);
  const auto capped = enumerate_base_partitions(d, m, 2);
  // Singletons and pairs survive (8 + 13); the five full configurations
  // are appended despite exceeding the cap.
  EXPECT_EQ(capped.size(), 26u);
  std::size_t triples = 0;
  for (const BasePartition& p : capped)
    if (p.modes.count() == 3) ++triples;
  EXPECT_EQ(triples, 5u);
}

TEST(Clustering, CapAtOrAboveWidthMatchesUnlimited) {
  const Design d = paper_example();
  const ConnectivityMatrix m(d);
  const auto unlimited = enumerate_base_partitions(d, m);
  const auto capped = enumerate_base_partitions(d, m, 3);
  EXPECT_EQ(unlimited.size(), capped.size());
}

TEST(Clustering, CapOfOneRejected) {
  const Design d = paper_example();
  const ConnectivityMatrix m(d);
  EXPECT_THROW(enumerate_base_partitions(d, m, 1), InternalError);
}

TEST(Clustering, WidePartitionerWithCapIsFast) {
  // 18 modules x 4 modes: unlimited enumeration visits ~2^18 subsets per
  // configuration; a cap of 3 keeps the partitioner responsive and valid.
  DesignBuilder b("wide");
  for (int mi = 0; mi < 18; ++mi) {
    const std::string name = "W" + std::to_string(mi);
    std::vector<Mode> modes;
    for (int k = 0; k < 4; ++k)
      modes.push_back(Mode{name + "." + std::to_string(k),
                           {static_cast<std::uint32_t>(40 + 10 * k), 0, 0}});
    b.module(name, modes);
  }
  for (int k = 0; k < 4; ++k) {
    std::vector<std::pair<std::string, std::string>> choices;
    for (int mi = 0; mi < 18; ++mi) {
      const std::string name = "W" + std::to_string(mi);
      choices.emplace_back(name, name + "." + std::to_string(k));
    }
    b.configuration(choices);
  }
  const Design d = b.build();
  const ConnectivityMatrix m(d);
  const auto partitions = enumerate_base_partitions(d, m, 3);
  // 72 singletons + capped pairs/triples + 4 full configurations; far fewer
  // than the ~1M of the unlimited enumeration.
  EXPECT_LT(partitions.size(), 100000u);
  std::size_t full = 0;
  for (const BasePartition& p : partitions)
    if (p.modes.count() == 18) ++full;
  EXPECT_EQ(full, 4u);
}

TEST(Clustering, FrequencyWeightIsMinEdgeWeightForTriples) {
  const Design d = paper_example();
  const ConnectivityMatrix m(d);
  // "the frequency weight of sub-graph {A3,B2,C3} is 1, which is the edge
  // weight between A3 and C3" -- even though A3-B2 and B2-C3 have weight 2.
  for (const BasePartition& p : enumerate_base_partitions(d, m)) {
    if (p.modes.count() != 3) continue;
    std::uint32_t min_edge = ~0u;
    const auto ms = p.modes.bits();
    for (std::size_t x = 0; x < ms.size(); ++x)
      for (std::size_t y = x + 1; y < ms.size(); ++y)
        min_edge = std::min(min_edge, m.edge_weight(ms[x], ms[y]));
    EXPECT_EQ(p.frequency_weight, min_edge);
  }
}

}  // namespace
}  // namespace prpart
