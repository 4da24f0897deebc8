#include "core/eval_kernel.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/clustering.hpp"
#include "core/covering.hpp"
#include "core/scheme.hpp"
#include "core/schemes.hpp"
#include "design/synthetic.hpp"
#include "tests/core/example_designs.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

using testing::paper_example;

// The kernel's contract is byte-identity with the scalar reference: every
// field of SchemeEvaluation, including diagnostics and the partial active
// tables an invalid evaluation leaves behind.
void expect_identical(const SchemeEvaluation& ref, const SchemeEvaluation& ker,
                      const std::string& what) {
  ASSERT_EQ(ref.valid, ker.valid) << what;
  EXPECT_EQ(ref.invalid_reason, ker.invalid_reason) << what;
  EXPECT_EQ(ref.fits, ker.fits) << what;
  EXPECT_EQ(ref.pr_resources, ker.pr_resources) << what;
  EXPECT_EQ(ref.static_resources, ker.static_resources) << what;
  EXPECT_EQ(ref.total_resources, ker.total_resources) << what;
  EXPECT_EQ(ref.total_frames, ker.total_frames) << what;
  EXPECT_EQ(ref.worst_frames, ker.worst_frames) << what;
  ASSERT_EQ(ref.regions.size(), ker.regions.size()) << what;
  for (std::size_t r = 0; r < ref.regions.size(); ++r) {
    EXPECT_EQ(ref.regions[r].raw, ker.regions[r].raw) << what << " r" << r;
    EXPECT_EQ(ref.regions[r].tiles, ker.regions[r].tiles) << what << " r" << r;
    EXPECT_EQ(ref.regions[r].frames, ker.regions[r].frames)
        << what << " r" << r;
    EXPECT_EQ(ref.regions[r].reconfig_pairs, ker.regions[r].reconfig_pairs)
        << what << " r" << r;
    EXPECT_EQ(ref.regions[r].active, ker.regions[r].active)
        << what << " r" << r;
  }
}

struct DesignUnderTest {
  Design design;
  ConnectivityMatrix matrix;
  std::vector<BasePartition> partitions;
};

DesignUnderTest make_dut(Design design) {
  ConnectivityMatrix matrix(design);
  std::vector<BasePartition> partitions =
      enumerate_base_partitions(design, matrix);
  return {std::move(design), std::move(matrix), std::move(partitions)};
}

// Random grouping of a complete cover into regions, with an optional static
// promotion. Produces a mix of valid and invalid-double-activation schemes —
// exactly the population the search explores. With `may_drop_region`, a
// quarter of the multi-region schemes lose their last region, so
// uncovered-mode diagnostics join the mix.
PartitionScheme random_scheme(const DesignUnderTest& dut, Rng& rng,
                              bool may_drop_region = false) {
  const auto order = covering_order(dut.partitions);
  const CoverResult cover_result =
      cover(dut.partitions, dut.matrix, order, /*skip=*/0);
  PartitionScheme scheme;
  if (cover_result.selected.empty()) return scheme;
  const std::size_t nregions =
      1 + static_cast<std::size_t>(rng.below(cover_result.selected.size()));
  scheme.regions.resize(nregions);
  for (std::size_t p : cover_result.selected) {
    if (rng.chance(0.1)) {
      scheme.static_members.push_back(p);
    } else {
      scheme.regions[rng.below(nregions)].members.push_back(p);
    }
  }
  std::erase_if(scheme.regions,
                [](const Region& r) { return r.members.empty(); });
  if (scheme.regions.empty() && !cover_result.selected.empty())
    scheme.regions.push_back(Region{{cover_result.selected.front()}});
  if (may_drop_region && scheme.regions.size() > 1 && rng.chance(0.25))
    scheme.regions.pop_back();
  return scheme;
}

// Scores `schemes` through the batch entry point, in order.
std::vector<SchemeEvaluation> evaluate_batch(
    const EvalContext& context, const std::vector<PartitionScheme>& schemes,
    const ResourceVec& budget, EvalScratch& scratch) {
  std::vector<const PartitionScheme*> ptrs;
  for (const PartitionScheme& scheme : schemes) ptrs.push_back(&scheme);
  std::vector<SchemeEvaluation> evals(schemes.size());
  context.evaluate_batch_into(ptrs.data(), ptrs.size(), budget, scratch,
                              evals.data());
  return evals;
}

TEST(SchemeKernel, MatchesReferenceOnRandomSchemes) {
  // The suite round-robins the four circuit classes, so the frame weights
  // are non-uniform across regions (BRAM/DSP tiles carry different frame
  // counts than CLB tiles).
  const auto suite = generate_synthetic_suite(/*seed=*/20260805, /*count=*/24);
  const ResourceVec budget{30720, 456, 384};
  Rng rng(7);
  for (const SyntheticDesign& s : suite) {
    const DesignUnderTest dut = make_dut(s.design);
    EvalContext context(dut.design, dut.matrix, dut.partitions);
    EvalScratch scratch;
    for (int k = 0; k < 12; ++k) {
      const PartitionScheme scheme = random_scheme(dut, rng);
      if (scheme.regions.empty()) continue;
      const SchemeEvaluation ref = evaluate_scheme_reference(
          dut.design, dut.matrix, dut.partitions, scheme, budget);
      const SchemeEvaluation ker = context.evaluate(scheme, budget, scratch);
      expect_identical(ref, ker,
                       dut.design.name() + " scheme " + std::to_string(k));
      // The public entry point is kernel-backed; it must agree too.
      expect_identical(ref,
                       evaluate_scheme(dut.design, dut.matrix, dut.partitions,
                                       scheme, budget),
                       dut.design.name() + " wrapper " + std::to_string(k));
    }
    EXPECT_GT(scratch.stats.kernel_evaluations, 0u);
  }
}

TEST(SchemeKernel, MatchesReferenceOnBaselineSchemes) {
  const auto suite = generate_synthetic_suite(/*seed=*/99, /*count=*/16);
  const ResourceVec budget{10000, 100, 100};
  for (const SyntheticDesign& s : suite) {
    const DesignUnderTest dut = make_dut(s.design);
    EvalContext context(dut.design, dut.matrix, dut.partitions);
    EvalScratch scratch;
    for (const PartitionScheme& scheme :
         {make_modular_scheme(dut.design, dut.matrix, dut.partitions),
          make_static_scheme(dut.design, dut.matrix, dut.partitions)}) {
      const SchemeEvaluation ref = evaluate_scheme_reference(
          dut.design, dut.matrix, dut.partitions, scheme, budget);
      expect_identical(ref, context.evaluate(scheme, budget, scratch),
                       dut.design.name() + " baseline");
    }
  }
}

TEST(SchemeKernel, MatchesReferenceOnUncoveredSchemes) {
  // Deleting one region from the modular scheme leaves that module's modes
  // unprovided in every configuration using them: the invalid-coverage
  // diagnosis (first failing configuration) must match exactly.
  const auto suite = generate_synthetic_suite(/*seed=*/4242, /*count=*/16);
  const ResourceVec budget{30720, 456, 384};
  for (const SyntheticDesign& s : suite) {
    const DesignUnderTest dut = make_dut(s.design);
    EvalContext context(dut.design, dut.matrix, dut.partitions);
    EvalScratch scratch;
    PartitionScheme scheme =
        make_modular_scheme(dut.design, dut.matrix, dut.partitions);
    if (scheme.regions.size() < 2) continue;
    for (std::size_t drop = 0; drop < scheme.regions.size(); ++drop) {
      PartitionScheme damaged = scheme;
      damaged.regions.erase(damaged.regions.begin() +
                            static_cast<std::ptrdiff_t>(drop));
      const SchemeEvaluation ref = evaluate_scheme_reference(
          dut.design, dut.matrix, dut.partitions, damaged, budget);
      const SchemeEvaluation ker = context.evaluate(damaged, budget, scratch);
      expect_identical(ref, ker, dut.design.name() + " drop " +
                                     std::to_string(drop));
      if (!ref.valid) {
        EXPECT_NE(ref.invalid_reason.find("not provided"), std::string::npos);
      }
    }
  }
}

TEST(SchemeKernel, FirstDiagnosedDoubleActivationIsPinned) {
  // Merging two modular regions of different modules double-activates every
  // configuration containing both modules. With several conflicting merges,
  // the diagnosis must be the first region in scheme order and the lowest
  // conflicting configuration — identically in reference and kernel.
  const DesignUnderTest dut = make_dut(paper_example());
  const ResourceVec budget{100000, 1000, 1000};
  PartitionScheme scheme =
      make_modular_scheme(dut.design, dut.matrix, dut.partitions);
  ASSERT_GE(scheme.regions.size(), 3u);
  // Merge region 1 into region 0 and region 2's first member into region 1.
  PartitionScheme damaged;
  damaged.regions.push_back(Region{scheme.regions[0].members});
  for (std::size_t p : scheme.regions[1].members)
    damaged.regions[0].members.push_back(p);
  damaged.regions.push_back(Region{scheme.regions[1].members});
  damaged.regions[1].members.push_back(scheme.regions[2].members.front());
  for (std::size_t r = 2; r < scheme.regions.size(); ++r)
    damaged.regions.push_back(scheme.regions[r]);

  // Independent in-test oracle for the first-diagnosed configuration: scan
  // regions in order, configurations ascending, and report the first with
  // two intersecting members.
  std::size_t expected_conf = dut.matrix.configs();
  for (const Region& region : damaged.regions) {
    for (std::size_t c = 0;
         c < dut.matrix.configs() && expected_conf == dut.matrix.configs();
         ++c) {
      int hits = 0;
      for (std::size_t p : region.members)
        if (dut.partitions[p].modes.intersects(dut.matrix.row(c))) ++hits;
      if (hits >= 2) expected_conf = c;
    }
    if (expected_conf != dut.matrix.configs()) break;
  }
  ASSERT_LT(expected_conf, dut.matrix.configs());

  EvalContext context(dut.design, dut.matrix, dut.partitions);
  EvalScratch scratch;
  const SchemeEvaluation ref = evaluate_scheme_reference(
      dut.design, dut.matrix, dut.partitions, damaged, budget);
  const SchemeEvaluation ker = context.evaluate(damaged, budget, scratch);
  ASSERT_FALSE(ref.valid);
  const std::string expected_name =
      dut.design.configurations()[expected_conf].name;
  EXPECT_NE(ref.invalid_reason.find(expected_name), std::string::npos)
      << ref.invalid_reason;
  expect_identical(ref, ker, "double-activation");
  // Fail-fast shape: regions after the diagnosed one keep empty tables.
  EXPECT_EQ(ref.regions[0].active.size(), dut.matrix.configs());
  for (std::size_t r = 1; r < ref.regions.size(); ++r)
    EXPECT_TRUE(ref.regions[r].active.empty()) << r;
}

TEST(SchemeKernel, EmptyRegionThrowsInBothImplementations) {
  const DesignUnderTest dut = make_dut(paper_example());
  const ResourceVec budget{100000, 1000, 1000};
  PartitionScheme scheme =
      make_modular_scheme(dut.design, dut.matrix, dut.partitions);
  scheme.regions.push_back(Region{});
  EvalContext context(dut.design, dut.matrix, dut.partitions);
  EvalScratch scratch;
  EXPECT_THROW(evaluate_scheme_reference(dut.design, dut.matrix,
                                         dut.partitions, scheme, budget),
               InternalError);
  EXPECT_THROW(context.evaluate(scheme, budget, scratch), InternalError);
}

TEST(SchemeKernel, CollapsesDuplicateSignatures) {
  // The paper example's configurations repeat module-mode combinations, so
  // grouping by active signature must collapse at least the pairs the
  // duplicate detection finds, while worst_frames stays exact (checked in
  // the identity tests); here we pin that the counter moves only on valid
  // evaluations and never exceeds C-1 per call.
  const auto suite = generate_synthetic_suite(/*seed=*/7, /*count=*/8);
  const ResourceVec budget{30720, 456, 384};
  for (const SyntheticDesign& s : suite) {
    const DesignUnderTest dut = make_dut(s.design);
    EvalContext context(dut.design, dut.matrix, dut.partitions);
    EvalScratch scratch;
    const PartitionScheme scheme =
        make_modular_scheme(dut.design, dut.matrix, dut.partitions);
    const std::uint64_t before = scratch.stats.signature_collapsed_configs;
    const SchemeEvaluation eval = context.evaluate(scheme, budget, scratch);
    const std::uint64_t delta =
        scratch.stats.signature_collapsed_configs - before;
    if (!eval.valid) {
      EXPECT_EQ(delta, 0u);
    } else {
      EXPECT_LT(delta, dut.matrix.configs());
    }
  }
}

TEST(SchemeKernel, BatchedMatchesReferenceAndSingles) {
  const auto suite = generate_synthetic_suite(/*seed=*/20260808, /*count=*/12);
  const ResourceVec budget{30720, 456, 384};
  Rng rng(11);
  for (const SyntheticDesign& s : suite) {
    const DesignUnderTest dut = make_dut(s.design);
    const EvalContext context(dut.design, dut.matrix, dut.partitions);
    EvalScratch scratch;

    std::vector<PartitionScheme> schemes;
    for (int k = 0; k < 8; ++k) {
      PartitionScheme scheme = random_scheme(dut, rng, /*may_drop_region=*/true);
      if (!scheme.regions.empty()) schemes.push_back(std::move(scheme));
    }
    if (schemes.empty()) continue;
    const std::string label = dut.design.name();

    // Single evaluations match the reference.
    std::vector<SchemeEvaluation> singles(schemes.size());
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      context.evaluate_into(schemes[i], budget, scratch, singles[i]);
      const SchemeEvaluation ref = evaluate_scheme_reference(
          dut.design, dut.matrix, dut.partitions, schemes[i], budget);
      expect_identical(ref, singles[i], label + " #" + std::to_string(i));
    }
    const EvalStats after_singles = scratch.stats;

    // The batch entry point reproduces the singles — results and counter
    // increments.
    const std::vector<SchemeEvaluation> batched =
        evaluate_batch(context, schemes, budget, scratch);
    for (std::size_t i = 0; i < singles.size(); ++i)
      expect_identical(singles[i], batched[i],
                       label + " batch #" + std::to_string(i));
    // The batch added exactly one kernel evaluation per scheme and
    // collapsed exactly what the singles collapsed.
    EXPECT_EQ(scratch.stats.kernel_evaluations,
              after_singles.kernel_evaluations + schemes.size())
        << label;
    EXPECT_EQ(scratch.stats.signature_collapsed_configs,
              2 * after_singles.signature_collapsed_configs)
        << label;
  }
}

TEST(SchemeKernel, WideConfigurationRowsMatchReference) {
  // Deeply adaptive designs (hundreds of configurations) make the packed
  // activity rows span many 64-bit words and end in a partial tail word.
  // The coverage-minimum designs of the other tests never leave word one.
  SyntheticOptions wide;
  wide.min_modules = 8;
  wide.max_modules = 10;
  wide.min_modes = 3;
  wide.max_modes = 4;
  wide.max_clbs = 400;
  wide.min_configurations = 540;  // 9 words of configuration bits
  const auto suite = generate_synthetic_suite(/*seed=*/909, /*count=*/1, wide);
  const ResourceVec budget{30720, 456, 384};
  Rng rng(5);
  const SyntheticDesign& s = suite.front();
  // Cap clique enumeration at pairs (the partitioner's max_partition_modes
  // guard): unbounded subsets over a 540-configuration co-occurrence
  // matrix would swamp the test with setup, not kernel work.
  DesignUnderTest dut{s.design, ConnectivityMatrix(s.design), {}};
  dut.partitions = enumerate_base_partitions(dut.design, dut.matrix, 2);
  ASSERT_GE(dut.matrix.configs(), 512u) << s.design.name();
  const EvalContext context(dut.design, dut.matrix, dut.partitions);
  std::vector<PartitionScheme> schemes;
  for (int k = 0; k < 3; ++k) {
    PartitionScheme scheme = random_scheme(dut, rng, /*may_drop_region=*/true);
    if (!scheme.regions.empty()) schemes.push_back(std::move(scheme));
  }
  ASSERT_FALSE(schemes.empty());
  EvalScratch scratch;
  const std::vector<SchemeEvaluation> batched =
      evaluate_batch(context, schemes, budget, scratch);
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const SchemeEvaluation ref = evaluate_scheme_reference(
        dut.design, dut.matrix, dut.partitions, schemes[i], budget);
    SchemeEvaluation eval;
    context.evaluate_into(schemes[i], budget, scratch, eval);
    expect_identical(ref, eval, "wide #" + std::to_string(i));
    expect_identical(ref, batched[i], "wide batch #" + std::to_string(i));
  }
}

TEST(SchemeKernel, BatchAndSingleCountersAgree) {
  // The EvalStats counters are part of the identity contract: one batch
  // reports the same kernel_evaluations and signature_collapsed_configs as
  // the same schemes evaluated one call at a time, on a fresh scratch each.
  const auto suite = generate_synthetic_suite(/*seed=*/515, /*count=*/8);
  const ResourceVec budget{30720, 456, 384};
  EvalStats single_totals, batch_totals;
  Rng rng(3);
  for (const SyntheticDesign& s : suite) {
    const DesignUnderTest dut = make_dut(s.design);
    const EvalContext context(dut.design, dut.matrix, dut.partitions);
    std::vector<PartitionScheme> schemes;
    for (int k = 0; k < 6; ++k) {
      PartitionScheme scheme = random_scheme(dut, rng, /*may_drop_region=*/true);
      if (!scheme.regions.empty()) schemes.push_back(std::move(scheme));
    }
    EvalScratch single_scratch, batch_scratch;
    for (const PartitionScheme& scheme : schemes) {
      SchemeEvaluation eval;
      context.evaluate_into(scheme, budget, single_scratch, eval);
      expect_identical(evaluate_scheme_reference(dut.design, dut.matrix,
                                                 dut.partitions, scheme,
                                                 budget),
                       eval, dut.design.name());
    }
    evaluate_batch(context, schemes, budget, batch_scratch);
    single_totals.kernel_evaluations += single_scratch.stats.kernel_evaluations;
    single_totals.signature_collapsed_configs +=
        single_scratch.stats.signature_collapsed_configs;
    batch_totals.kernel_evaluations += batch_scratch.stats.kernel_evaluations;
    batch_totals.signature_collapsed_configs +=
        batch_scratch.stats.signature_collapsed_configs;
  }
  EXPECT_EQ(batch_totals.kernel_evaluations, single_totals.kernel_evaluations);
  EXPECT_EQ(batch_totals.signature_collapsed_configs,
            single_totals.signature_collapsed_configs);
  EXPECT_GT(single_totals.kernel_evaluations, 0u);
}

TEST(SchemeKernel, BaselinePairBatchMatchesPerSchemeCalls) {
  // The partitioner scores its modular+static baselines as a batch of two;
  // pin that shape explicitly.
  const auto suite = generate_synthetic_suite(/*seed=*/77, /*count=*/6);
  const ResourceVec budget{10000, 100, 100};
  for (const SyntheticDesign& s : suite) {
    const DesignUnderTest dut = make_dut(s.design);
    const EvalContext context(dut.design, dut.matrix, dut.partitions);
    EvalScratch scratch;
    const PartitionScheme modular =
        make_modular_scheme(dut.design, dut.matrix, dut.partitions);
    const PartitionScheme statics =
        make_static_scheme(dut.design, dut.matrix, dut.partitions);
    const PartitionScheme* pair[2] = {&modular, &statics};
    SchemeEvaluation batched[2];
    context.evaluate_batch_into(pair, 2, budget, scratch, batched);
    for (int i = 0; i < 2; ++i) {
      const std::string label =
          dut.design.name() + (i == 0 ? " modular" : " static");
      expect_identical(evaluate_scheme_reference(dut.design, dut.matrix,
                                                 dut.partitions, *pair[i],
                                                 budget),
                       batched[i], label);
      expect_identical(context.evaluate(*pair[i], budget, scratch),
                       batched[i], label);
    }
  }
}

}  // namespace
}  // namespace prpart
