// The device walk against the reference walk in oracle/: for every design,
// library and option set below, partition_on_smallest_device must return
// the same device, indices, escalation flag, partition_result_json bytes
// (stats included) and alternatives as partitioning every device in turn.
#include <gtest/gtest.h>

#include <vector>

#include "core/partitioner.hpp"
#include "core/schemes.hpp"
#include "design/synthetic.hpp"
#include "oracle/partitioner_reference.hpp"
#include "synth/ip_library.hpp"
#include "tests/core/example_designs.hpp"

namespace prpart {
namespace {

/// Sweep-level effort (bench/sweep_common.cpp) with a smaller evaluation
/// budget, so the reference walk stays cheap under the sanitizers.
PartitionerOptions walk_options() {
  PartitionerOptions opt;
  opt.search.threads = 1;
  opt.search.max_candidate_sets = 24;
  opt.search.max_move_evaluations = 40'000;
  return opt;
}

/// Runs both walks and compares them; returns the production result.
DevicePartitionResult expect_identical(const Design& design,
                                       const DeviceLibrary& library,
                                       const PartitionerOptions& options) {
  const DevicePartitionResult production =
      partition_on_smallest_device(design, library, options);
  const DevicePartitionResult reference =
      oracle::partition_on_smallest_device_reference(design, library,
                                                     options);
  EXPECT_EQ(oracle::walk_mismatch(design, production, reference), "")
      << design.name();
  return production;
}

std::vector<SyntheticDesign> suite(std::uint64_t seed, std::size_t count) {
  return generate_synthetic_suite(seed, count);
}

TEST(WalkIdentity, AllFourCircuitClasses) {
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  WalkStats total;
  std::size_t escalated = 0;
  bool seen[4] = {};
  for (const SyntheticDesign& s : suite(2013, 20)) {
    seen[static_cast<int>(s.circuit_class)] = true;
    const DevicePartitionResult r =
        expect_identical(s.design, lib, walk_options());
    total.devices_skipped_infeasible += r.walk.devices_skipped_infeasible;
    total.searches_skipped_no_fit += r.walk.searches_skipped_no_fit;
    total.searches_run += r.walk.searches_run;
    if (r.escalated) ++escalated;
    // Each device up to the chosen one is counted once, and the chosen
    // device itself was searched.
    EXPECT_GE(r.walk.searches_run, 1u);
    EXPECT_EQ(r.walk.devices_skipped_infeasible +
                  r.walk.searches_skipped_no_fit + r.walk.searches_run,
              r.chosen_index + 1);
  }
  for (const bool s : seen) EXPECT_TRUE(s);
  // Every shortcut fired somewhere in the suite, and some designs escalated.
  EXPECT_GT(total.devices_skipped_infeasible, 0u);
  EXPECT_GT(total.searches_skipped_no_fit, 0u);
  EXPECT_GT(escalated, 0u);
}

TEST(WalkIdentity, CaseStudies) {
  const std::vector<Design> designs = {
      testing::paper_example(), testing::one_off_modules(),
      testing::fig3_example(), synth::wireless_receiver_design(),
      synth::wireless_receiver_modified_design()};
  for (const DeviceLibrary& lib :
       {DeviceLibrary::virtex5(), DeviceLibrary::extended()})
    for (const Design& d : designs) expect_identical(d, lib, walk_options());
}

TEST(WalkIdentity, Libraries) {
  const auto designs = suite(404, 6);
  for (const DeviceLibrary& lib :
       {DeviceLibrary::extended(), DeviceLibrary::virtex5(),
        DeviceLibrary::reference_parts()})
    for (const SyntheticDesign& s : designs) {
      try {
        expect_identical(s.design, lib, walk_options());
      } catch (const DeviceError&) {
        // Too large for this library: both walks must say so.
        EXPECT_THROW(oracle::partition_on_smallest_device_reference(
                         s.design, lib, walk_options()),
                     DeviceError);
      }
    }
}

TEST(WalkIdentity, OptionVariants) {
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const auto designs = suite(77, 3);

  std::vector<PartitionerOptions> variants;
  {
    PartitionerOptions o = walk_options();
    o.search.allow_static_promotion = false;
    variants.push_back(o);
  }
  {
    PartitionerOptions o = walk_options();
    o.max_partition_modes = 2;
    variants.push_back(o);
  }
  {
    PartitionerOptions o = walk_options();
    o.search.max_candidate_sets = 2;
    variants.push_back(o);
  }
  {
    // Budget exhaustion: the search stops after a handful of evaluations.
    PartitionerOptions o = walk_options();
    o.search.max_move_evaluations = 40;
    variants.push_back(o);
  }
  for (const PartitionerOptions& o : variants)
    for (const SyntheticDesign& s : designs) expect_identical(s.design, lib, o);

  // Pair weights: per design, one row per configuration.
  for (const SyntheticDesign& s : designs) {
    const std::size_t n = s.design.configurations().size();
    PairWeights weights(n, std::vector<std::uint32_t>(n, 0));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (i != j) weights[i][j] = static_cast<std::uint32_t>(1 + (i + j) % 5);
    PartitionerOptions o = walk_options();
    o.search.pair_weights = &weights;
    expect_identical(s.design, lib, o);
  }
}

TEST(WalkIdentity, DesignFittingNoDeviceThrowsInBoth) {
  const Design d = DesignBuilder("huge")
                       .module("X", {{"X1", {50000, 0, 0}}})
                       .configuration({{"X", "X1"}})
                       .build();
  const DeviceLibrary lib = DeviceLibrary::extended();
  EXPECT_THROW(partition_on_smallest_device(d, lib), DeviceError);
  EXPECT_THROW(oracle::partition_on_smallest_device_reference(d, lib),
               DeviceError);
}

TEST(WalkIdentity, LargestFeasiblePartOnlySupportsSingleRegion) {
  // Two parts exactly the size of the single-region footprint, then one
  // too small for anything: the walk must end on the second tight part,
  // whose search finds nothing better than single region.
  std::size_t exercised = 0;
  for (const SyntheticDesign& s : suite(2718, 8)) {
    const ResourceVec tight = single_region_footprint(s.design);
    DeviceLibrary lib;
    lib.add(Device("tight-a", tight, 4));
    lib.add(Device("tight-b", tight, 4));
    lib.add(Device("tiny", {20, 0, 0}, 1));
    const DevicePartitionResult r =
        expect_identical(s.design, lib, walk_options());
    if (r.result.proposed_from_search) continue;
    ++exercised;
    EXPECT_EQ(r.chosen_index, 1u);
    EXPECT_TRUE(r.escalated);
    EXPECT_EQ(r.walk.devices_skipped_infeasible, 0u);
    EXPECT_EQ(r.walk.searches_skipped_no_fit + r.walk.searches_run, 2u);
  }
  EXPECT_GT(exercised, 0u);
}

}  // namespace
}  // namespace prpart
