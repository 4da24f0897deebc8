#include "flow/flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bitstream/bitstream.hpp"
#include "design/synthetic.hpp"
#include "synth/ip_library.hpp"
#include "tests/core/example_designs.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

using testing::paper_example;

/// Step 7 of the flow, as `prpart flow` runs it on the winner.
std::vector<Bitstream> winner_bitstreams(const Design& design,
                                         const FlowResult& r) {
  return generate_bitstreams(design, r.partitioning.base_partitions,
                             r.partitioning.proposed.scheme,
                             r.partitioning.proposed.eval);
}

TEST(Flow, CaseStudyCompletesOnFX70T) {
  const Design design = synth::wireless_receiver_design();
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  PartitionerOptions opt;
  opt.search.max_candidate_sets = 64;
  opt.search.max_move_evaluations = 2'000'000;
  const FlowResult r = run_flow(design, lib.by_name("XC5VFX70T"), opt);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(r.partitioning.proposed.eval.valid);
  EXPECT_TRUE(r.floorplan.feasible);
  EXPECT_NE(r.ucf.find("AREA_GROUP"), std::string::npos);
  const std::vector<Bitstream> bitstreams = winner_bitstreams(design, r);
  EXPECT_FALSE(bitstreams.empty());
  for (const Bitstream& b : bitstreams) validate_bitstream(b);
}

TEST(Flow, ArtifactsAreMutuallyConsistent) {
  const Design design = paper_example();
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const FlowResult r = run_flow_auto_device(design, lib);
  ASSERT_TRUE(r.success);

  // One bitstream per (region, member).
  std::size_t members = 0;
  for (const Region& region : r.partitioning.proposed.scheme.regions)
    members += region.members.size();
  EXPECT_EQ(winner_bitstreams(design, r).size(), members);

  // One placement per region, each providing its region's tiles.
  EXPECT_EQ(r.floorplan.placements.size(),
            r.partitioning.proposed.eval.regions.size());
  for (const RegionPlacement& p : r.floorplan.placements) {
    const TileCount& need =
        r.partitioning.proposed.eval.regions[p.region].tiles;
    EXPECT_GE(p.provided.clb_tiles, need.clb_tiles);
    EXPECT_GE(p.provided.bram_tiles, need.bram_tiles);
    EXPECT_GE(p.provided.dsp_tiles, need.dsp_tiles);
  }
}

TEST(Flow, AutoDevicePicksSmallestWorkable) {
  const Design design = testing::fig3_example();
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const FlowResult r = run_flow_auto_device(design, lib);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.device->name(), lib.devices().front().name());
  EXPECT_EQ(r.iterations, 1u);
}

TEST(Flow, HugeDesignThrowsAcrossLibrary) {
  const Design design = DesignBuilder("huge")
                            .module("X", {{"X1", {60000, 0, 0}}})
                            .configuration({{"X", "X1"}})
                            .build();
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  EXPECT_THROW(run_flow_auto_device(design, lib), DeviceError);
}

TEST(Flow, FailureCarriesReason) {
  const Design design = synth::wireless_receiver_design();
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const FlowResult r = run_flow(design, lib.by_name("XC5VLX20T"));
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.failure_reason.find("does not fit"), std::string::npos);
}

TEST(Flow, SweepOfSyntheticDesignsCompletes) {
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  PartitionerOptions opt;
  opt.search.max_move_evaluations = 200'000;
  const auto suite = generate_synthetic_suite(808, 10);
  std::size_t succeeded = 0;
  for (const SyntheticDesign& s : suite) {
    try {
      const FlowResult r = run_flow_auto_device(s.design, lib, opt);
      if (r.success) {
        ++succeeded;
        for (const Bitstream& b : winner_bitstreams(s.design, r))
          validate_bitstream(b);
      }
    } catch (const DeviceError&) {
      // acceptable: some designs floorplan on no library device
    }
  }
  EXPECT_GE(succeeded, 8u);
}

/// The placement ladder's static check, restated: the static logic fits in
/// the device capacity the placed rectangles leave over. (A rectangle can
/// provide more of a resource than the datasheet capacity, because column
/// grids round up to whole columns, so the difference saturates at zero.)
bool static_fits_outside_regions(const Device& device, const FlowResult& r) {
  ResourceVec used;
  for (const RegionPlacement& p : r.floorplan.placements)
    used += p.provided.resources();
  const ResourceVec cap = device.capacity();
  const ResourceVec left{cap.clbs - std::min(cap.clbs, used.clbs),
                         cap.brams - std::min(cap.brams, used.brams),
                         cap.dsps - std::min(cap.dsps, used.dsps)};
  return r.partitioning.proposed.eval.static_resources.fits_in(left);
}

TEST(Flow, EverySuccessPassesThePlacementLaddersStaticCheck) {
  // A flow success is a floorplan the placement ladder accepts: every
  // region placed and the static logic fitting the fabric the rectangles
  // leave over. Resource-count fit alone admits whole-device regions that
  // starve the static logic.
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  PartitionerOptions opt;
  opt.search.max_move_evaluations = 400'000;
  std::size_t succeeded = 0;
  for (const SyntheticDesign& s : generate_synthetic_suite(555, 12)) {
    const DevicePartitionResult dp =
        partition_on_smallest_device(s.design, lib, opt);
    if (!dp.result.feasible) continue;
    const FlowResult r = run_flow(s.design, *dp.device, opt);
    if (!r.success) continue;
    ++succeeded;
    EXPECT_TRUE(r.floorplan.feasible) << s.design.name();
    EXPECT_TRUE(static_fits_outside_regions(*dp.device, r))
        << s.design.name();
  }
  EXPECT_GT(succeeded, 0u);
}

}  // namespace
}  // namespace prpart
