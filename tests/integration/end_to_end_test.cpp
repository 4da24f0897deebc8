// Full tool-flow integration: XML design description -> partitioner ->
// floorplanner -> bitstream generation -> runtime simulation (Fig. 2's
// pipeline on our substrates).
#include <gtest/gtest.h>

#include "bitstream/bitstream.hpp"
#include "core/partitioner.hpp"
#include "design/builder.hpp"
#include "design/io_xml.hpp"
#include "floorplan/floorplanner.hpp"
#include "reconfig/controller.hpp"
#include "reconfig/markov.hpp"
#include "synth/estimator.hpp"
#include "synth/ip_library.hpp"

namespace prpart {
namespace {

/// A design written the way a user of the tool flow would: behavioural
/// specs estimated into areas, serialised to XML, read back, partitioned.
Design cognitive_radio_design() {
  using synth::BehavioralSpec;
  using synth::estimate;
  auto area = [](std::uint32_t luts, std::uint32_t ffs, std::uint32_t mults,
                 std::uint32_t kbits) {
    BehavioralSpec spec;
    spec.luts = luts;
    spec.ffs = ffs;
    spec.mult18s = mults;
    spec.mem_kbits = kbits;
    return estimate(spec);
  };
  return DesignBuilder("cognitive-radio")
      .static_base({90, 8, 0})
      .module("frontend", {{"sense", area(4200, 3800, 36, 180)},
                           {"rx", area(2600, 2400, 18, 72)}})
      .module("modem", {{"ofdm", area(5200, 6100, 44, 216)},
                        {"gsm", area(2100, 1900, 10, 36)}})
      .module("codec", {{"viterbi", area(2400, 2600, 0, 72)},
                        {"turbo", area(3000, 3400, 4, 540)}})
      .configuration({{"frontend", "sense"}})
      .configuration({{"frontend", "rx"}, {"modem", "ofdm"},
                      {"codec", "turbo"}})
      .configuration({{"frontend", "rx"}, {"modem", "gsm"},
                      {"codec", "viterbi"}})
      .configuration({{"frontend", "rx"}, {"modem", "ofdm"},
                      {"codec", "viterbi"}})
      .build();
}

TEST(EndToEnd, FullFlowOnCognitiveRadio) {
  // 1. Serialise and re-read the design description (the tool's XML input).
  const Design authored = cognitive_radio_design();
  const Design design = design_from_xml(design_to_xml(authored));

  // 2. Pick the smallest workable device and partition.
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const DevicePartitionResult dp = partition_on_smallest_device(design, lib);
  ASSERT_NE(dp.device, nullptr);
  ASSERT_TRUE(dp.result.feasible);
  const PartitionerResult& pr = dp.result;
  EXPECT_TRUE(pr.proposed.eval.valid);
  EXPECT_TRUE(pr.proposed.eval.fits);

  // 3. Floorplan the proposed scheme on the chosen device.
  const Floorplanner fp(*dp.device);
  const FloorplanResult plan = fp.place_scheme(pr.proposed.eval);
  EXPECT_TRUE(plan.success);
  if (plan.success) {
    const std::string ucf = to_ucf(*dp.device, plan.placements);
    EXPECT_NE(ucf.find("AREA_GROUP"), std::string::npos);
  }

  // 4. Generate the partial bitstreams.
  const auto bitstreams = generate_bitstreams(
      design, pr.base_partitions, pr.proposed.scheme, pr.proposed.eval);
  for (const Bitstream& b : bitstreams) validate_bitstream(b);

  // 5. Run an adaptation scenario through the reconfiguration controller.
  ReconfigurationController ctl(design, pr.proposed.eval);
  ctl.boot(0);
  Rng rng(99);
  const MarkovChain chain =
      MarkovChain::uniform(design.configurations().size());
  std::size_t state = 0;
  for (int step = 0; step < 200; ++step) {
    state = chain.sample_next(rng, state);
    ctl.transition(state);
  }
  EXPECT_EQ(ctl.stats().transitions, 200u);
  // Cold loads right after boot can exceed the warm worst case, but a
  // transition can never rewrite more than every region once.
  std::uint64_t all_regions = 0;
  for (const RegionReport& r : pr.proposed.eval.regions)
    all_regions += r.frames;
  EXPECT_LE(ctl.stats().worst_transition_frames, all_regions);
  // The realised mean cost cannot exceed the worst case and, with stale
  // contents, is bounded by the Eq. 10 uniform-pair mean only loosely; we
  // check it is positive and finite.
  EXPECT_GT(ctl.stats().total_frames, 0u);
}

TEST(EndToEnd, CaseStudyFlowProducesStorableArtifacts) {
  const Design design = synth::wireless_receiver_design();
  PartitionerOptions opt;
  opt.search.max_candidate_sets = 64;
  opt.search.max_move_evaluations = 4'000'000;
  const PartitionerResult pr =
      partition_design(design, synth::wireless_receiver_budget(), opt);
  ASSERT_TRUE(pr.feasible);

  const auto bitstreams = generate_bitstreams(
      design, pr.base_partitions, pr.proposed.scheme, pr.proposed.eval);
  // Storage need: every region member is one partial bitstream; the total
  // must be positive and match the per-bitstream sizes.
  EXPECT_GT(total_bytes(bitstreams), 0u);

  // Boot each configuration and reach every other one.
  ReconfigurationController ctl(design, pr.proposed.eval);
  const std::size_t n = design.configurations().size();
  for (std::size_t i = 0; i < n; ++i) {
    ctl.boot(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      ctl.transition(j);
      EXPECT_EQ(ctl.current_config(), j);
      ctl.transition(i);
    }
  }
}

TEST(EndToEnd, EstimatorFeedsPartitionerDirectly) {
  // The §IV flow allows IP-core numbers and estimator output to mix; check
  // a design whose areas come from both paths survives the full pipeline.
  const synth::IpLibrary ip = synth::IpLibrary::standard();
  synth::BehavioralSpec control;
  control.luts = 900;
  control.ffs = 700;
  const Design d =
      DesignBuilder("mixed")
          .static_base(ip.lookup("icap_controller").area)
          .module("tx", {{"ofdm", ip.lookup("ofdm_tx").area},
                         {"gsm", ip.lookup("gsm_tx").area}})
          .module("ctl", {{"v1", synth::estimate(control)}})
          .configuration({{"tx", "ofdm"}, {"ctl", "v1"}})
          .configuration({{"tx", "gsm"}, {"ctl", "v1"}})
          .build();
  const PartitionerResult pr = partition_design(d, {4000, 40, 80});
  ASSERT_TRUE(pr.feasible);
  EXPECT_TRUE(pr.proposed.eval.fits);
}

}  // namespace
}  // namespace prpart
