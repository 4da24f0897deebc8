// Co-simulation of the case study as a running system: the wireless video
// receiver's five modules form a streaming chain (F -> R -> M -> D -> V);
// channel events drive an adaptation policy; each reconfiguration takes the
// affected pipeline stages offline for the ICAP-accurate number of cycles,
// and the FIFOs between stages decide whether samples survive the outage.
#include <iostream>

#include "core/partitioner.hpp"
#include "reconfig/controller.hpp"
#include "benchlib/policy.hpp"
#include "benchlib/pipeline.hpp"
#include "synth/ip_library.hpp"
#include "util/strings.hpp"

int main() {
  using namespace prpart;

  const Design design = synth::wireless_receiver_design();
  PartitionerOptions opt;
  opt.search.max_candidate_sets = 64;
  opt.search.max_move_evaluations = 2'000'000;
  const PartitionerResult result =
      partition_design(design, {6800, 64, 150}, opt);
  if (!result.feasible) {
    std::cerr << "infeasible\n";
    return 1;
  }

  // Adaptation policy: channel events move between configurations.
  AdaptationPolicy policy(design.configurations().size());
  policy.add_rule(AdaptationPolicy::kAnyConfig, "channel_clean", 0);
  policy.add_rule(0, "bitrate_up", 1);
  policy.add_rule(1, "bitrate_up", 2);
  policy.add_rule(AdaptationPolicy::kAnyConfig, "deep_fade", 3);
  policy.add_rule(3, "fade_recover", 4);

  const std::vector<std::string> trace = {
      "bitrate_up", "bitrate_up", "deep_fade",  "fade_recover",
      "channel_clean", "bitrate_up", "deep_fade", "channel_clean"};

  // Which pipeline stage is offline during a region reload: the stage of
  // every module whose needed mode is provided by that region.
  auto stages_of_region = [&](std::size_t region, std::size_t config) {
    std::vector<std::size_t> stages;
    const Region& reg = result.proposed.scheme.regions[region];
    for (std::size_t m = 0; m < design.modules().size(); ++m) {
      const std::uint32_t mode =
          design.configurations()[config].mode_of_module[m];
      if (mode == 0) continue;
      const std::size_t gid =
          design.global_mode_id(static_cast<std::uint32_t>(m), mode);
      for (std::size_t p : reg.members)
        if (result.base_partitions[p].modes.test(gid)) stages.push_back(m);
    }
    return stages;
  };

  const double clock_hz = 200e6;
  const std::uint64_t dwell_cycles = 2'000'000;  // 10 ms between events

  for (const std::size_t fifo_depth : {1024u, 32768u, 262144u}) {
    std::vector<StageSpec> stages;
    for (const Module& m : design.modules())
      stages.push_back({m.name, 2, fifo_depth});
    StreamingPipeline pipe(std::move(stages), /*arrival_interval=*/4);

    ReconfigurationController ctl(design, result.proposed.eval);
    ctl.boot(0);

    for (const std::string& event : trace) {
      pipe.run(dwell_cycles);
      const auto target = policy.target(ctl.current_config(), event);
      if (!target || *target == ctl.current_config()) continue;
      const std::size_t to = *target;
      for (const ReconfigEvent& ev : ctl.transition(to)) {
        const auto outage_cycles = static_cast<std::uint64_t>(
            static_cast<double>(ev.ns) * 1e-9 * clock_hz);
        for (std::size_t s : stages_of_region(ev.region, to))
          pipe.set_offline(s, true);
        pipe.run(outage_cycles);
        for (std::size_t s : stages_of_region(ev.region, to))
          pipe.set_offline(s, false);
      }
    }
    pipe.run(dwell_cycles);

    const PipelineStats& s = pipe.stats();
    std::cout << "FIFO depth " << fifo_depth << ": arrived "
              << with_commas(s.arrived) << ", delivered "
              << with_commas(s.delivered) << ", dropped "
              << with_commas(s.dropped) << " ("
              << fixed(100.0 * static_cast<double>(s.dropped) /
                           static_cast<double>(s.arrived),
                       2)
              << "%)\n";
  }
  std::cout << "\nReconfigurations were driven by the adaptation policy "
               "through the controller. Moderate FIFOs absorb the small "
               "regions' reloads but not the video decoder's; hiding that "
               "one takes a quarter-million-sample buffer -- the motivation "
               "for minimising reconfiguration time at partitioning time "
               "instead of buffering it away.\n";
  return 0;
}
