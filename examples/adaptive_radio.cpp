// Runtime adaptation scenario: a cognitive radio (paper ref [1]) that
// switches between spectrum sensing and transmission modes driven by a
// Markov environment model. Demonstrates the reconfiguration controller and
// the difference between the paper's uniform-pair proxy and the realised
// probability-weighted cost (the paper's stated future work).
#include <iostream>

#include "core/partitioner.hpp"
#include "core/report.hpp"
#include "design/builder.hpp"
#include "reconfig/controller.hpp"
#include "reconfig/markov.hpp"
#include "synth/ip_library.hpp"
#include "util/strings.hpp"

int main() {
  using namespace prpart;

  const synth::IpLibrary ip = synth::IpLibrary::standard();
  const Design design =
      DesignBuilder("cognitive-radio")
          .static_base(ip.lookup("icap_controller").area)
          .module("frontend", {{"sense", ip.lookup("spectrum_sensor").area},
                               {"tx_ofdm", ip.lookup("ofdm_tx").area},
                               {"tx_gsm", ip.lookup("gsm_tx").area}})
          .module("codec", {{"viterbi", ip.lookup("decoder.viterbi").area},
                            {"turbo", ip.lookup("decoder.turbo").area}})
          .configuration("sensing", {{"frontend", "sense"}})
          .configuration("ofdm_v", {{"frontend", "tx_ofdm"},
                                    {"codec", "viterbi"}})
          .configuration("ofdm_t", {{"frontend", "tx_ofdm"},
                                    {"codec", "turbo"}})
          .configuration("gsm_v", {{"frontend", "tx_gsm"},
                                   {"codec", "viterbi"}})
          .build();

  const ResourceVec budget{3600, 40, 96};
  const PartitionerResult result = partition_design(design, budget);
  if (!result.feasible) {
    std::cerr << "infeasible budget\n";
    return 1;
  }
  std::cout << "Partitioning:\n"
            << render_scheme_partitions(design, result.base_partitions,
                                        result.proposed.scheme)
            << "\n";

  // Environment: mostly alternating sensing <-> transmission, occasional
  // codec/waveform changes.
  const std::size_t n = design.configurations().size();
  std::vector<std::vector<double>> p(n, std::vector<double>(n, 0.0));
  // sensing -> one of the tx modes; tx -> mostly back to sensing.
  p[0] = {0.0, 0.5, 0.2, 0.3};
  p[1] = {0.7, 0.0, 0.2, 0.1};
  p[2] = {0.7, 0.2, 0.0, 0.1};
  p[3] = {0.8, 0.1, 0.1, 0.0};
  const MarkovChain env(p);

  ReconfigurationController ctl(design, result.proposed.eval);
  ctl.boot(0);
  Rng rng(2026);
  std::size_t state = 0;
  const int steps = 10000;
  for (int i = 0; i < steps; ++i) {
    state = env.sample_next(rng, state);
    ctl.transition(state);
  }

  const RuntimeStats& stats = ctl.stats();
  const double mean_frames =
      static_cast<double>(stats.total_frames) / static_cast<double>(steps);
  const double uniform_proxy = expected_frames_per_transition(
      result.proposed.eval, n, MarkovChain::uniform(n));
  const double weighted_model =
      expected_frames_per_transition(result.proposed.eval, n, env);

  std::cout << "Simulated " << steps << " environment-driven transitions:\n";
  std::cout << "  realised mean        : " << fixed(mean_frames, 1)
            << " frames/transition ("
            << fixed(static_cast<double>(stats.total_ns) / steps / 1000.0, 1)
            << " us)\n";
  std::cout << "  uniform-pair proxy   : " << fixed(uniform_proxy, 1)
            << " frames/transition (paper's Eq. 10 averaged)\n";
  std::cout << "  Markov-weighted model: " << fixed(weighted_model, 1)
            << " frames/transition\n";
  std::cout << "  worst observed       : "
            << with_commas(stats.worst_transition_frames) << " frames ("
            << with_commas(result.proposed.eval.worst_frames)
            << " possible)\n";

  // Same walk with configuration prefetching: idle regions are preloaded
  // for the predicted next configuration during quiet periods.
  ReconfigurationController pref(design, result.proposed.eval, {},
                                 PrefetchPolicy{env});
  Rng rng2(2026);
  pref.boot(0);
  std::size_t state2 = 0;
  for (int i = 0; i < steps; ++i) {
    state2 = env.sample_next(rng2, state2);
    pref.transition(state2);
  }
  const RuntimeStats& ps = pref.stats();
  std::cout << "\nWith configuration prefetching (same walk):\n";
  std::cout << "  stall mean           : "
            << fixed(static_cast<double>(ps.total_frames) / steps, 1)
            << " frames/transition ("
            << fixed(100.0 * (1.0 - static_cast<double>(ps.total_frames) /
                                        static_cast<double>(
                                            stats.total_frames)),
                     1)
            << "% hidden)\n";
  std::cout << "  prefetch accuracy    : " << ps.useful_prefetches
            << " useful / " << ps.wasted_prefetches << " wasted\n";
  return 0;
}
