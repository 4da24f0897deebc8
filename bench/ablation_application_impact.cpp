// Ablation: what the frame-count objective buys at application level. The
// paper's intro motivates PR partitioning with adaptive streaming systems
// (cognitive radio, video receivers) where "long reconfiguration times can
// adversely impact system performance"; here we measure that impact
// directly: input items lost during reconfiguration stalls under the three
// partitioning schemes, across dwell times from aggressive (1 ms) to
// relaxed (100 ms) adaptation.
#include <iostream>

#include "core/partitioner.hpp"
#include "benchlib/application.hpp"
#include "synth/ip_library.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace prpart;

  const Design design = synth::wireless_receiver_design();
  PartitionerOptions opt;
  opt.search.max_candidate_sets = 64;
  opt.search.max_move_evaluations = 2'000'000;
  // BRAM-relaxed case-study budget (see EXPERIMENTS.md) so all three
  // schemes are comparable.
  const PartitionerResult r = partition_design(design, {6800, 64, 150}, opt);
  if (!r.feasible) {
    std::cerr << "case study infeasible\n";
    return 1;
  }

  const std::size_t n = design.configurations().size();
  ApplicationModel app;
  app.items_per_second.assign(n, 40e6);  // 40 Msample/s receiver chain
  app.arrival_items_per_second = 25e6;   // 25 Msample/s channel

  std::cout << "=== Ablation: application-level impact of partitioning ===\n";
  std::cout << "wireless video receiver, 25 Msample/s input, 3000 "
               "environment-driven transitions per cell\n\n";

  TextTable t({"Mean dwell", "Scheme", "Availability", "Samples lost",
               "Loss fraction"});
  for (const double dwell_ms : {1.0, 10.0, 100.0}) {
    app.mean_dwell_ns = dwell_ms * 1e6;
    struct Row {
      const char* name;
      const SchemeEvaluation* eval;
    };
    const Row rows[] = {{"proposed", &r.proposed.eval},
                        {"modular", &r.modular.eval},
                        {"single region", &r.single_region.eval}};
    for (const Row& row : rows) {
      Rng rng(42);  // identical dwell/walk sequence for all schemes
      const ApplicationStats s = simulate_application(
          design, *row.eval, app, MarkovChain::uniform(n), 3000, rng);
      t.add_row({fixed(dwell_ms, 0) + " ms", row.name,
                 fixed(100.0 * s.availability, 2) + "%",
                 with_commas(static_cast<std::uint64_t>(s.items_lost)),
                 fixed(100.0 * s.loss_fraction, 3) + "%"});
    }
    t.add_rule();
  }
  std::cout << t.render();
  std::cout << "\nReading: at aggressive adaptation rates the partitioning "
               "choice decides a multi-point availability gap; as dwells "
               "grow the schemes converge, which is why the paper targets "
               "fast-adapting systems.\n";
  return 0;
}
