#include "benchlib/application.hpp"

#include <algorithm>
#include <cmath>

#include "reconfig/controller.hpp"
#include "util/status.hpp"

namespace prpart {

ApplicationStats simulate_application(const Design& design,
                                      const SchemeEvaluation& evaluation,
                                      const ApplicationModel& app,
                                      const MarkovChain& environment,
                                      std::size_t transitions, Rng& rng,
                                      IcapModel icap) {
  const std::size_t n = design.configurations().size();
  require(app.items_per_second.size() == n,
          "ApplicationModel must give a rate per configuration");
  require(environment.states() == n,
          "environment chain does not match the design");
  require(app.mean_dwell_ns > 0 && app.arrival_items_per_second > 0,
          "ApplicationModel rates must be positive");

  ReconfigurationController ctl(design, evaluation, icap);
  ctl.boot(0);

  ApplicationStats stats;
  std::size_t state = 0;
  const double arrival_per_ns = app.arrival_items_per_second * 1e-9;

  for (std::size_t t = 0; t < transitions; ++t) {
    // Dwell: exponential with the configured mean.
    const double u = std::max(1e-12, 1.0 - rng.uniform01());
    const double dwell_ns = -app.mean_dwell_ns * std::log(u);
    const double rate_per_ns = app.items_per_second[state] * 1e-9;
    const double arrived = arrival_per_ns * dwell_ns;
    const double processed = std::min(arrived, rate_per_ns * dwell_ns);
    stats.uptime_ns += static_cast<std::uint64_t>(dwell_ns);
    stats.items_arrived += arrived;
    stats.items_processed += processed;
    stats.items_lost += arrived - processed;  // rate shortfall

    // Switch: everything arriving during the stall is lost.
    const std::size_t next = environment.sample_next(rng, state);
    std::uint64_t stall_ns = 0;
    for (const ReconfigEvent& ev : ctl.transition(next)) stall_ns += ev.ns;
    stats.stall_ns += stall_ns;
    const double lost_in_stall =
        arrival_per_ns * static_cast<double>(stall_ns);
    stats.items_arrived += lost_in_stall;
    stats.items_lost += lost_in_stall;
    state = next;
    ++stats.transitions;
  }

  const double total_ns =
      static_cast<double>(stats.uptime_ns + stats.stall_ns);
  stats.availability =
      total_ns > 0 ? static_cast<double>(stats.uptime_ns) / total_ns : 1.0;
  stats.loss_fraction =
      stats.items_arrived > 0 ? stats.items_lost / stats.items_arrived : 0.0;
  return stats;
}

}  // namespace prpart
