#include "oracle/simulator_reference.hpp"

#include <bit>
#include <map>

#include "reconfig/controller.hpp"
#include "reconfig/icap_datapath.hpp"
#include "util/status.hpp"

namespace prpart::oracle {

using sim::SimulationOptions;
using sim::SimulationResult;
using sim::TransitionTrace;

namespace {

/// Nearest-rank percentile over an ascending (value, count) table.
std::uint64_t percentile(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& counts,
    std::uint64_t total, double q) {
  if (total == 0) return 0;
  // Nearest-rank: the smallest value whose cumulative count reaches
  // ceil(q * total).
  const double exact = q * static_cast<double>(total);
  std::uint64_t rank = static_cast<std::uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (const auto& [value, count] : counts) {
    cumulative += count;
    if (cumulative >= rank) return value;
  }
  return counts.back().first;
}

void finalize(SimulationResult& result,
              const std::map<std::uint64_t, std::uint64_t>& latencies,
              std::uint64_t makespan_ns) {
  result.latency_counts.assign(latencies.begin(), latencies.end());
  result.makespan_ns = makespan_ns;
  result.p50_latency_ns = percentile(result.latency_counts, result.transitions, 0.50);
  result.p95_latency_ns = percentile(result.latency_counts, result.transitions, 0.95);
  result.p99_latency_ns = percentile(result.latency_counts, result.transitions, 0.99);
  if (!result.latency_counts.empty())
    result.max_latency_ns = result.latency_counts.back().first;
  if (makespan_ns > 0)
    result.transitions_per_second = static_cast<double>(result.transitions) *
                                    1e9 / static_cast<double>(makespan_ns);
}

}  // namespace

SimulationResult simulate_scheme_reference(const Design& design,
                                           const PartitionScheme& scheme,
                                           const SchemeEvaluation& evaluation,
                                           const TransitionTrace& trace,
                                           const SimulationOptions& options) {
  const std::size_t nconf = design.configurations().size();
  require(evaluation.valid, "cannot simulate an invalid scheme");
  require(evaluation.regions.size() == scheme.regions.size(),
          "evaluation does not match scheme");
  require(trace.configs.size() >= 2,
          "a trace needs a boot configuration and at least one transition");
  for (const std::uint32_t c : trace.configs)
    require(c < nconf, "trace configuration id out of range");

  SimulationResult result;
  std::map<std::uint64_t, std::uint64_t> latencies;
  IcapDatapath datapath(options.icap);

  const auto serve = [&](std::uint64_t frames, std::uint64_t index) {
    // Closed loop submits the moment the port is free; a fixed arrival
    // period submits on the environment's clock and eats queueing delay.
    const std::uint64_t submit_ns =
        options.inter_arrival_ns == 0
            ? datapath.ready_ns()
            : index * options.inter_arrival_ns;
    const IcapCompletion done =
        datapath.submit(IcapRequest{submit_ns, frames});
    const std::uint64_t latency = done.done_ns - submit_ns;
    ++result.transitions;
    result.frames_loaded += frames;
    result.total_latency_ns += latency;
    ++latencies[latency];
  };

  if (!options.prefetch) {
    // Memoryless pairwise cost: transition i -> j loads exactly the regions
    // whose active members differ (Eq. 8 per transition). Precomputing the
    // C x C matrices keeps multi-million-step replays at O(1) per step.
    const TransitionMatrices cost = transition_matrices(evaluation, nconf);
    for (std::size_t k = 1; k < trace.configs.size(); ++k) {
      const std::uint32_t from = trace.configs[k - 1];
      const std::uint32_t to = trace.configs[k];
      result.region_loads += cost.loads[from][to];
      serve(cost.frames[from][to], k - 1);
    }
  } else {
    // Stateful stale-content replay: region contents persist across
    // transitions and idle regions are prefetched for the predicted
    // successor, so only the residual loads hit the critical path.
    require(options.predictor != nullptr,
            "prefetching simulation needs a predictor chain");
    ReconfigurationController controller(
        design, evaluation, options.icap,
        PrefetchPolicy{*options.predictor, options.idle_frames_budget});
    controller.boot(trace.configs.front());
    for (std::size_t k = 1; k < trace.configs.size(); ++k) {
      std::uint64_t frames = 0;
      for (const ReconfigEvent& ev : controller.transition(trace.configs[k]))
        frames += ev.frames;
      serve(frames, k - 1);
    }
    const RuntimeStats& rs = controller.stats();
    result.region_loads = rs.region_loads;
    result.prefetched_frames = rs.prefetched_frames;
    result.useful_prefetches = rs.useful_prefetches;
    result.wasted_prefetches = rs.wasted_prefetches;
  }

  finalize(result, latencies, datapath.stats().last_done_ns);
  return result;
}

std::string describe(const SimulationResult& r) {
  std::string out =
      "transitions " + std::to_string(r.transitions) + " frames " +
      std::to_string(r.frames_loaded) + " loads " +
      std::to_string(r.region_loads) + " prefetch " +
      std::to_string(r.prefetched_frames) + "/" +
      std::to_string(r.useful_prefetches) + "/" +
      std::to_string(r.wasted_prefetches) + " latency " +
      std::to_string(r.total_latency_ns) + " p " +
      std::to_string(r.p50_latency_ns) + "/" +
      std::to_string(r.p95_latency_ns) + "/" +
      std::to_string(r.p99_latency_ns) + "/" +
      std::to_string(r.max_latency_ns) + " makespan " +
      std::to_string(r.makespan_ns) + " tps-bits " +
      std::to_string(std::bit_cast<std::uint64_t>(r.transitions_per_second)) +
      " counts";
  for (const auto& [latency, count] : r.latency_counts)
    out += " " + std::to_string(latency) + "x" + std::to_string(count);
  return out;
}

}  // namespace prpart::oracle
