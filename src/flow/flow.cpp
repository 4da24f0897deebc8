#include "flow/flow.hpp"

#include "floorplan/rerank.hpp"
#include "util/status.hpp"

namespace prpart {

namespace {

/// Partition/floorplan rounds before the flow gives up.
constexpr std::size_t kMaxIterations = 6;

}  // namespace

FlowResult run_flow(const Design& design, const Device& device,
                    const PartitionerOptions& options) {
  FlowResult result;
  result.device = &device;

  ResourceVec budget = device.capacity();
  std::string last_veto;
  for (result.iterations = 1; result.iterations <= kMaxIterations;
       ++result.iterations) {
    PartitionerResult partitioning =
        partition_design(design, budget, options);
    if (!partitioning.feasible) {
      result.failure_reason = "design does not fit " + device.name() +
                              " (budget " + budget.to_string() + ")";
      if (!last_veto.empty())
        result.failure_reason += "; last floorplan veto: " + last_veto;
      return result;
    }

    FloorplanRerank rerank =
        floorplan_rerank(design, partitioning, device, budget);
    FloorplanCandidate& front = rerank.ranked.front();
    if (rerank.any_feasible) {
      result.success = true;
      result.winner_source = front.source_index;
      result.ucf = to_ucf(device, front.plan.placements);
      partitioning.proposed.scheme = std::move(front.scheme);
      partitioning.proposed.eval = std::move(front.eval);
      result.partitioning = std::move(partitioning);
      result.floorplan = std::move(front.plan);
      return result;
    }

    // Every enumerated scheme fit by resource count but none floorplans:
    // tighten the budget so the next partitioning leaves more slack (§VI).
    last_veto = front.plan.verdict.diagnostics.front().message;
    budget = ResourceVec{budget.clbs - budget.clbs / 10,
                         budget.brams - budget.brams / 10,
                         budget.dsps - budget.dsps / 10};
    result.partitioning = std::move(partitioning);
    result.floorplan = std::move(front.plan);
  }
  --result.iterations;  // loop overshoots by one on failure
  result.failure_reason = "no floorplannable scheme within " +
                          std::to_string(kMaxIterations) +
                          " feedback iterations on " + device.name() +
                          "; last floorplan veto: " + last_veto;
  return result;
}

FlowResult run_flow_auto_device(const Design& design,
                                const DeviceLibrary& library,
                                const PartitionerOptions& options) {
  require(!library.devices().empty(), "device library is empty");
  FlowResult last;
  for (const Device& device : library.devices()) {
    last = run_flow(design, device, options);
    if (last.success) return last;
  }
  throw DeviceError("design '" + design.name() +
                    "' completes the flow on no device in the library (last: " +
                    last.failure_reason + ")");
}

}  // namespace prpart
