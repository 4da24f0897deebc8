#include "server/job.hpp"

#include "core/schemes.hpp"

namespace prpart::server {

const Device& TargetRun::placement_device() const {
  if (!placement) throw DeviceError("no library device covers the budget");
  return *placement;
}

TargetRun run_target(const Design& design, const PartitionRequest& request,
                     const DeviceLibrary& library) {
  TargetRun run;
  if (request.budget) {
    run.budget = *request.budget;
    run.result = partition_design(design, run.budget, request.options);
    run.placement = library.smallest_fitting(run.budget);
  } else if (!request.device.empty()) {
    run.placement = &library.by_name(request.device);
    run.device_name = run.placement->name();
    run.budget = run.placement->capacity();
    run.result = partition_design(design, run.budget, request.options);
  } else {
    DevicePartitionResult dp =
        partition_on_smallest_device(design, library, request.options);
    run.placement = dp.device;
    run.device_name = dp.device->name();
    run.budget = dp.device->capacity();
    run.result = std::move(dp.result);
    run.walk = dp.walk;
  }
  return run;
}

std::optional<analysis::InfeasibilityProof> precheck_target(
    const Design& design, const PartitionRequest& request,
    const DeviceLibrary& library) {
  if (request.budget)
    return analysis::prove_infeasible(design, *request.budget, library,
                                      "budget");
  if (request.device.empty()) return std::nullopt;
  const Device& device = library.by_name(request.device);
  return analysis::prove_infeasible(design, device.capacity(), library,
                                    device.name());
}

std::string does_not_fit(const Design& design, const ResourceVec& budget) {
  return "design does not fit the target (lower bound " +
         single_region_footprint(design).to_string() + ", budget " +
         budget.to_string() + ")";
}

std::optional<SchemeEvaluation> placement_true(const Device& device,
                                               SchemeEvaluation eval) {
  const PlacedFloorplan plan = floorplan_scheme(device, eval);
  if (!plan.feasible) return std::nullopt;
  return with_placement_frames(std::move(eval), plan);
}

sim::SimulationOptions simulation_options(const SimulateParams& params,
                                          const MarkovChain& env) {
  sim::SimulationOptions options;
  options.prefetch = params.prefetch;
  options.predictor = &env;
  options.inter_arrival_ns = params.inter_arrival_ns;
  return options;
}

JobRun run_job(const Design& design, const PartitionRequest& request,
               const std::optional<SimulateParams>& simulate,
               const std::optional<FloorplanParams>& floorplan,
               const DeviceLibrary& library) {
  JobRun out;
  try {
    const TargetRun run = run_target(design, request, library);
    out.walk = run.walk;
    out.search = run.result.stats;
    if (!run.result.feasible) {
      out.infeasible = does_not_fit(design, run.budget);
    } else if (floorplan) {
      const FloorplanRerank rerank = floorplan_rerank(
          design, run.result, run.placement_device(), run.budget,
          floorplan->rerank_options(), &library);
      out.floorplanned = rerank.ranked.size();
      out.vetoed = rerank.vetoed_count;
      out.overturned = rerank.overturned;
      if (!rerank.any_feasible)
        out.infeasible = "no enumerated scheme has a legal floorplan on " +
                         run.placement_device().name();
      else
        out.payload = floorplan_result_json(design, run.result, rerank,
                                            run.device_name, run.budget)
                          .dump();
    } else if (simulate) {
      std::optional<SchemeEvaluation> eval = run.result.proposed.eval;
      if (simulate->floorplan) {
        eval = placement_true(run.placement_device(), std::move(*eval));
        out.floorplanned = 1;
        out.vetoed = eval ? 0 : 1;
        if (!eval) {
          out.infeasible = "the proposed scheme has no legal floorplan on " +
                           run.placement->name();
          return out;
        }
      }
      const SimulateSetup setup =
          simulate_setup(design.configurations().size(), *simulate);
      out.replay =
          sim::simulate_scheme(design, run.result.proposed.scheme, *eval,
                               setup.trace,
                               simulation_options(*simulate, setup.env));
      out.payload = simulate_result_json(
                        design, run.device_name, run.budget, *simulate,
                        setup.source, setup.trace.transitions(),
                        {SimulatedScheme{"proposed", eval->total_frames,
                                         eval->worst_frames, *out.replay}})
                        .dump();
    } else {
      out.payload = partition_result_json(design, run.result, run.device_name,
                                          run.budget)
                        .dump();
    }
  } catch (const DeviceError& e) {
    // The walk's lower bound ruled out every device, building none.
    if (!out.search && request.device.empty() && !request.budget)
      out.walk =
          WalkStats{.devices_skipped_infeasible = library.devices().size()};
    out.infeasible = e.what();
  }
  return out;
}

}  // namespace prpart::server
