#pragma once

#include <optional>
#include <string>

#include "analysis/analyzer.hpp"
#include "floorplan/rerank.hpp"
#include "server/protocol.hpp"

// The job engine of the Fig. 2 flow (target, partition, floorplan, replay),
// shared by the server worker and the one-shot `prpart partition`,
// `floorplan`, `simulate` and `bitstreams` commands.
namespace prpart::server {

/// One job's target after partitioning.
struct TargetRun {
  PartitionerResult result;
  std::string device_name;  ///< the named or walked device; "" for a budget
  ResourceVec budget;       ///< what the design was partitioned against
  /// The named or walked device, or for a budget the first library device
  /// covering it (nullptr when none does): where the floorplan stages place.
  const Device* placement = nullptr;
  std::optional<WalkStats> walk;  ///< set by the smallest-device walk

  /// `placement`; throws DeviceError when it is null.
  const Device& placement_device() const;
};

/// Partitions `design` with `request.options` on `request`'s target: the
/// budget, else the named device, else the smallest-device walk (which
/// throws DeviceError when no library device can hold the design).
TargetRun run_target(const Design& design, const PartitionRequest& request,
                     const DeviceLibrary& library);

/// The lower-bound pre-check of an explicit target (budget, else named
/// device): the proof that no scheme fits it, nullopt when the bound fits
/// or the target is the walk.
std::optional<analysis::InfeasibilityProof> precheck_target(
    const Design& design, const PartitionRequest& request,
    const DeviceLibrary& library);

/// "design does not fit the target (lower bound L, budget B)", L being
/// single_region_footprint, the bound the pre-check proves against.
std::string does_not_fit(const Design& design, const ResourceVec& budget);

/// The simulate stage's `floorplan` patch: `eval` with the frame counts of
/// its rectangles on `device`, or nullopt when the ladder vetoes it.
std::optional<SchemeEvaluation> placement_true(const Device& device,
                                               SchemeEvaluation eval);

/// The replay options `params` describes, predicting with `env`.
sim::SimulationOptions simulation_options(const SimulateParams& params,
                                          const MarkovChain& env);

/// One served job's answer and the counters the server folds into its
/// stats.
struct JobRun {
  std::string payload;     ///< the result JSON when `infeasible` is empty
  std::string infeasible;  ///< the message of an `infeasible` answer
  std::optional<WalkStats> walk;
  std::optional<SearchStats> search;
  std::size_t floorplanned = 0;  ///< schemes placed; 0 when no stage ran
  std::size_t vetoed = 0;
  bool overturned = false;
  std::optional<sim::SimulationResult> replay;
};

/// Runs a `partition` job, or with `floorplan` or `simulate` set that job,
/// through every stage. No fitting device, an infeasible partition and a
/// vetoed floorplan all answer `infeasible`; a cancelled search throws.
JobRun run_job(const Design& design, const PartitionRequest& request,
               const std::optional<SimulateParams>& simulate,
               const std::optional<FloorplanParams>& floorplan,
               const DeviceLibrary& library);

}  // namespace prpart::server
