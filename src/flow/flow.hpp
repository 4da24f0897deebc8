#pragma once

#include <string>

#include "core/partitioner.hpp"
#include "floorplan/placement.hpp"

namespace prpart {

/// What the tool flow of Fig. 2 decides for one design on one device: the
/// partitioning and the floorplan with UCF constraints. The partial
/// bitstreams (step 7) follow from the winner by generate_bitstreams.
struct FlowResult {
  bool success = false;
  std::string failure_reason;
  const Device* device = nullptr;
  /// The partitioning of the last iteration that reached the floorplan
  /// stage. On success `proposed` holds the placement ladder's winner: its
  /// scheme and its placement-true evaluation, from which its bitstreams
  /// are generated.
  PartitionerResult partitioning;
  /// The winner's floorplan; on failure, the vetoed floorplan of that
  /// iteration's Eq. 10 winner.
  PlacedFloorplan floorplan;
  std::string ucf;
  /// 1 = floorplanned on the first try; >1 = feedback iterations used.
  std::size_t iterations = 0;
  /// The winner's position in the search's ranking (0 = the Eq. 10 winner),
  /// as FloorplanRerank::winner_source.
  std::size_t winner_source = 0;
};

/// Runs the whole flow on a fixed device: partition (steps 1-4), floorplan
/// the top-K schemes through the placement ladder (floorplan_rerank, step
/// 5) and constraints (step 6). When the ladder vetoes
/// every scheme, the budget shrinks by 10% and the design is re-partitioned
/// (the paper's §VI feedback), at most 6 times. `options.search.threads`
/// scales the search inside every iteration without changing its answer.
FlowResult run_flow(const Design& design, const Device& device,
                    const PartitionerOptions& options = {});

/// Device-selection variant: walks the library from the smallest device up
/// and returns the first device where the full flow (including
/// floorplanning) succeeds. Throws DeviceError when none works.
FlowResult run_flow_auto_device(const Design& design,
                                const DeviceLibrary& library,
                                const PartitionerOptions& options = {});

}  // namespace prpart
