#pragma once

#include <cstdint>

#include "floorplan/floorplanner.hpp"
#include "floorplan/geometry.hpp"

namespace prpart {

/// Options of the simulated-annealing floorplanner.
struct AnnealingOptions {
  std::uint64_t seed = 1;
  std::uint32_t iterations = 30'000;
  double initial_temperature = 8.0;
  /// Geometric cooling factor applied every `iterations / 100` steps.
  double cooling = 0.95;
};

/// Simulated-annealing floorplanner in the spirit of the paper's related
/// work [7] (Montone et al., "Placement and floorplanning in dynamically
/// reconfigurable FPGAs"): instead of placing regions greedily one by one,
/// all rectangles are optimised jointly. A state assigns every region a
/// rectangle that covers its tile requirement; the energy is the number of
/// pairwise-overlapping tiles, and a move re-seats one region at a random
/// anchor (height, row and column drawn uniformly) with the minimal covering
/// width there, found by binary search over the device's column prefix. A
/// zero-energy state is a legal floorplan.
///
/// Slower than the deterministic rungs but able to untangle fragmented
/// instances where largest-first commitment wedges: anneal_refine is the
/// placement ladder's last rung.
FloorplanResult anneal_place(const Device& device,
                             const std::vector<TileCount>& regions,
                             const AnnealingOptions& options = {});

/// Warm-started refinement: entries of `warm_start` with nonzero width that
/// cover their region's requirement seed the initial state; every other
/// region starts at a random anchor as in anneal_place. Used by the
/// placement ladder to hand the greedy rung's partial placement to the
/// annealer instead of throwing it away. Same determinism contract: the
/// result is a pure function of (device, regions, warm_start, options).
FloorplanResult anneal_refine(const Device& device,
                              const std::vector<TileCount>& regions,
                              const std::vector<RegionPlacement>& warm_start,
                              const AnnealingOptions& options = {});

/// anneal_refine on a column prefix the caller already built for the
/// device (the placement ladder shares one across its rungs).
FloorplanResult anneal_refine(const fpgeom::ColumnPrefix& geometry,
                              const std::vector<TileCount>& regions,
                              const std::vector<RegionPlacement>& warm_start,
                              const AnnealingOptions& options = {});

}  // namespace prpart
