#pragma once

#include <string>
#include <vector>

#include "floorplan/annealing.hpp"
#include "floorplan/floorplanner.hpp"
#include "floorplan/placement.hpp"

/// Reference placement ladder: the skyline, greedy, annealing and fix-it
/// rungs as they were written before the column-prefix geometry, summing a
/// window's tiles column by column on every query. Each function returns
/// exactly what its production counterpart in src/floorplan returns; the
/// ladder identity tests and bench_floorplan compare the two field by field.
namespace prpart::oracle {

/// skyline_place, O(cols^3) per region.
FloorplanResult skyline_place_reference(const Device& device,
                                        const std::vector<TileCount>& regions);

/// Floorplanner(device, options).place(regions) on a vector<vector<bool>>
/// occupancy grid, re-summing every grown window.
FloorplanResult greedy_place_reference(const Device& device,
                                       const std::vector<TileCount>& regions,
                                       FloorplanOptions options = {});

/// anneal_place / anneal_refine with the linear minimal-width scan.
FloorplanResult anneal_place_reference(const Device& device,
                                       const std::vector<TileCount>& regions,
                                       const AnnealingOptions& options = {});
FloorplanResult anneal_refine_reference(
    const Device& device, const std::vector<TileCount>& regions,
    const std::vector<RegionPlacement>& warm_start,
    const AnnealingOptions& options = {});

/// floorplan_scheme over the reference rungs; the fix-it walk runs the
/// reference skyline and greedy on every library device, unfiltered.
PlacedFloorplan floorplan_scheme_reference(
    const Device& device, const SchemeEvaluation& evaluation,
    const PlacementOptions& options = {},
    const DeviceLibrary* fixit_library = nullptr);

/// Every field of a result, placement by placement, as one line: equal
/// strings mean equal results, and a test failure shows both.
std::string describe(const FloorplanResult& result);
std::string describe(const PlacedFloorplan& plan);

}  // namespace prpart::oracle
