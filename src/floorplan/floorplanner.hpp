#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "device/device.hpp"
#include "device/tiles.hpp"
#include "floorplan/geometry.hpp"

namespace prpart {

/// Placement of one reconfigurable region on the device: a rectangle of
/// whole tiles, `height` rows tall starting at `row`, spanning columns
/// [col, col + width).
struct RegionPlacement {
  std::size_t region = 0;  ///< index into the scheme's regions
  std::uint32_t row = 0;
  std::uint32_t height = 0;
  std::uint32_t col = 0;
  std::uint32_t width = 0;
  TileCount provided;  ///< tiles of each type inside the rectangle
};

struct FloorplanResult {
  bool success = false;
  /// Index of the first region that could not be placed (valid when
  /// !success).
  std::size_t failed_region = 0;
  std::vector<RegionPlacement> placements;
};

/// How rectangles are chosen among feasible positions.
enum class PlacementStrategy {
  /// First feasible rectangle in (height, row, column) scan order; fast and
  /// compact for most designs.
  FirstFit,
  /// Among all feasible rectangles, the one wasting the fewest frames
  /// (provided minus required); slower, but leaves more contiguous space
  /// for later regions on fragmented devices.
  BestFit,
};

struct FloorplanOptions {
  PlacementStrategy strategy = PlacementStrategy::FirstFit;
};

/// Aggregate quality metrics of a floorplan.
struct FloorplanStats {
  std::uint64_t required_frames = 0;  ///< sum of tile-rounded requirements
  std::uint64_t provided_frames = 0;  ///< frames inside the rectangles
  std::uint64_t waste_frames = 0;     ///< provided - required
  double device_utilization = 0.0;    ///< provided / device frames
};

/// Computes the stats of a successful placement against its requirements.
FloorplanStats floorplan_stats(const Device& device,
                               const std::vector<TileCount>& requirements,
                               const std::vector<RegionPlacement>& placements);

/// Architecture-aware floorplanner for PR regions (substrate for the
/// paper's reference [11], step 5 of the tool flow); the placement ladder's
/// greedy rung.
///
/// Regions are rectangles of whole tiles, aligned to the device's
/// row/column grid (Fig. 4), non-overlapping, and each must contain at
/// least the region's tile requirement of every resource type. Regions are
/// processed largest first over an occupancy grid; for each, candidate
/// rectangles are scanned smallest height first, then row by row, column by
/// column, each anchor's window grown rightward over free tiles until it
/// covers the requirement. FirstFit takes the first such rectangle, BestFit
/// the one wasting the fewest frames. This models the vendor constraints
/// (rectangular, tile-granular, non-overlapping) that the partitioner's
/// resource check alone cannot see — a scheme can fit by resource count yet
/// fail here. It is the placement ladder's greedy rung (floorplan_scheme).
class Floorplanner {
 public:
  explicit Floorplanner(const Device& device, FloorplanOptions options = {});

  /// Attempts to place all regions (tile requirements per region).
  FloorplanResult place(const std::vector<TileCount>& regions) const;

  /// Convenience: placement for an evaluated scheme.
  FloorplanResult place_scheme(const SchemeEvaluation& evaluation) const;

 private:
  fpgeom::ColumnPrefix geometry_;
  FloorplanOptions options_;
};

/// Floorplanner::place on a column prefix the caller already built for the
/// device (the placement ladder shares one across its rungs).
FloorplanResult greedy_place(const fpgeom::ColumnPrefix& geometry,
                             const std::vector<TileCount>& regions,
                             FloorplanOptions options = {});

/// Emits Xilinx-UCF-style area-group constraints for a floorplan, one
/// AREA_GROUP per region (step 6 of the tool flow).
std::string to_ucf(const Device& device,
                   const std::vector<RegionPlacement>& placements);

}  // namespace prpart
