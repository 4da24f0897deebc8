#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/scheme.hpp"
#include "device/device.hpp"
#include "floorplan/annealing.hpp"
#include "floorplan/floorplanner.hpp"
#include "floorplan/geometry.hpp"

namespace prpart {

/// Deterministic skyline packer: the fast path of the placement ladder.
///
/// The state is one height per device column (the skyline). Regions are
/// placed largest first; for every (column, width) window the minimal
/// rectangle height covering the region's tile requirement is computed from
/// the window's column mix, and the candidate resting on the window's
/// skyline with the lowest resulting top — ties broken by wasted frames,
/// then leftmost column, then narrowest width — wins. No randomness, no
/// occupancy grid: a single left-to-right sweep per region, so the result
/// is a pure function of (device, regions).
FloorplanResult skyline_place(const Device& device,
                              const std::vector<TileCount>& regions);

/// skyline_place on a column prefix the caller already built for the
/// device (the placement ladder shares one across its rungs).
FloorplanResult skyline_place(const fpgeom::ColumnPrefix& geometry,
                              const std::vector<TileCount>& regions);

/// Which rung of the placement ladder produced a floorplan.
enum class FloorplanStage : std::uint8_t {
  Skyline,   ///< deterministic skyline packer
  Greedy,    ///< occupancy-grid greedy (Floorplanner, best-fit)
  Annealed,  ///< simulated-annealing refinement pass
  None,      ///< no rung succeeded
};

const char* to_string(FloorplanStage stage);

/// Typed outcome of a floorplan attempt. On failure it names the binding
/// resource column type, whether the failure is fragmentation (the tiles
/// exist but no legal rectangle packing does) or raw capacity, the smallest
/// library device that can place the scheme, and carries the same finding
/// as `analysis::Diagnostic`s for the diagnostics pipeline.
struct FloorplanVerdict {
  enum class Kind : std::uint8_t {
    Feasible,
    /// A region has no legal rectangle left. `failed_region`/`binding` are
    /// the witness.
    RegionUnplaceable,
    /// Every region placed, but the static logic does not fit in the fabric
    /// the placed rectangles leave over.
    StaticOverflow,
  };

  Kind kind = Kind::Feasible;
  /// Scheme index of the unplaceable region (RegionUnplaceable only).
  std::size_t failed_region = 0;
  /// The resource column type that ran out (scheme-wide: largest shortfall
  /// of summed tile requirements vs device tiles, or — when every type fits
  /// by count — the most utilised type).
  BlockType binding = BlockType::Clb;
  /// Summed requirement vs device stock of `binding`: tiles for
  /// RegionUnplaceable, raw resource units for StaticOverflow.
  std::uint32_t required = 0;
  std::uint32_t available = 0;
  /// True when the device has enough tiles of every type but no legal
  /// rectangle packing exists (the failure Eq. 3-5 cannot see).
  bool fragmented = false;
  /// Smallest fix-it device in the caller's library that places the scheme
  /// (skyline/greedy rungs only, for determinism and speed); "" when none
  /// does or no library was supplied.
  std::string smallest_feasible_device;
  /// The verdict rendered as diagnostics (empty when feasible); codes
  /// `floorplan-region-unplaceable` and `floorplan-static-overflow`, see
  /// docs/diagnostics.md.
  std::vector<analysis::Diagnostic> diagnostics;
};

/// Options of the placement ladder.
struct PlacementOptions {
  /// Strategy of the greedy occupancy-grid rung.
  PlacementStrategy strategy = PlacementStrategy::BestFit;
  /// Run the annealing refinement rung when the deterministic rungs fail.
  bool use_annealer = true;
  AnnealingOptions annealing;
};

/// A floorplan with placement-true frame counts.
struct PlacedFloorplan {
  bool feasible = false;
  FloorplanStage stage = FloorplanStage::None;
  /// One rectangle per region, in scheme order (width 0 for zero-area
  /// regions). Empty when infeasible.
  std::vector<RegionPlacement> placements;
  /// Frames of each region's placed rectangle, in scheme order. Always
  /// >= the Eq. 3-6 estimate of that region (the rectangle covers the tile
  /// requirement and frames are monotone in tiles).
  std::vector<std::uint64_t> placed_frames;
  FloorplanStats stats;  ///< waste/utilization; meaningful when feasible
  FloorplanVerdict verdict;
};

/// Places a valid evaluated scheme on `device` through the escalation
/// ladder: skyline -> occupancy-grid greedy -> annealer (warm-started from
/// the greedy rung's partial placement). After geometric placement the
/// static logic is checked against the fabric the rectangles leave over, so
/// a feasible result implies the scheme's total resources fit the device —
/// and hence the analysis engine's single-region lower bound does too.
///
/// `fixit_library`, when non-null, is walked smallest-first on failure to
/// fill FloorplanVerdict::smallest_feasible_device.
PlacedFloorplan floorplan_scheme(const Device& device,
                                 const SchemeEvaluation& evaluation,
                                 const PlacementOptions& options = {},
                                 const DeviceLibrary* fixit_library = nullptr);

/// Eq. 10 with placement-true frames: sum over regions of
/// reconfig_pairs x placed frames. Equals SchemeEvaluation::total_frames
/// when every rectangle is waste-free.
std::uint64_t placement_true_total(const SchemeEvaluation& evaluation,
                                   const PlacedFloorplan& plan);

/// Eq. 11 with placement-true frames: max over unordered configuration
/// pairs of the summed placed frames of the regions the pair reconfigures.
std::uint64_t placement_true_worst(const SchemeEvaluation& evaluation,
                                   const PlacedFloorplan& plan);

/// Returns `evaluation` with every region's frame count, the Eq. 10 total
/// and the Eq. 11 worst replaced by their placement-true values, so
/// downstream consumers (the simulator's ICAP replay, reports) price the
/// placed rectangles instead of the resource-vector estimate.
SchemeEvaluation with_placement_frames(SchemeEvaluation evaluation,
                                       const PlacedFloorplan& plan);

}  // namespace prpart
