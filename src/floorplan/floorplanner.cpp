#include "floorplan/floorplanner.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "floorplan/geometry.hpp"
#include "util/status.hpp"

namespace prpart {

Floorplanner::Floorplanner(const Device& device, FloorplanOptions options)
    : geometry_(device), options_(options) {}

FloorplanResult Floorplanner::place(
    const std::vector<TileCount>& regions) const {
  return greedy_place(geometry_, regions, options_);
}

namespace {

using fpgeom::covers;
using fpgeom::total_tiles;

}  // namespace

FloorplanResult greedy_place(const fpgeom::ColumnPrefix& geometry,
                             const std::vector<TileCount>& regions,
                             FloorplanOptions options) {
  const std::uint32_t rows = geometry.rows();
  const std::uint32_t cols = geometry.cols();

  // Occupancy grid, column-major so a column's row span is contiguous:
  // taken[c * rows + r] != 0 once tile (r, c) is allocated.
  std::vector<std::uint8_t> taken(std::size_t{rows} * cols, 0);
  // For the current (height, row) band: free_run[c] is the number of
  // columns from c rightward whose band tiles are all free.
  std::vector<std::uint32_t> free_run(cols + 1, 0);

  // Largest regions first: they are the hardest to place.
  std::vector<std::size_t> order(regions.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return total_tiles(regions[a]) > total_tiles(regions[b]);
  });

  FloorplanResult result;
  result.placements.reserve(regions.size());

  for (std::size_t idx : order) {
    const TileCount& need = regions[idx];
    if (total_tiles(need) == 0) {
      // Zero-area regions (all-zero modes) need no fabric.
      result.placements.push_back(RegionPlacement{idx, 0, 0, 0, 0, {}});
      continue;
    }

    // Candidate rectangles, scanned smallest height first so compact
    // placements come first in FirstFit order.
    struct Candidate {
      RegionPlacement placement;
      std::uint64_t waste = 0;
    };
    std::optional<Candidate> chosen;
    bool placed = false;
    for (std::uint32_t height = 1; height <= rows && !placed; ++height) {
      for (std::uint32_t row = 0; row + height <= rows && !placed; ++row) {
        for (std::uint32_t c = cols; c-- > 0;) {
          const std::uint8_t* band = taken.data() + std::size_t{c} * rows + row;
          free_run[c] = std::find(band, band + height, 1) == band + height
                            ? free_run[c + 1] + 1
                            : 0;
        }
        for (std::uint32_t col = 0; col < cols && !placed; ++col) {
          // The narrowest free window at this col that covers the need;
          // wider windows only add waste.
          const std::uint32_t width =
              geometry.min_covering_width(height, col, free_run[col], need);
          if (width == 0) continue;
          const TileCount have = geometry.rect_tiles(height, col, width);
          Candidate cand{RegionPlacement{idx, row, height, col, width, have},
                         have.frames() - need.frames()};
          if (options.strategy == PlacementStrategy::FirstFit) {
            chosen = cand;
            placed = true;  // stop all scans
          } else if (!chosen || cand.waste < chosen->waste) {
            chosen = cand;
          }
        }
      }
    }
    if (chosen) {
      const RegionPlacement& p = chosen->placement;
      for (std::uint32_t c = p.col; c < p.col + p.width; ++c)
        std::fill_n(taken.data() + std::size_t{c} * rows + p.row, p.height,
                    std::uint8_t{1});
      result.placements.push_back(p);
    } else {
      result.success = false;
      result.failed_region = idx;
      return result;
    }
  }

  result.success = true;
  // Restore scheme order for callers that index by region.
  std::stable_sort(result.placements.begin(), result.placements.end(),
                   [](const RegionPlacement& a, const RegionPlacement& b) {
                     return a.region < b.region;
                   });
  return result;
}

FloorplanResult Floorplanner::place_scheme(
    const SchemeEvaluation& evaluation) const {
  std::vector<TileCount> regions;
  regions.reserve(evaluation.regions.size());
  for (const RegionReport& r : evaluation.regions) regions.push_back(r.tiles);
  return place(regions);
}

FloorplanStats floorplan_stats(const Device& device,
                               const std::vector<TileCount>& requirements,
                               const std::vector<RegionPlacement>& placements) {
  FloorplanStats stats;
  for (const RegionPlacement& p : placements) {
    require(p.region < requirements.size(),
            "placement references unknown region");
    stats.required_frames += requirements[p.region].frames();
    stats.provided_frames += p.provided.frames();
  }
  stats.waste_frames = stats.provided_frames - stats.required_frames;

  std::uint64_t device_frames = 0;
  for (std::size_t c = 0; c < device.columns().size(); ++c) {
    switch (device.columns()[c]) {
      case BlockType::Clb: device_frames += arch::kFramesPerClbTile; break;
      case BlockType::Bram: device_frames += arch::kFramesPerBramTile; break;
      case BlockType::Dsp: device_frames += arch::kFramesPerDspTile; break;
    }
  }
  device_frames *= device.rows();
  if (device_frames > 0)
    stats.device_utilization = static_cast<double>(stats.provided_frames) /
                               static_cast<double>(device_frames);
  return stats;
}

std::string to_ucf(const Device& device,
                   const std::vector<RegionPlacement>& placements) {
  // Coordinates follow the Virtex-5 site grid: a tile is 20 CLBs tall and a
  // CLB is two slices wide, so a tile at (row, col) spans slice rows
  // [row*20, row*20+19] and slice columns [col*2, col*2+1].
  std::string out;
  for (const RegionPlacement& p : placements) {
    if (p.width == 0) continue;  // zero-area region
    const std::string name = "pblock_PRR" + std::to_string(p.region + 1);
    out += "INST \"prr" + std::to_string(p.region + 1) +
           "\" AREA_GROUP = \"" + name + "\";\n";
    out += "AREA_GROUP \"" + name + "\" RANGE = SLICE_X" +
           std::to_string(p.col * 2) + "Y" + std::to_string(p.row * 20) +
           ":SLICE_X" + std::to_string((p.col + p.width) * 2 - 1) + "Y" +
           std::to_string((p.row + p.height) * 20 - 1) + ";\n";
    out += "AREA_GROUP \"" + name + "\" MODE = RECONFIG;\n";
  }
  out += "# device " + device.name() + "\n";
  return out;
}

}  // namespace prpart
