#include "floorplan/placement.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "floorplan/geometry.hpp"
#include "util/status.hpp"

namespace prpart {

namespace {

using fpgeom::ColumnPrefix;
using fpgeom::covers;
using fpgeom::total_tiles;

std::uint32_t ceil_div(std::uint32_t a, std::uint32_t b) {
  return (a + b - 1) / b;
}

}  // namespace

const char* to_string(FloorplanStage stage) {
  switch (stage) {
    case FloorplanStage::Skyline: return "skyline";
    case FloorplanStage::Greedy: return "greedy";
    case FloorplanStage::Annealed: return "annealed";
    case FloorplanStage::None: return "none";
  }
  return "?";
}

FloorplanResult skyline_place(const Device& device,
                              const std::vector<TileCount>& regions) {
  return skyline_place(ColumnPrefix(device), regions);
}

FloorplanResult skyline_place(const ColumnPrefix& geometry,
                              const std::vector<TileCount>& regions) {
  const std::uint32_t rows = geometry.rows();
  const std::uint32_t cols = geometry.cols();
  std::vector<std::uint32_t> top(cols, 0);

  // Largest regions first, like the greedy floorplanner.
  std::vector<std::size_t> order(regions.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return total_tiles(regions[a]) > total_tiles(regions[b]);
                   });

  FloorplanResult result;
  result.placements.reserve(regions.size());

  for (std::size_t idx : order) {
    const TileCount& need = regions[idx];
    if (total_tiles(need) == 0) {
      result.placements.push_back(RegionPlacement{idx, 0, 0, 0, 0, {}});
      continue;
    }

    // Best candidate so far, ordered by (resulting top, wasted frames,
    // column, width) — a total order, so the packer is deterministic.
    bool found = false;
    RegionPlacement best;
    std::tuple<std::uint32_t, std::uint64_t, std::uint32_t, std::uint32_t>
        best_key;
    for (std::uint32_t col = 0; col < cols; ++col) {
      std::uint32_t base = 0;
      for (std::uint32_t width = 1; col + width <= cols; ++width) {
        base = std::max(base, top[col + width - 1]);
        // Columns (not tiles) of each type in the window.
        const TileCount type_cols = geometry.columns(col, width);
        // Minimal rectangle height covering `need` from this column mix.
        std::uint32_t height = 1;
        bool mix_ok = true;
        const std::uint32_t needs[3] = {need.clb_tiles, need.bram_tiles,
                                        need.dsp_tiles};
        const std::uint32_t have_cols[3] = {type_cols.clb_tiles,
                                            type_cols.bram_tiles,
                                            type_cols.dsp_tiles};
        for (int t = 0; t < 3 && mix_ok; ++t) {
          if (needs[t] == 0) continue;
          if (have_cols[t] == 0)
            mix_ok = false;
          else
            height = std::max(height, ceil_div(needs[t], have_cols[t]));
        }
        if (!mix_ok || base + height > rows) continue;
        const TileCount have = fpgeom::tiles_of(type_cols, height);
        const std::tuple<std::uint32_t, std::uint64_t, std::uint32_t,
                         std::uint32_t>
            key{base + height, have.frames() - need.frames(), col, width};
        if (!found || key < best_key) {
          found = true;
          best_key = key;
          best = RegionPlacement{idx, base, height, col, width, have};
        }
      }
    }
    if (!found) {
      result.success = false;
      result.failed_region = idx;
      return result;
    }
    for (std::uint32_t c = best.col; c < best.col + best.width; ++c)
      top[c] = best.row + best.height;
    result.placements.push_back(best);
  }

  result.success = true;
  std::stable_sort(result.placements.begin(), result.placements.end(),
                   [](const RegionPlacement& a, const RegionPlacement& b) {
                     return a.region < b.region;
                   });
  return result;
}

namespace {

/// Saturating element-wise difference a - b.
ResourceVec saturating_sub(const ResourceVec& a, const ResourceVec& b) {
  return {a.clbs >= b.clbs ? a.clbs - b.clbs : 0,
          a.brams >= b.brams ? a.brams - b.brams : 0,
          a.dsps >= b.dsps ? a.dsps - b.dsps : 0};
}

/// Tiles of each type summed over every region's requirement.
TileCount summed(const std::vector<TileCount>& needs) {
  TileCount sum;
  for (const TileCount& n : needs) {
    sum.clb_tiles += n.clb_tiles;
    sum.bram_tiles += n.bram_tiles;
    sum.dsp_tiles += n.dsp_tiles;
  }
  return sum;
}

/// Deterministic rungs of the ladder only (no annealer): used for the
/// fix-it library walk, where speed and reproducibility matter more than
/// squeezing out the last fragmented instance.
bool deterministic_rungs_fit(const Device& device,
                             const std::vector<TileCount>& needs,
                             const TileCount& need_sum,
                             const ResourceVec& static_resources,
                             PlacementStrategy strategy) {
  // Both rungs place disjoint rectangles that each cover their region, so
  // neither can succeed on a device with fewer tiles of some type than the
  // regions need in sum: skip it without placing anything.
  if (need_sum.clb_tiles > device.tiles_of(BlockType::Clb) ||
      need_sum.bram_tiles > device.tiles_of(BlockType::Bram) ||
      need_sum.dsp_tiles > device.tiles_of(BlockType::Dsp))
    return false;
  const ColumnPrefix geometry(device);
  FloorplanResult placed = skyline_place(geometry, needs);
  if (!placed.success) placed = greedy_place(geometry, needs, {strategy});
  if (!placed.success) return false;
  ResourceVec used;
  for (const RegionPlacement& p : placed.placements)
    used += p.provided.resources();
  return static_resources.fits_in(saturating_sub(device.capacity(), used));
}

/// The resource column type the failure should be pinned on, with its
/// numbers: a genuine tile shortfall when one exists, else the most
/// utilised type (a fragmentation witness).
void pick_binding(const Device& device, const TileCount& need_sum,
                  FloorplanVerdict& verdict) {
  const std::uint32_t required[3] = {need_sum.clb_tiles, need_sum.bram_tiles,
                                     need_sum.dsp_tiles};
  const BlockType types[3] = {BlockType::Clb, BlockType::Bram, BlockType::Dsp};
  const std::uint32_t available[3] = {device.tiles_of(BlockType::Clb),
                                      device.tiles_of(BlockType::Bram),
                                      device.tiles_of(BlockType::Dsp)};
  // Largest absolute shortfall wins; ties keep CLB < BRAM < DSP order.
  std::uint32_t worst_shortfall = 0;
  int binding = -1;
  for (int t = 0; t < 3; ++t) {
    if (required[t] <= available[t]) continue;
    const std::uint32_t shortfall = required[t] - available[t];
    if (shortfall > worst_shortfall) {
      worst_shortfall = shortfall;
      binding = t;
    }
  }
  verdict.fragmented = binding < 0;
  if (binding < 0) {
    // Every type fits by count: report the most utilised needed type
    // (compare required/available by cross-multiplication, no floats).
    for (int t = 0; t < 3; ++t) {
      if (required[t] == 0) continue;
      if (binding < 0 ||
          std::uint64_t{required[t]} * available[binding] >
              std::uint64_t{required[binding]} * available[t])
        binding = t;
    }
    if (binding < 0) binding = 0;
  }
  verdict.binding = types[binding];
  verdict.required = required[binding];
  verdict.available = available[binding];
}

std::string fixit_for(const FloorplanVerdict& verdict,
                      const DeviceLibrary* library) {
  if (!verdict.smallest_feasible_device.empty())
    return "retarget " + verdict.smallest_feasible_device;
  if (library != nullptr)
    return "no library device can place this scheme; split the largest "
           "region or shrink the budget";
  return "";
}

}  // namespace

PlacedFloorplan floorplan_scheme(const Device& device,
                                 const SchemeEvaluation& evaluation,
                                 const PlacementOptions& options,
                                 const DeviceLibrary* fixit_library) {
  require(evaluation.valid, "floorplan_scheme needs a valid evaluation");

  std::vector<TileCount> needs;
  needs.reserve(evaluation.regions.size());
  for (const RegionReport& r : evaluation.regions) needs.push_back(r.tiles);

  PlacedFloorplan plan;
  const ColumnPrefix geometry(device);
  FloorplanResult placed = skyline_place(geometry, needs);
  FloorplanStage stage = FloorplanStage::Skyline;
  if (!placed.success) {
    FloorplanResult greedy_placed =
        greedy_place(geometry, needs, {options.strategy});
    if (greedy_placed.success) {
      placed = greedy_placed;
      stage = FloorplanStage::Greedy;
    } else if (options.use_annealer) {
      // Hand the greedy rung's partial placement to the annealer as a warm
      // start; regions it never reached start at random anchors.
      placed = anneal_refine(geometry, needs, greedy_placed.placements,
                             options.annealing);
      stage = FloorplanStage::Annealed;
    } else {
      placed = greedy_placed;
      stage = FloorplanStage::Greedy;
    }
  }

  const TileCount need_sum = summed(needs);
  const auto fixit_walk = [&](FloorplanVerdict& verdict) {
    if (fixit_library == nullptr) return;
    for (const Device& d : fixit_library->devices()) {
      if (deterministic_rungs_fit(d, needs, need_sum,
                                  evaluation.static_resources,
                                  options.strategy)) {
        verdict.smallest_feasible_device = d.name();
        return;
      }
    }
  };

  if (!placed.success) {
    plan.verdict.kind = FloorplanVerdict::Kind::RegionUnplaceable;
    plan.verdict.failed_region = placed.failed_region;
    pick_binding(device, need_sum, plan.verdict);
    fixit_walk(plan.verdict);
    analysis::Diagnostic diag;
    diag.severity = analysis::Severity::Error;
    diag.code = "floorplan-region-unplaceable";
    diag.message =
        "region " + std::to_string(placed.failed_region) +
        " has no legal rectangle on " + device.name() + ": " +
        to_string(plan.verdict.binding) + " tiles required " +
        std::to_string(plan.verdict.required) + " of " +
        std::to_string(plan.verdict.available) +
        (plan.verdict.fragmented
             ? " (fragmentation: the tiles exist, no free rectangle covers "
               "them)"
             : "");
    diag.fixit = fixit_for(plan.verdict, fixit_library);
    plan.verdict.diagnostics.push_back(std::move(diag));
    return plan;
  }

  // Geometric placement succeeded: the static logic must still fit in the
  // fabric the rectangles leave over, otherwise the floorplan is feasible
  // only for the reconfigurable half of the design.
  ResourceVec used;
  for (const RegionPlacement& p : placed.placements)
    used += p.provided.resources();
  const ResourceVec free = saturating_sub(device.capacity(), used);
  if (!evaluation.static_resources.fits_in(free)) {
    plan.verdict.kind = FloorplanVerdict::Kind::StaticOverflow;
    const std::uint32_t needs3[3] = {evaluation.static_resources.clbs,
                                     evaluation.static_resources.brams,
                                     evaluation.static_resources.dsps};
    const std::uint32_t free3[3] = {free.clbs, free.brams, free.dsps};
    const BlockType types[3] = {BlockType::Clb, BlockType::Bram,
                                BlockType::Dsp};
    std::uint32_t worst = 0;
    int binding = 0;
    for (int t = 0; t < 3; ++t) {
      const std::uint32_t shortfall =
          needs3[t] > free3[t] ? needs3[t] - free3[t] : 0;
      if (shortfall > worst) {
        worst = shortfall;
        binding = t;
      }
    }
    plan.verdict.binding = types[binding];
    plan.verdict.required = needs3[binding];
    plan.verdict.available = free3[binding];
    fixit_walk(plan.verdict);
    analysis::Diagnostic diag;
    diag.severity = analysis::Severity::Error;
    diag.code = "floorplan-static-overflow";
    diag.message = "static logic needs " +
                   evaluation.static_resources.to_string() + " but only " +
                   free.to_string() + " is left outside the placed regions "
                   "on " + device.name();
    diag.fixit = fixit_for(plan.verdict, fixit_library);
    plan.verdict.diagnostics.push_back(std::move(diag));
    return plan;
  }

  plan.feasible = true;
  plan.stage = stage;
  plan.placements = std::move(placed.placements);
  plan.placed_frames.reserve(plan.placements.size());
  for (const RegionPlacement& p : plan.placements)
    plan.placed_frames.push_back(p.provided.frames());
  plan.stats = floorplan_stats(device, needs, plan.placements);
  return plan;
}

std::uint64_t placement_true_total(const SchemeEvaluation& evaluation,
                                   const PlacedFloorplan& plan) {
  require(plan.placed_frames.size() == evaluation.regions.size(),
          "floorplan does not match the evaluation");
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < evaluation.regions.size(); ++r)
    total += evaluation.regions[r].reconfig_pairs * plan.placed_frames[r];
  return total;
}

std::uint64_t placement_true_worst(const SchemeEvaluation& evaluation,
                                   const PlacedFloorplan& plan) {
  require(plan.placed_frames.size() == evaluation.regions.size(),
          "floorplan does not match the evaluation");
  if (evaluation.regions.empty()) return 0;
  const std::size_t nconf = evaluation.regions.front().active.size();
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < nconf; ++i) {
    for (std::size_t j = i + 1; j < nconf; ++j) {
      std::uint64_t pair = 0;
      for (std::size_t r = 0; r < evaluation.regions.size(); ++r) {
        const std::vector<int>& active = evaluation.regions[r].active;
        if (active[i] >= 0 && active[j] >= 0 && active[i] != active[j])
          pair += plan.placed_frames[r];
      }
      worst = std::max(worst, pair);
    }
  }
  return worst;
}

SchemeEvaluation with_placement_frames(SchemeEvaluation evaluation,
                                       const PlacedFloorplan& plan) {
  require(plan.feasible, "cannot patch frames from an infeasible floorplan");
  evaluation.total_frames = placement_true_total(evaluation, plan);
  evaluation.worst_frames = placement_true_worst(evaluation, plan);
  for (std::size_t r = 0; r < evaluation.regions.size(); ++r)
    evaluation.regions[r].frames = plan.placed_frames[r];
  return evaluation;
}

}  // namespace prpart
