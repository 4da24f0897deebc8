#include "oracle/floorplan_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <tuple>

#include "util/rng.hpp"
#include "util/status.hpp"

namespace prpart::oracle {

namespace {

/// Tiles of each type a rectangle of `height` rows over columns
/// [col, col + width) provides.
TileCount rect_tiles(const Device& device, std::uint32_t height,
                     std::uint32_t col, std::uint32_t width) {
  TileCount t;
  for (std::uint32_t c = col; c < col + width; ++c) {
    switch (device.columns()[c]) {
      case BlockType::Clb: t.clb_tiles += height; break;
      case BlockType::Bram: t.bram_tiles += height; break;
      case BlockType::Dsp: t.dsp_tiles += height; break;
    }
  }
  return t;
}

bool covers(const TileCount& have, const TileCount& need) {
  return have.clb_tiles >= need.clb_tiles &&
         have.bram_tiles >= need.bram_tiles &&
         have.dsp_tiles >= need.dsp_tiles;
}

std::uint64_t total_tiles(const TileCount& t) {
  return std::uint64_t{t.clb_tiles} + t.bram_tiles + t.dsp_tiles;
}

std::uint32_t ceil_div(std::uint32_t a, std::uint32_t b) {
  return (a + b - 1) / b;
}

}  // namespace

// ---------------------------------------------------------------- skyline

FloorplanResult skyline_place_reference(const Device& device,
                                        const std::vector<TileCount>& regions) {
  const std::uint32_t rows = device.rows();
  const auto cols = static_cast<std::uint32_t>(device.columns().size());
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
      TileCount type_cols;  // columns (not tiles) of each type in the window
      std::uint32_t base = 0;
      for (std::uint32_t width = 1; col + width <= cols; ++width) {
        const std::uint32_t c = col + width - 1;
        switch (device.columns()[c]) {
          case BlockType::Clb: ++type_cols.clb_tiles; break;
          case BlockType::Bram: ++type_cols.bram_tiles; break;
          case BlockType::Dsp: ++type_cols.dsp_tiles; break;
        }
        base = std::max(base, top[c]);
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
        const TileCount have = rect_tiles(device, height, col, width);
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

// ----------------------------------------------------------------- greedy

FloorplanResult greedy_place_reference(const Device& device,
                                       const std::vector<TileCount>& regions,
                                       FloorplanOptions options) {
  const auto rows = device.rows();
  const auto cols = static_cast<std::uint32_t>(device.columns().size());

  // Occupancy grid: free[r][c] == true when the tile is unallocated.
  std::vector<std::vector<bool>> free(
      rows, std::vector<bool>(cols, true));

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
        for (std::uint32_t col = 0; col < cols && !placed; ++col) {
          // Grow the window rightward while all tiles are free.
          TileCount have;
          for (std::uint32_t end = col; end < cols; ++end) {
            bool column_free = true;
            for (std::uint32_t r = row; r < row + height; ++r)
              column_free = column_free && free[r][end];
            if (!column_free) break;
            have = rect_tiles(device, height, col, end - col + 1);
            if (!covers(have, need)) continue;
            const std::uint32_t width = end - col + 1;
            Candidate cand{
                RegionPlacement{idx, row, height, col, width, have},
                have.frames() - need.frames()};
            if (options.strategy == PlacementStrategy::FirstFit) {
              chosen = cand;
              placed = true;  // stop all scans
            } else if (!chosen || cand.waste < chosen->waste) {
              chosen = cand;
            }
            break;  // wider windows at this col only add waste
          }
        }
      }
    }
    if (chosen) {
      const RegionPlacement& p = chosen->placement;
      for (std::uint32_t r = p.row; r < p.row + p.height; ++r)
        for (std::uint32_t c = p.col; c < p.col + p.width; ++c)
          free[r][c] = false;
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

// -------------------------------------------------------------- annealing

namespace {

/// Overlapping tile count of two rectangles.
std::uint64_t overlap(const RegionPlacement& a, const RegionPlacement& b) {
  if (a.width == 0 || b.width == 0) return 0;
  const std::uint32_t row_lo = std::max(a.row, b.row);
  const std::uint32_t row_hi = std::min(a.row + a.height, b.row + b.height);
  const std::uint32_t col_lo = std::max(a.col, b.col);
  const std::uint32_t col_hi = std::min(a.col + a.width, b.col + b.width);
  if (row_lo >= row_hi || col_lo >= col_hi) return 0;
  return std::uint64_t{row_hi - row_lo} * (col_hi - col_lo);
}

/// Samples a random rectangle for `need`: uniform anchor, minimal width.
/// Returns false when no rectangle fits at the sampled anchor.
bool sample_rectangle(Rng& rng, const Device& device, const TileCount& need,
                      std::size_t region, RegionPlacement& out) {
  const std::uint32_t rows = device.rows();
  const auto cols = static_cast<std::uint32_t>(device.columns().size());
  const auto height = static_cast<std::uint32_t>(rng.uniform(1, rows));
  const auto row =
      static_cast<std::uint32_t>(rng.uniform(0, rows - height));
  const auto col = static_cast<std::uint32_t>(rng.uniform(0, cols - 1));
  TileCount have;
  for (std::uint32_t end = col; end < cols; ++end) {
    have = rect_tiles(device, height, col, end - col + 1);
    if (covers(have, need)) {
      out = RegionPlacement{region, row, height, col, end - col + 1, have};
      return true;
    }
  }
  return false;
}

/// Shared body of anneal_place / anneal_refine; `warm_start` may be null.
FloorplanResult anneal_impl(const Device& device,
                            const std::vector<TileCount>& regions,
                            const std::vector<RegionPlacement>* warm_start,
                            const AnnealingOptions& options) {
  require(options.iterations > 0, "annealing needs at least one iteration");
  require(options.cooling > 0.0 && options.cooling < 1.0,
          "cooling factor must be in (0, 1)");
  Rng rng(options.seed);

  FloorplanResult result;
  result.placements.resize(regions.size());

  // Initial state: warm-started regions keep their covering rectangle;
  // every other non-empty region starts at a random feasible anchor.
  std::vector<std::size_t> movable;
  for (std::size_t r = 0; r < regions.size(); ++r) {
    result.placements[r].region = r;
    if (total_tiles(regions[r]) == 0) continue;  // zero-area: width 0
    bool seeded = false;
    if (warm_start != nullptr) {
      for (const RegionPlacement& p : *warm_start) {
        if (p.region != r || p.width == 0) continue;
        if (p.row + p.height > device.rows() ||
            p.col + p.width > device.columns().size())
          break;
        if (!covers(p.provided, regions[r])) break;
        result.placements[r] = p;
        seeded = true;
        break;
      }
    }
    for (int attempt = 0; attempt < 256 && !seeded; ++attempt)
      seeded = sample_rectangle(rng, device, regions[r], r,
                                result.placements[r]);
    if (!seeded) {
      result.failed_region = r;  // no rectangle fits anywhere we sampled
      return result;
    }
    movable.push_back(r);
  }
  if (movable.empty()) {
    result.success = true;
    return result;
  }

  auto energy_of = [&](std::size_t r) {
    std::uint64_t e = 0;
    for (std::size_t s : movable)
      if (s != r) e += overlap(result.placements[r], result.placements[s]);
    return e;
  };
  std::uint64_t energy = 0;
  for (std::size_t i = 0; i < movable.size(); ++i)
    for (std::size_t j = i + 1; j < movable.size(); ++j)
      energy += overlap(result.placements[movable[i]],
                        result.placements[movable[j]]);

  double temperature = options.initial_temperature;
  const std::uint32_t cool_every = std::max(1u, options.iterations / 100);

  for (std::uint32_t it = 0; it < options.iterations && energy > 0; ++it) {
    const std::size_t r = movable[rng.below(movable.size())];
    RegionPlacement candidate;
    if (!sample_rectangle(rng, device, regions[r], r, candidate)) continue;

    const std::uint64_t before = energy_of(r);
    const RegionPlacement saved = result.placements[r];
    result.placements[r] = candidate;
    const std::uint64_t after = energy_of(r);

    const double delta =
        static_cast<double>(after) - static_cast<double>(before);
    const bool accept =
        delta <= 0.0 || rng.uniform01() < std::exp(-delta / temperature);
    if (accept)
      energy = energy - before + after;
    else
      result.placements[r] = saved;

    if ((it + 1) % cool_every == 0)
      temperature = std::max(1e-3, temperature * options.cooling);
  }

  if (energy == 0) {
    result.success = true;
  } else {
    // Report one of the still-overlapping regions.
    for (std::size_t r : movable)
      if (energy_of(r) > 0) {
        result.failed_region = r;
        break;
      }
  }
  return result;
}

}  // namespace

FloorplanResult anneal_place_reference(const Device& device,
                                       const std::vector<TileCount>& regions,
                                       const AnnealingOptions& options) {
  return anneal_impl(device, regions, nullptr, options);
}

FloorplanResult anneal_refine_reference(
    const Device& device, const std::vector<TileCount>& regions,
    const std::vector<RegionPlacement>& warm_start,
    const AnnealingOptions& options) {
  return anneal_impl(device, regions, &warm_start, options);
}

// ----------------------------------------------------------------- ladder

namespace {

/// Saturating element-wise difference a - b.
ResourceVec saturating_sub(const ResourceVec& a, const ResourceVec& b) {
  return {a.clbs >= b.clbs ? a.clbs - b.clbs : 0,
          a.brams >= b.brams ? a.brams - b.brams : 0,
          a.dsps >= b.dsps ? a.dsps - b.dsps : 0};
}

/// Deterministic rungs of the ladder only (no annealer): used for the
/// fix-it library walk, where speed and reproducibility matter more than
/// squeezing out the last fragmented instance.
bool deterministic_rungs_fit(const Device& device,
                             const std::vector<TileCount>& needs,
                             const ResourceVec& static_resources,
                             PlacementStrategy strategy) {
  FloorplanResult placed = skyline_place_reference(device, needs);
  if (!placed.success)
    placed = greedy_place_reference(device, needs, {strategy});
  if (!placed.success) return false;
  ResourceVec used;
  for (const RegionPlacement& p : placed.placements)
    used += p.provided.resources();
  return static_resources.fits_in(saturating_sub(device.capacity(), used));
}

/// The resource column type the failure should be pinned on, with its
/// numbers: a genuine tile shortfall when one exists, else the most
/// utilised type (a fragmentation witness).
void pick_binding(const Device& device, const std::vector<TileCount>& needs,
                  FloorplanVerdict& verdict) {
  std::uint32_t required[3] = {0, 0, 0};
  for (const TileCount& n : needs) {
    required[0] += n.clb_tiles;
    required[1] += n.bram_tiles;
    required[2] += n.dsp_tiles;
  }
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

PlacedFloorplan floorplan_scheme_reference(const Device& device,
                                           const SchemeEvaluation& evaluation,
                                           const PlacementOptions& options,
                                           const DeviceLibrary* fixit_library) {
  require(evaluation.valid, "floorplan_scheme needs a valid evaluation");

  std::vector<TileCount> needs;
  needs.reserve(evaluation.regions.size());
  for (const RegionReport& r : evaluation.regions) needs.push_back(r.tiles);

  PlacedFloorplan plan;
  FloorplanResult placed = skyline_place_reference(device, needs);
  FloorplanStage stage = FloorplanStage::Skyline;
  if (!placed.success) {
    FloorplanResult greedy_placed =
        greedy_place_reference(device, needs, {options.strategy});
    if (greedy_placed.success) {
      placed = greedy_placed;
      stage = FloorplanStage::Greedy;
    } else if (options.use_annealer) {
      // Hand the greedy rung's partial placement to the annealer as a warm
      // start; regions it never reached start at random anchors.
      placed = anneal_refine_reference(device, needs, greedy_placed.placements,
                                       options.annealing);
      stage = FloorplanStage::Annealed;
    } else {
      placed = greedy_placed;
      stage = FloorplanStage::Greedy;
    }
  }

  const auto fixit_walk = [&](FloorplanVerdict& verdict) {
    if (fixit_library == nullptr) return;
    for (const Device& d : fixit_library->devices()) {
      if (deterministic_rungs_fit(d, needs, evaluation.static_resources,
                                  options.strategy)) {
        verdict.smallest_feasible_device = d.name();
        return;
      }
    }
  };

  if (!placed.success) {
    plan.verdict.kind = FloorplanVerdict::Kind::RegionUnplaceable;
    plan.verdict.failed_region = placed.failed_region;
    pick_binding(device, needs, plan.verdict);
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

// ---------------------------------------------------------------- describe

namespace {

std::string describe(const RegionPlacement& p) {
  return "{r" + std::to_string(p.region) + " " + std::to_string(p.row) + "+" +
         std::to_string(p.height) + " " + std::to_string(p.col) + "+" +
         std::to_string(p.width) + " " + std::to_string(p.provided.clb_tiles) +
         "/" + std::to_string(p.provided.bram_tiles) + "/" +
         std::to_string(p.provided.dsp_tiles) + "}";
}

}  // namespace

std::string describe(const FloorplanResult& r) {
  std::string out =
      r.success ? "ok" : "fail@" + std::to_string(r.failed_region);
  for (const RegionPlacement& p : r.placements) out += " " + describe(p);
  return out;
}

std::string describe(const PlacedFloorplan& plan) {
  char utilization[32];
  std::snprintf(utilization, sizeof utilization, "%.17g",
                plan.stats.device_utilization);
  const FloorplanVerdict& v = plan.verdict;
  std::string out = std::string(plan.feasible ? "feasible " : "infeasible ") +
                    to_string(plan.stage);
  for (const RegionPlacement& p : plan.placements) out += " " + describe(p);
  out += " frames";
  for (std::uint64_t f : plan.placed_frames) out += " " + std::to_string(f);
  out += " stats " + std::to_string(plan.stats.required_frames) + "/" +
         std::to_string(plan.stats.provided_frames) + "/" +
         std::to_string(plan.stats.waste_frames) + "/" + utilization;
  out += " verdict " + std::to_string(static_cast<int>(v.kind)) + " r" +
         std::to_string(v.failed_region) + " " + to_string(v.binding) + " " +
         std::to_string(v.required) + "/" + std::to_string(v.available) +
         (v.fragmented ? " fragmented" : "") + " fixit=" +
         v.smallest_feasible_device;
  for (const analysis::Diagnostic& d : v.diagnostics)
    out += " [" + std::string(analysis::to_string(d.severity)) + " " + d.code +
           ": " + d.message + " | " + d.fixit + "]";
  return out;
}

}  // namespace prpart::oracle
