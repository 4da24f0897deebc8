#include "floorplan/annealing.hpp"

#include <algorithm>
#include <cmath>

#include "floorplan/geometry.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace prpart {

namespace {

using fpgeom::ColumnPrefix;
using fpgeom::covers;
using fpgeom::total_tiles;

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
bool sample_rectangle(Rng& rng, const ColumnPrefix& geometry,
                      const TileCount& need, std::size_t region,
                      RegionPlacement& out) {
  const std::uint32_t rows = geometry.rows();
  const std::uint32_t cols = geometry.cols();
  const auto height = static_cast<std::uint32_t>(rng.uniform(1, rows));
  const auto row =
      static_cast<std::uint32_t>(rng.uniform(0, rows - height));
  const auto col = static_cast<std::uint32_t>(rng.uniform(0, cols - 1));
  const std::uint32_t width =
      geometry.min_covering_width(height, col, cols - col, need);
  if (width == 0) return false;
  out = RegionPlacement{region, row, height, col, width,
                        geometry.rect_tiles(height, col, width)};
  return true;
}

/// Shared body of anneal_place / anneal_refine; `warm_start` may be null.
FloorplanResult anneal_impl(const ColumnPrefix& geometry,
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
        if (p.row + p.height > geometry.rows() ||
            p.col + p.width > geometry.cols())
          break;
        if (!covers(p.provided, regions[r])) break;
        result.placements[r] = p;
        seeded = true;
        break;
      }
    }
    for (int attempt = 0; attempt < 256 && !seeded; ++attempt)
      seeded = sample_rectangle(rng, geometry, regions[r], r,
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
    if (!sample_rectangle(rng, geometry, regions[r], r, candidate)) continue;

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

FloorplanResult anneal_place(const Device& device,
                             const std::vector<TileCount>& regions,
                             const AnnealingOptions& options) {
  return anneal_impl(ColumnPrefix(device), regions, nullptr, options);
}

FloorplanResult anneal_refine(const Device& device,
                              const std::vector<TileCount>& regions,
                              const std::vector<RegionPlacement>& warm_start,
                              const AnnealingOptions& options) {
  return anneal_impl(ColumnPrefix(device), regions, &warm_start, options);
}

FloorplanResult anneal_refine(const ColumnPrefix& geometry,
                              const std::vector<TileCount>& regions,
                              const std::vector<RegionPlacement>& warm_start,
                              const AnnealingOptions& options) {
  return anneal_impl(geometry, regions, &warm_start, options);
}

}  // namespace prpart
