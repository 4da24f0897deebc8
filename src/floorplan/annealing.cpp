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

/// Overlapping tile count of two rectangles; 0 when either is empty. No
/// branches: the annealer calls it for every pair a move touches, and
/// whether two random rectangles meet is a coin flip to the predictor.
std::uint64_t overlap(const RegionPlacement& a, const RegionPlacement& b) {
  const std::uint32_t row_lo = std::max(a.row, b.row);
  const std::uint32_t row_hi = std::min(a.row + a.height, b.row + b.height);
  const std::uint32_t col_lo = std::max(a.col, b.col);
  const std::uint32_t col_hi = std::min(a.col + a.width, b.col + b.width);
  const std::uint64_t rows = row_hi > row_lo ? row_hi - row_lo : 0;
  const std::uint64_t cols = col_hi > col_lo ? col_hi - col_lo : 0;
  return rows * cols;
}

/// The annealer's random rectangles. A sample draws a height, a row and a
/// column with the values and next() calls Rng::uniform would use, through
/// BoundedDraws built once per run for the only ranges it draws from:
/// [1, rows], [0, rows - height] for every height, and [0, cols - 1]. The
/// minimal covering width at an anchor depends only on (region, height,
/// col), so each is searched once and memoised.
class RectangleSampler {
 public:
  RectangleSampler(const ColumnPrefix& geometry,
                   const std::vector<TileCount>& regions)
      : geometry_(geometry),
        regions_(regions),
        col_draw_(geometry.cols()),
        widths_(regions.size() * geometry.rows() * geometry.cols(), kUnknown) {
    below_.reserve(geometry.rows());
    for (std::uint32_t n = 1; n <= geometry.rows(); ++n) below_.emplace_back(n);
  }

  /// Samples a random rectangle for `region`: uniform anchor, minimal
  /// width. Returns false when no rectangle fits at the sampled anchor.
  bool sample(Rng& rng, std::size_t region, RegionPlacement& out) {
    const std::uint32_t rows = geometry_.rows();
    const std::uint32_t cols = geometry_.cols();
    // uniform(1, rows), uniform(0, rows - height), uniform(0, cols - 1).
    const auto height = static_cast<std::uint32_t>(below_[rows - 1](rng) + 1);
    const auto row = static_cast<std::uint32_t>(below_[rows - height](rng));
    const auto col = static_cast<std::uint32_t>(col_draw_(rng));
    std::uint32_t& memo =
        widths_[(region * rows + height - 1) * cols + col];
    if (memo == kUnknown)
      memo = geometry_.min_covering_width(height, col, cols - col,
                                          regions_[region]);
    if (memo == 0) return false;
    out = RegionPlacement{region, row, height, col, memo,
                          geometry_.rect_tiles(height, col, memo)};
    return true;
  }

 private:
  static constexpr std::uint32_t kUnknown = ~std::uint32_t{0};

  const ColumnPrefix& geometry_;
  const std::vector<TileCount>& regions_;
  std::vector<BoundedDraw> below_;  ///< below_[n - 1] draws below n
  BoundedDraw col_draw_;
  /// (region, height - 1, col) -> min_covering_width, or kUnknown.
  std::vector<std::uint32_t> widths_;
};

/// Shared body of anneal_place / anneal_refine; `warm_start` may be null.
FloorplanResult anneal_impl(const ColumnPrefix& geometry,
                            const std::vector<TileCount>& regions,
                            const std::vector<RegionPlacement>* warm_start,
                            const AnnealingOptions& options) {
  require(options.iterations > 0, "annealing needs at least one iteration");
  require(options.cooling > 0.0 && options.cooling < 1.0,
          "cooling factor must be in (0, 1)");
  Rng rng(options.seed);
  RectangleSampler sampler(geometry, regions);

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
      seeded = sampler.sample(rng, r, result.placements[r]);
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

  // The energy as a pairwise overlap matrix with row sums: a region's
  // share of the energy is its row sum, so a move costs one candidate row
  // (O(m)) and an accepted move patches that row and column. The sums are
  // exact integers, equal to a sweep over the other regions.
  const std::size_t m = movable.size();
  const auto placed = [&](std::size_t i) -> const RegionPlacement& {
    return result.placements[movable[i]];
  };
  std::vector<std::uint64_t> pair_overlap(m * m, 0);
  std::vector<std::uint64_t> row_sum(m, 0);
  std::uint64_t energy = 0;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i + 1; j < m; ++j) {
      const std::uint64_t o = overlap(placed(i), placed(j));
      pair_overlap[i * m + j] = pair_overlap[j * m + i] = o;
      row_sum[i] += o;
      row_sum[j] += o;
      energy += o;
    }

  const BoundedDraw pick(m);
  std::vector<std::uint64_t> candidate_row(m, 0);
  double temperature = options.initial_temperature;
  const std::uint32_t cool_every = std::max(1u, options.iterations / 100);
  std::uint32_t until_cool = cool_every;

  for (std::uint32_t it = 0; it < options.iterations && energy > 0; ++it) {
    // Cooling ticks on iterations (it + 1) % cool_every == 0 whose sample
    // fit; a move that samples no rectangle skips it.
    const bool cool = --until_cool == 0;
    if (cool) until_cool = cool_every;
    const std::size_t i = pick(rng);
    RegionPlacement candidate;
    if (!sampler.sample(rng, movable[i], candidate)) continue;

    const std::uint64_t before = row_sum[i];
    std::uint64_t after = 0;
    for (std::size_t j = 0; j < m; ++j) {
      candidate_row[j] = overlap(candidate, placed(j));
      after += candidate_row[j];
    }
    after -= candidate_row[i];  // the region's own old rectangle
    candidate_row[i] = 0;

    const double delta =
        static_cast<double>(after) - static_cast<double>(before);
    const bool accept =
        delta <= 0.0 || rng.uniform01() < std::exp(-delta / temperature);
    if (accept) {
      energy = energy - before + after;
      result.placements[movable[i]] = candidate;
      for (std::size_t j = 0; j < m; ++j) {
        row_sum[j] += candidate_row[j] - pair_overlap[i * m + j];
        pair_overlap[i * m + j] = pair_overlap[j * m + i] = candidate_row[j];
      }
      row_sum[i] = after;
    }

    if (cool) temperature = std::max(1e-3, temperature * options.cooling);
  }

  if (energy == 0) {
    result.success = true;
  } else {
    // Report one of the still-overlapping regions.
    for (std::size_t i = 0; i < m; ++i)
      if (row_sum[i] > 0) {
        result.failed_region = movable[i];
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
