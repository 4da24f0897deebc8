#pragma once

#include <cstdint>
#include <vector>

#include "device/device.hpp"
#include "device/tiles.hpp"

namespace prpart::fpgeom {

inline bool covers(const TileCount& have, const TileCount& need) {
  return have.clb_tiles >= need.clb_tiles &&
         have.bram_tiles >= need.bram_tiles &&
         have.dsp_tiles >= need.dsp_tiles;
}

inline std::uint64_t total_tiles(const TileCount& t) {
  return std::uint64_t{t.clb_tiles} + t.bram_tiles + t.dsp_tiles;
}

/// Columns of each type in `type_cols`, `height` rows tall, as tiles.
inline TileCount tiles_of(const TileCount& type_cols, std::uint32_t height) {
  return {type_cols.clb_tiles * height, type_cols.bram_tiles * height,
          type_cols.dsp_tiles * height};
}

/// Column prefix sums of one device: entry c counts the columns of each
/// type in [0, c), so a window's column mix and a rectangle's tiles are
/// O(1) queries. Built once per ladder call and shared by every rung.
class ColumnPrefix {
 public:
  explicit ColumnPrefix(const Device& device) : rows_(device.rows()) {
    prefix_.reserve(device.columns().size() + 1);
    TileCount running;
    prefix_.push_back(running);
    for (BlockType t : device.columns()) {
      switch (t) {
        case BlockType::Clb: ++running.clb_tiles; break;
        case BlockType::Bram: ++running.bram_tiles; break;
        case BlockType::Dsp: ++running.dsp_tiles; break;
      }
      prefix_.push_back(running);
    }
  }

  std::uint32_t rows() const { return rows_; }
  std::uint32_t cols() const {
    return static_cast<std::uint32_t>(prefix_.size() - 1);
  }

  /// Columns (not tiles) of each type in [col, col + width).
  TileCount columns(std::uint32_t col, std::uint32_t width) const {
    const TileCount& lo = prefix_[col];
    const TileCount& hi = prefix_[col + width];
    return {hi.clb_tiles - lo.clb_tiles, hi.bram_tiles - lo.bram_tiles,
            hi.dsp_tiles - lo.dsp_tiles};
  }

  /// Tiles of each type a rectangle of `height` rows over columns
  /// [col, col + width) provides.
  TileCount rect_tiles(std::uint32_t height, std::uint32_t col,
                       std::uint32_t width) const {
    return tiles_of(columns(col, width), height);
  }

  /// Narrowest width in [1, max_width] whose rectangle at (height, col)
  /// covers `need`, or 0 when even max_width does not. Coverage is monotone
  /// in the width, so this binary search returns the width a column-by-
  /// column scan would stop at.
  std::uint32_t min_covering_width(std::uint32_t height, std::uint32_t col,
                                   std::uint32_t max_width,
                                   const TileCount& need) const {
    if (max_width == 0 || !covers(rect_tiles(height, col, max_width), need))
      return 0;
    std::uint32_t lo = 1;
    std::uint32_t hi = max_width;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (covers(rect_tiles(height, col, mid), need))
        hi = mid;
      else
        lo = mid + 1;
    }
    return lo;
  }

 private:
  std::uint32_t rows_;
  std::vector<TileCount> prefix_;
};

}  // namespace prpart::fpgeom
