#pragma once

#include <cstdint>

#include "device/resources.hpp"

namespace prpart {

/// Architecture constants of the Xilinx Virtex-5 configuration fabric, taken
/// verbatim from §IV-B of the paper (and UG191).
namespace arch {
/// Primitives per tile (one row high, one block wide).
inline constexpr std::uint32_t kClbsPerTile = 20;
inline constexpr std::uint32_t kDspsPerTile = 8;
inline constexpr std::uint32_t kBramsPerTile = 4;

/// Configuration frames per tile (W_t in Eqs. 1/6).
inline constexpr std::uint32_t kFramesPerClbTile = 36;
inline constexpr std::uint32_t kFramesPerDspTile = 28;
inline constexpr std::uint32_t kFramesPerBramTile = 30;

/// One frame holds 41 32-bit words = 1312 bits.
inline constexpr std::uint32_t kWordsPerFrame = 41;
inline constexpr std::uint32_t kBitsPerFrame = 1312;
}  // namespace arch

/// Tile requirement of a region, per resource type (Eqs. 3-5).
struct TileCount {
  std::uint32_t clb_tiles = 0;
  std::uint32_t bram_tiles = 0;
  std::uint32_t dsp_tiles = 0;

  constexpr bool operator==(const TileCount&) const = default;

  /// Total configuration frames in these tiles (Eq. 6).
  constexpr std::uint64_t frames() const {
    return std::uint64_t{clb_tiles} * arch::kFramesPerClbTile +
           std::uint64_t{bram_tiles} * arch::kFramesPerBramTile +
           std::uint64_t{dsp_tiles} * arch::kFramesPerDspTile;
  }

  /// Resources actually occupied once rounded up to whole tiles. This is
  /// what the scheme tables report (Table IV's resource columns).
  constexpr ResourceVec resources() const {
    return {clb_tiles * arch::kClbsPerTile, bram_tiles * arch::kBramsPerTile,
            dsp_tiles * arch::kDspsPerTile};
  }
};

/// Rounds a raw resource requirement up to whole tiles (Eqs. 3-5). The paper
/// forbids sharing a tile between regions, so every region's footprint is a
/// whole number of tiles per resource type. Rounding up by the remainder,
/// not by `a + b - 1`, keeps a count within a tile of 2^32 from wrapping to
/// 0 tiles.
constexpr TileCount tiles_for(const ResourceVec& r) {
  auto ceil_div = [](std::uint32_t a, std::uint32_t b) -> std::uint32_t {
    return a / b + (a % b != 0 ? 1 : 0);
  };
  return {ceil_div(r.clbs, arch::kClbsPerTile),
          ceil_div(r.brams, arch::kBramsPerTile),
          ceil_div(r.dsps, arch::kDspsPerTile)};
}

/// Frames needed to reconfigure a region with raw requirement `r` (Eq. 1).
constexpr std::uint64_t frames_for(const ResourceVec& r) {
  return tiles_for(r).frames();
}

}  // namespace prpart
