#include "device/tiles.hpp"

#include <gtest/gtest.h>

namespace prpart {
namespace {

TEST(Tiles, ArchitectureConstantsMatchPaper) {
  // §IV-B verbatim.
  EXPECT_EQ(arch::kClbsPerTile, 20u);
  EXPECT_EQ(arch::kDspsPerTile, 8u);
  EXPECT_EQ(arch::kBramsPerTile, 4u);
  EXPECT_EQ(arch::kFramesPerClbTile, 36u);
  EXPECT_EQ(arch::kFramesPerDspTile, 28u);
  EXPECT_EQ(arch::kFramesPerBramTile, 30u);
  EXPECT_EQ(arch::kWordsPerFrame, 41u);
  EXPECT_EQ(arch::kBitsPerFrame, 1312u);
  EXPECT_EQ(arch::kBitsPerFrame, arch::kWordsPerFrame * 32u);
}

TEST(Tiles, TilesForRoundsUp) {
  const TileCount t = tiles_for({21, 5, 9});
  EXPECT_EQ(t.clb_tiles, 2u);   // ceil(21/20)
  EXPECT_EQ(t.bram_tiles, 2u);  // ceil(5/4)
  EXPECT_EQ(t.dsp_tiles, 2u);   // ceil(9/8)
}

TEST(Tiles, TilesForExactBoundaries) {
  const TileCount t = tiles_for({40, 8, 16});
  EXPECT_EQ(t.clb_tiles, 2u);
  EXPECT_EQ(t.bram_tiles, 2u);
  EXPECT_EQ(t.dsp_tiles, 2u);
}

TEST(Tiles, TilesForZero) {
  EXPECT_EQ(tiles_for({0, 0, 0}), TileCount{});
  EXPECT_EQ(frames_for({0, 0, 0}), 0u);
}

TEST(Tiles, TilesForCountsNearTheTopOf32Bits) {
  // a + b - 1 taken at 32 bits would wrap these to 0 tiles.
  const TileCount t = tiles_for({4294967280u, 4294967292u, 4294967288u});
  EXPECT_EQ(t.clb_tiles, 214748364u);
  EXPECT_EQ(t.bram_tiles, 1073741823u);
  EXPECT_EQ(t.dsp_tiles, 536870911u);
  EXPECT_EQ(t.resources(), ResourceVec(4294967280u, 4294967292u, 4294967288u));
  EXPECT_EQ(tiles_for({4294967295u, 0, 0}).clb_tiles, 214748365u);
}

TEST(Tiles, FramesFollowEq6) {
  const TileCount t{3, 2, 1};
  EXPECT_EQ(t.frames(), 3u * 36 + 2u * 30 + 1u * 28);
}

TEST(Tiles, ResourcesAfterRounding) {
  const TileCount t = tiles_for({21, 1, 1});
  EXPECT_EQ(t.resources(), ResourceVec(40, 4, 8));
}

TEST(Tiles, FramesForSingleMode) {
  // A mode with 818 CLBs and 34 DSPs (matched filter, Table II):
  // ceil(818/20)=41 CLB tiles, ceil(34/8)=5 DSP tiles.
  EXPECT_EQ(frames_for({818, 0, 34}), 41u * 36 + 5u * 28);
}

TEST(Tiles, FramesMonotoneInResources) {
  const ResourceVec small{100, 2, 4};
  const ResourceVec big{101, 2, 4};
  EXPECT_LE(frames_for(small), frames_for(big));
}

}  // namespace
}  // namespace prpart
