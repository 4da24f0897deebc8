#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "device/device.hpp"
#include "util/status.hpp"

namespace prpart {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(6, 5), InternalError);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(3);
  std::vector<bool> seen(8, false);
  for (int i = 0; i < 1000; ++i) seen[rng.below(8)] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.below(0), InternalError);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsPlausible) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(17);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_FALSE(rng.chance(-1.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_TRUE(rng.chance(2.0));
}

TEST(Rng, ChanceFrequencyTracksP) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.chance(0.25)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

// ------------------------------------------------------------- BoundedDraw

/// The bounds BoundedDraw must agree with Rng::below on: the listed edge
/// cases, every row and column count of the extended() library, and every
/// n in [1, rows] (the annealer draws rows - height + 1 for each height).
std::vector<std::uint64_t> draw_bounds() {
  std::vector<std::uint64_t> ns = {1, 2, 3, 7, 64, (1ull << 31) - 1,
                                   (1ull << 32) - 1};
  const DeviceLibrary library = DeviceLibrary::extended();
  for (const Device& d : library.devices()) {
    for (std::uint64_t n = 1; n <= d.rows(); ++n) ns.push_back(n);
    ns.push_back(d.columns().size());
  }
  std::sort(ns.begin(), ns.end());
  ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
  return ns;
}

/// Largest raw value Rng::below(n) keeps, from its definition rather than
/// its code: one below the largest multiple of n that fits in 64 bits.
std::uint64_t kept_limit(std::uint64_t n) {
  __extension__ typedef unsigned __int128 U128;
  return static_cast<std::uint64_t>((U128{1} << 64) / n * n - 1);
}

TEST(BoundedDraw, AgreesWithRngBelowOnRawValues) {
  for (const std::uint64_t n : draw_bounds()) {
    const BoundedDraw draw(n);
    ASSERT_EQ(draw.n(), n);
    const std::uint64_t limit = kept_limit(n);
    const std::uint64_t multiples = limit / n + 1;  // k*n <= limit + 1
    std::vector<std::uint64_t> raw = {0, ~std::uint64_t{0}, limit};
    if (limit > 0) raw.push_back(limit - 1);
    if (limit < ~std::uint64_t{0}) raw.push_back(limit + 1);
    for (const std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2},
                                  std::uint64_t{3}, multiples / 2, multiples})
      if (k >= 1 && k <= multiples) {
        raw.push_back(k * n - 1);
        if (k < multiples || limit < ~std::uint64_t{0}) raw.push_back(k * n);
      }
    for (const std::uint64_t v : raw) {
      EXPECT_EQ(draw.accepts(v), v <= limit) << "n " << n << " v " << v;
      EXPECT_EQ(draw.remainder(v), v % n) << "n " << n << " v " << v;
    }
  }
}

TEST(BoundedDraw, ReadsTheSameStreamAsRngBelow) {
  std::vector<std::uint64_t> ns = draw_bounds();
  // Bounds just above 2^63 reject about half the raw values, so the redraw
  // path runs often.
  ns.push_back((1ull << 63) + 1);
  ns.push_back(~std::uint64_t{0});
  for (const std::uint64_t n : ns) {
    const BoundedDraw draw(n);
    Rng expected(n * 31 + 5);
    Rng actual(n * 31 + 5);
    for (int i = 0; i < 200; ++i)
      ASSERT_EQ(draw(actual), expected.below(n)) << "n " << n << " draw " << i;
    // Same number of next() calls consumed: the streams are still aligned.
    EXPECT_EQ(actual.next(), expected.next()) << "n " << n;
  }
  Rng probe(1);
  const BoundedDraw half((1ull << 63) + 1);
  int rejected = 0;
  for (int i = 0; i < 200; ++i) rejected += half.accepts(probe.next()) ? 0 : 1;
  EXPECT_GT(rejected, 0);
}

TEST(BoundedDraw, ZeroBoundThrows) {
  EXPECT_THROW(BoundedDraw(0), InternalError);
}

}  // namespace
}  // namespace prpart
