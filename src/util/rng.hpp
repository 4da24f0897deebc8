#pragma once

#include <cstdint>

namespace prpart {

/// Deterministic xoshiro256** pseudo-random generator.
///
/// The synthetic-design experiments in the paper (Figs. 7-9) must be
/// reproducible run to run and platform to platform, so we do not use
/// std::mt19937 distributions (whose mapping from engine output to values is
/// implementation-defined for some distributions); all sampling helpers here
/// are fully specified.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

 private:
  std::uint64_t s_[4];
};

namespace detail {
__extension__ typedef unsigned __int128 Uint128;
}  // namespace detail

/// Rng::below(n) with its divisions done once. The rejection limit and an
/// exact reciprocal of n are precomputed, so a draw reads the same next()
/// values as Rng::below(n), returns the same result, and costs a few
/// multiplies instead of three 64-bit divisions. For loops that draw from a
/// few fixed ranges many times (the annealing floorplanner).
///
/// The remainder is the direct computation of Lemire, Kaser and Kurz
/// ("Faster Remainder by Direct Computation", 2019, Theorem 1): with
/// c = ceil(2^128 / n), v mod n = ((c * v mod 2^128) * n) >> 128 for every
/// 64-bit v, because 128 >= 64 + ceil(log2 n). For n = 1, c = 2^128 wraps
/// to 0 and the formula gives 0, as it should.
class BoundedDraw {
 public:
  /// Requires n > 0.
  explicit BoundedDraw(std::uint64_t n);

  std::uint64_t n() const { return n_; }

  /// Whether Rng::below(n) keeps the raw value `v` rather than drawing
  /// again (the debiasing rejection of the tail above the limit).
  bool accepts(std::uint64_t v) const { return v <= limit_; }

  /// v % n, by multiplication.
  std::uint64_t remainder(std::uint64_t v) const {
    using detail::Uint128;
    const Uint128 x = reciprocal_ * v;  // mod 2^128
    const Uint128 low = (Uint128{static_cast<std::uint64_t>(x)} * n_) >> 64;
    return static_cast<std::uint64_t>(
        (Uint128{static_cast<std::uint64_t>(x >> 64)} * n_ + low) >> 64);
  }

  /// Exactly rng.below(n).
  std::uint64_t operator()(Rng& rng) const {
    std::uint64_t v = rng.next();
    while (!accepts(v)) v = rng.next();
    return remainder(v);
  }

 private:
  std::uint64_t n_;
  std::uint64_t limit_;
  detail::Uint128 reciprocal_;
};

}  // namespace prpart
