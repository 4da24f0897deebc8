#include "util/rng.hpp"

#include <bit>

#include "util/status.hpp"

namespace prpart {

namespace {
// splitmix64: used only to expand the seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // All-zero state would be a fixed point; splitmix64 cannot produce four
  // zeros from any seed, but keep the guard explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

namespace {
/// Largest raw value Rng::below(n) keeps: the tail above the last whole
/// multiple of n is rejected so every residue is equally likely.
std::uint64_t rejection_limit(std::uint64_t n) {
  return ~std::uint64_t{0} - (~std::uint64_t{0} % n + 1) % n;
}
}  // namespace

std::uint64_t Rng::below(std::uint64_t n) {
  require(n > 0, "Rng::below requires n > 0");
  // Debiased modulo (rejection sampling on the tail).
  const std::uint64_t limit = rejection_limit(n);
  std::uint64_t v = next();
  while (v > limit) v = next();
  return v % n;
}

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) {
  require(lo <= hi, "Rng::uniform requires lo <= hi");
  const std::uint64_t span = hi - lo;
  if (span == ~std::uint64_t{0}) return next();
  return lo + below(span + 1);
}

double Rng::uniform01() {
  // 53 random bits scaled into [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

BoundedDraw::BoundedDraw(std::uint64_t n) : n_(n) {
  require(n > 0, "BoundedDraw requires n > 0");
  limit_ = rejection_limit(n);
  reciprocal_ = ~detail::Uint128{0} / n + 1;  // ceil(2^128 / n) mod 2^128
}

}  // namespace prpart
