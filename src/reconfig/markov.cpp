#include "reconfig/markov.hpp"

#include <algorithm>
#include <cmath>

#include "util/status.hpp"

namespace prpart {

MarkovChain::MarkovChain(std::vector<std::vector<double>> probabilities)
    : p_(std::move(probabilities)) {
  require(!p_.empty(), "MarkovChain needs at least one state");
  for (const auto& row : p_) {
    require(row.size() == p_.size(), "MarkovChain matrix must be square");
    double sum = 0.0;
    for (double v : row) {
      require(v >= 0.0, "MarkovChain probabilities must be non-negative");
      sum += v;
    }
    require(std::abs(sum - 1.0) < 1e-9, "MarkovChain rows must sum to 1");
  }
}

MarkovChain MarkovChain::uniform(std::size_t n) {
  require(n >= 2, "uniform chain needs at least two states");
  std::vector<std::vector<double>> p(n, std::vector<double>(n, 0.0));
  const double q = 1.0 / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) p[i][j] = q;
  return MarkovChain(std::move(p));
}

MarkovChain MarkovChain::random(Rng& rng, std::size_t n) {
  require(n >= 2, "random chain needs at least two states");
  std::vector<std::vector<double>> p(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      p[i][j] = rng.uniform01() + 1e-6;  // keep the chain irreducible
      sum += p[i][j];
    }
    for (std::size_t j = 0; j < n; ++j) p[i][j] /= sum;
  }
  return MarkovChain(std::move(p));
}

double MarkovChain::probability(std::size_t from, std::size_t to) const {
  require(from < p_.size() && to < p_.size(), "state out of range");
  return p_[from][to];
}

std::vector<double> MarkovChain::stationary(std::size_t iterations) const {
  const std::size_t n = p_.size();
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (std::size_t it = 0; it < iterations; ++it) {
    for (double& v : next) v = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) next[j] += pi[i] * p_[i][j];
    pi.swap(next);
  }
  return pi;
}

std::size_t MarkovChain::sample_next(Rng& rng, std::size_t from) const {
  return next_state(from, rng.uniform01());
}

std::size_t MarkovChain::next_state(std::size_t from, double u) const {
  require(from < p_.size(), "state out of range");
  const std::vector<double>& row = p_[from];
  for (std::size_t j = 0; j < row.size(); ++j) {
    u -= row[j];
    if (u < 0.0) return j;
  }
  // Numerical tail: the row sums to 1 only within the constructor's
  // tolerance. Every row has a positive entry, since it sums to ~1.
  std::size_t j = row.size() - 1;
  while (row[j] == 0.0) --j;
  return j;
}

const std::vector<double>& MarkovChain::row(std::size_t from) const {
  require(from < p_.size(), "state out of range");
  return p_[from];
}

ThresholdSampler::ThresholdSampler(const MarkovChain& chain,
                                   std::uint64_t draws)
    : chain_(chain), n_(chain.states()), tabulated_(n_, 0) {
  tabulates_ = draws / n_ / n_ >= kDrawsPerTableEntry;
}

std::size_t ThresholdSampler::pick(std::size_t from, std::uint64_t k) {
  if (!tabulates_)
    return chain_.next_state(from, static_cast<double>(k) * 0x1.0p-53);
  // The thresholds do not decrease, so the count is a branch-free binary
  // search: `base` passes thresholds known to be <= k.
  const std::uint64_t* const t = thresholds(from).data();
  const std::uint64_t* base = t;
  for (std::size_t n = n_; n > 1; n -= n / 2)
    base = base[n / 2] <= k ? base + n / 2 : base;
  return static_cast<std::size_t>(base - t) + (*base <= k);
}

std::span<const std::uint64_t> ThresholdSampler::thresholds(
    std::size_t from) {
  require(from < n_, "state out of range");
  if (!tabulated_[from]) tabulate(from);
  return {thresholds_.data() + from * n_, n_};
}

void ThresholdSampler::tabulate(std::size_t from) {
  if (thresholds_.empty()) thresholds_.resize(n_ * n_);
  const std::vector<double>& row = chain_.row(from);
  std::uint64_t* out = thresholds_.data() + from * n_;
  // Whether draw k keeps a non-negative remainder after next_state's
  // first j + 1 subtractions, i.e. is not yet placed in states 0..j.
  const auto survives = [&](std::size_t j, std::uint64_t k) {
    double u = static_cast<double>(k) * 0x1.0p-53;
    for (std::size_t i = 0; i <= j; ++i) u -= row[i];
    return !(u < 0.0);
  };
  std::size_t last = n_ - 1;  // the row sums to ~1: some entry is positive
  while (row[last] == 0.0) --last;
  std::uint64_t below = 0;  // every draw under K_{j-1} already stopped
  double prefix = 0.0;
  for (std::size_t j = 0; j < last; ++j) {
    if (row[j] == 0.0) {  // subtracting 0 changes no remainder
      out[j] = below;
      continue;
    }
    // K_j is the least k in [lo, hi] that survives; hi = 2^53 survives by
    // definition. The rounded prefix sum lands within a few units of K_j:
    // gallop away from it until K_j is bracketed, then bisect.
    prefix += row[j];
    std::uint64_t lo = below;
    std::uint64_t hi = kDrawRange;
    if (lo < hi) {
      const std::uint64_t seed = std::clamp(
          static_cast<std::uint64_t>(std::min(std::ceil(prefix * 0x1.0p53),
                                              0x1.0p53)),
          lo, hi - 1);
      const bool down = survives(j, seed);
      if (down)
        hi = seed;
      else
        lo = seed + 1;
      for (std::uint64_t step = 1; lo < hi; step *= 2) {
        const std::uint64_t probe = down ? hi - std::min(step, hi - lo)
                                         : lo + std::min(step, hi - lo) - 1;
        const bool s = survives(j, probe);
        if (s)
          hi = probe;
        else
          lo = probe + 1;
        if (s != down) break;  // bracketed
      }
    }
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (survives(j, mid))
        hi = mid;
      else
        lo = mid + 1;
    }
    out[j] = below = hi;
  }
  std::fill(out + last, out + n_, kDrawRange);
  tabulated_[from] = 1;
}

TransitionMatrices transition_matrices(const SchemeEvaluation& evaluation,
                                       std::size_t configs) {
  TransitionMatrices m{
      std::vector<std::vector<std::uint64_t>>(
          configs, std::vector<std::uint64_t>(configs, 0)),
      std::vector<std::vector<std::uint32_t>>(
          configs, std::vector<std::uint32_t>(configs, 0))};
  for (const RegionReport& region : evaluation.regions) {
    require(region.active.size() == configs,
            "evaluation active table has wrong arity");
    for (std::size_t i = 0; i < configs; ++i)
      for (std::size_t j = i + 1; j < configs; ++j) {
        const int a = region.active[i];
        const int b = region.active[j];
        if (a >= 0 && b >= 0 && a != b) {
          m.frames[i][j] += region.frames;
          m.frames[j][i] += region.frames;
          ++m.loads[i][j];
          ++m.loads[j][i];
        }
      }
  }
  return m;
}

std::vector<std::vector<std::uint64_t>> transition_frame_matrix(
    const SchemeEvaluation& evaluation, std::size_t configs) {
  return transition_matrices(evaluation, configs).frames;
}

double expected_frames_per_transition(const SchemeEvaluation& evaluation,
                                      std::size_t configs,
                                      const MarkovChain& chain) {
  require(chain.states() == configs, "chain does not match design");
  const auto frames = transition_frame_matrix(evaluation, configs);
  const std::vector<double> pi = chain.stationary();
  double expected = 0.0;
  for (std::size_t i = 0; i < configs; ++i)
    for (std::size_t j = 0; j < configs; ++j)
      expected += pi[i] * chain.probability(i, j) *
                  static_cast<double>(frames[i][j]);
  return expected;
}

}  // namespace prpart
