#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/scheme.hpp"
#include "util/rng.hpp"

namespace prpart {

/// Row-stochastic transition matrix over a design's configurations, used to
/// model the environment-driven adaptation the paper leaves to future work
/// ("if some statistical information about the probabilities of different
/// configurations occurring is known, this could be factored in").
class MarkovChain {
 public:
  /// `probabilities[i][j]` = probability of switching from configuration i
  /// to j; rows must be non-negative and sum to ~1 (1e-9 tolerance).
  explicit MarkovChain(std::vector<std::vector<double>> probabilities);

  /// Uniform chain over `n` configurations with no self-transitions: the
  /// implicit model behind the paper's Eq. 10 proxy.
  static MarkovChain uniform(std::size_t n);

  /// Random row-stochastic chain (self-transitions excluded), for sweeps.
  static MarkovChain random(Rng& rng, std::size_t n);

  std::size_t states() const { return p_.size(); }
  double probability(std::size_t from, std::size_t to) const;

  /// Stationary distribution by power iteration.
  std::vector<double> stationary(std::size_t iterations = 1000) const;

  /// Samples the next state from `from`: next_state(from, rng.uniform01()).
  std::size_t sample_next(Rng& rng, std::size_t from) const;

  /// The state a uniform draw `u` in [0, 1) selects from row `from`: the
  /// first j whose cumulative probability exceeds u. When rounding leaves
  /// u at or above the whole row's sum, the last state with positive
  /// probability, never one the row cannot reach.
  std::size_t next_state(std::size_t from, double u) const;

  /// Row `from` of the matrix.
  const std::vector<double>& row(std::size_t from) const;

 private:
  std::vector<std::vector<double>> p_;
};

/// MarkovChain::sample_next, draw for draw, at the cost of a count.
///
/// A draw is u = k * 2^-53 for the 53-bit integer k = rng.next() >> 11.
/// next_state subtracts the row's entries from u in order and stops at the
/// first negative remainder. Each floating-point subtraction is monotone in
/// its input, so the remainder after j + 1 subtractions is negative exactly
/// for k below some integer threshold K_j, and K_j never decreases with j
/// (subtracting a non-negative entry never raises the remainder). The state
/// next_state picks is therefore the number of thresholds <= k. A zero
/// entry repeats the previous threshold, so it is never picked; the row's
/// last positive state gets threshold 2^53 (as every state after it), so a
/// draw that runs off the row's rounded sum lands on it, which is
/// next_state's tail rule.
///
/// Rows are tabulated on first visit: each threshold is seeded from the
/// rounded prefix sum and corrected by a galloping search over the exact
/// subtraction chain, about C^2 subtractions per row. When `draws` is too
/// few to repay that (fewer than kDrawsPerTableEntry * C^2), the sampler
/// builds nothing and calls next_state.
class ThresholdSampler {
 public:
  static constexpr std::uint64_t kDrawsPerTableEntry = 4;
  static constexpr std::uint64_t kDrawRange = std::uint64_t{1} << 53;

  /// `chain` must outlive the sampler; `draws` is how many it will serve.
  ThresholdSampler(const MarkovChain& chain, std::uint64_t draws);

  /// Whether pick() counts thresholds (true) or calls next_state (false).
  bool tabulates() const { return tabulates_; }

  /// The state the draw `k` (< 2^53) selects from row `from`:
  /// chain.next_state(from, k * 2^-53).
  std::size_t pick(std::size_t from, std::uint64_t k);

  std::size_t sample_next(Rng& rng, std::size_t from) {
    return pick(from, rng.next() >> 11);
  }

  /// Row `from`'s thresholds K_0..K_{C-1}, tabulating it if needed.
  std::span<const std::uint64_t> thresholds(std::size_t from);

 private:
  void tabulate(std::size_t from);

  const MarkovChain& chain_;
  std::size_t n_ = 0;
  bool tabulates_ = false;
  std::vector<std::uint64_t> thresholds_;  // n_ x n_, row-major, lazily
  std::vector<char> tabulated_;            // per row
};

/// Memoryless per-transition costs of a scheme (Eq. 8): transition i -> j
/// reloads region r iff both configurations use r and their active members
/// differ (d_ij). `frames[i][j]` sums those regions' frames and `loads[i][j]`
/// counts them. Both symmetric.
struct TransitionMatrices {
  std::vector<std::vector<std::uint64_t>> frames;
  std::vector<std::vector<std::uint32_t>> loads;
};
TransitionMatrices transition_matrices(const SchemeEvaluation& evaluation,
                                       std::size_t configs);

/// The `frames` half of transition_matrices: frames(i -> j) = sum over
/// regions of d_ij * frames_r (Eq. 8 in frames).
std::vector<std::vector<std::uint64_t>> transition_frame_matrix(
    const SchemeEvaluation& evaluation, std::size_t configs);

/// Expected frames per transition under the chain's stationary behaviour:
/// sum_i pi_i * sum_j P_ij * frames(i, j). This is the probability-weighted
/// generalisation of the paper's total-reconfiguration-time proxy.
double expected_frames_per_transition(const SchemeEvaluation& evaluation,
                                      std::size_t configs,
                                      const MarkovChain& chain);

}  // namespace prpart
