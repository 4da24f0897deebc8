#pragma once

#include <cstdint>
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

 private:
  std::vector<std::vector<double>> p_;
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
