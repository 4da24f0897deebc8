#include "reconfig/markov.hpp"

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
