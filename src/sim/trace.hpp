#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "reconfig/markov.hpp"
#include "util/rng.hpp"

namespace prpart::sim {

/// A replayable sequence of configuration ids. Transitions are consecutive
/// pairs: entry k requests a switch from configs[k-1] to configs[k], so a
/// trace of N entries replays N-1 transitions (the first entry is the boot
/// configuration).
struct TransitionTrace {
  std::vector<std::uint32_t> configs;

  std::size_t transitions() const {
    return configs.empty() ? 0 : configs.size() - 1;
  }
};

/// Samples a trace of `transitions` transitions from `chain`, starting in
/// `start`. Fully deterministic in the Rng state: the same seed replays the
/// same workload on every platform (the chains exclude self-transitions, so
/// every step is a real reconfiguration request). Draws go through a
/// ThresholdSampler, so the trace equals chain.sample_next's, draw for draw.
TransitionTrace markov_trace(const MarkovChain& chain, Rng& rng,
                             std::uint64_t transitions, std::size_t start = 0);

/// The uniform all-pairs workload behind the paper's Eq. 10 proxy: an
/// Eulerian circuit over the complete digraph on `configs` states, so every
/// ordered pair (i, j), i != j, appears as a transition exactly once.
/// Simulating it therefore accumulates sum_{i<j} frames(i,j) twice — the
/// ranking of schemes by simulated cost over this trace equals their Eq. 10
/// ranking exactly, ties included (the property suite pins this).
TransitionTrace uniform_pair_trace(std::size_t configs);

/// Outcome of parsing a trace file. The trace holds every entry that parsed
/// cleanly, but callers must check ok() before replaying: an error-severity
/// diagnostic means entries were rejected and the trace is incomplete.
struct TraceParse {
  TransitionTrace trace;
  std::vector<analysis::Diagnostic> diagnostics;

  bool ok() const;
};

/// Parses the text trace format: whitespace-separated configuration ids
/// (decimal, 0-based), `#` starting a comment that runs to end of line.
///
/// Malformed input is rejected with typed diagnostics carrying exact
/// 1-based source spans (never UB, never a silent skip):
///   * `trace-bad-token`            error: a token that is not a decimal id
///   * `trace-config-out-of-range`  error: an id >= `configs`
///   * `trace-empty`                error: no entries at all
///   * `trace-self-transition`     warning: consecutive identical ids (a
///     zero-cost transition — usually a trace-generation bug)
/// All codes are catalogued in docs/diagnostics.md.
TraceParse parse_trace(std::string_view text, std::size_t configs);

}  // namespace prpart::sim
