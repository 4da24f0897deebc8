#pragma once

#include <cstdint>
#include <vector>

#include "core/base_partition.hpp"
#include "core/compatibility.hpp"
#include "core/covering.hpp"
#include "core/scheme.hpp"
#include "device/resources.hpp"
#include "util/cancel.hpp"

namespace prpart {

// One exact grouping enumerator (DESIGN.md §4f) answers two questions about
// the groupings of a candidate set, in which
//   * each region's members have pairwise disjoint occupancy,
//   * a region costs the tiles of the element-wise max of its members,
//   * a promoted partition costs its raw area, and only when static
//     promotion is allowed,
// on top of the static base. It assigns one partition at a time, depth
// first: join an open region, open the next region (only the next, so each
// grouping is visited once), or promote. Resources used and the partial
// Eq. 10 time only grow as partitions are assigned, so a prefix that does
// not fit, or (when optimising) that already costs the best leaf's time,
// prunes its whole subtree. A node is counted before either prune.

/// Options for the exact search.
struct OptimalOptions {
  /// Hard cap on explored assignment states; the search reports
  /// `exhausted = true` when it hits the cap (result is then best-effort).
  std::uint64_t max_states = 2'000'000;
  bool allow_static_promotion = true;
};

struct OptimalResult {
  bool feasible = false;
  /// True when max_states stopped the enumeration before completion.
  bool exhausted = false;
  PartitionScheme scheme;
  SchemeEvaluation eval;
  std::uint64_t states_explored = 0;
};

/// Exact partitioning over a fixed candidate partition set: the fitting
/// grouping of `candidate` (in its order) with minimum total
/// reconfiguration time, the first strictly better leaf in enumeration
/// order.
///
/// Used as ground truth for the heuristic search: restricted to the same
/// candidate set, the heuristic can never beat this result, and the
/// quality-gap ablation measures how close it gets. The state space is the
/// Bell-number lattice with symmetry breaking; with both prunes it is
/// practical for candidate sets of up to roughly a dozen partitions.
///
/// Deliberately sequential: the incumbent-driven pruning makes the visited
/// state count depend on discovery order, so a parallel variant would
/// either lose determinism or forfeit most pruning. Parallel callers run
/// whole optimal_partitioning invocations per design/candidate-set in
/// parallel_for slots instead (nested fan-outs run inline), and
/// the heuristic search's SearchOptions::threads covers the production hot
/// path.
OptimalResult optimal_partitioning(const Design& design,
                                   const ConnectivityMatrix& matrix,
                                   const std::vector<BasePartition>& partitions,
                                   const CompatibilityTable& compat,
                                   const ResourceVec& budget,
                                   const std::vector<std::size_t>& candidate,
                                   const OptimalOptions& options = {});

/// Convenience: exact search over the first candidate partition set (all
/// used modes as singletons).
OptimalResult optimal_mode_level_partitioning(
    const Design& design, const ConnectivityMatrix& matrix,
    const std::vector<BasePartition>& partitions,
    const CompatibilityTable& compat, const ResourceVec& budget,
    const OptimalOptions& options = {});

/// Nodes one prove_fit call may visit, summed over all candidate sets. On
/// the synthetic pool a fit-less device is decided in a few thousand nodes
/// and a device with a fitting grouping in a few hundred; the cap bounds
/// the proof's cost on wide designs, where the search then runs as usual.
inline constexpr std::uint64_t kFitProofNodeBudget = 100'000;

enum class FitVerdict : std::uint8_t {
  kFits,          ///< some grouping of some candidate set fits the budget
  kNoFit,         ///< no grouping of any candidate set fits the budget
  kInconclusive,  ///< the node budget ran out before either was shown
};

struct FitProof {
  FitVerdict verdict = FitVerdict::kInconclusive;
  std::uint64_t nodes = 0;  ///< assignment nodes visited
};

/// Decides whether the region-allocation search could record any fitting
/// state on `budget`: every state it visits is a grouping of one candidate
/// set, so the enumerator above runs set by set (largest partitions first,
/// so non-fitting prefixes are cut near the root) and stops at the first
/// fitting grouping. kNoFit therefore proves the search records nothing
/// (states_recorded == 0, no proposal); kFits means a fitting grouping
/// exists, not that the greedy search will reach it. Polls `cancel`
/// (nullable) once per set and every 512 nodes.
FitProof prove_fit(const std::vector<BasePartition>& partitions,
                   const CompatibilityTable& compat,
                   const std::vector<CandidateSet>& sets,
                   const ResourceVec& static_base, const ResourceVec& budget,
                   bool allow_static_promotion,
                   const CancelToken* cancel = nullptr,
                   std::uint64_t node_budget = kFitProofNodeBudget);

}  // namespace prpart
