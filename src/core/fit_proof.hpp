#pragma once

#include <cstdint>
#include <vector>

#include "core/base_partition.hpp"
#include "core/compatibility.hpp"
#include "core/covering.hpp"
#include "device/resources.hpp"
#include "util/cancel.hpp"

namespace prpart {

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
/// state on `budget` (DESIGN.md §4f). Every state the search visits is a
/// grouping of one candidate set in which
///   * each region's members have pairwise disjoint occupancy,
///   * a region costs the tiles of the element-wise max of its members,
///   * a promoted partition costs its raw area, and only when
///     `allow_static_promotion` is set,
/// on top of `static_base`. prove_fit enumerates those groupings
/// exhaustively, set by set, assigning one partition at a time (join an
/// open region, open the next region, or promote). Running totals only grow
/// as partitions are assigned, so a prefix that does not fit prunes its
/// whole subtree. kNoFit therefore proves the search records nothing
/// (states_recorded == 0, no proposal); kFits means a fitting grouping
/// exists, not that the greedy search will reach it. Polls `cancel`
/// (nullable) once per set and every few hundred nodes.
FitProof prove_fit(const std::vector<BasePartition>& partitions,
                   const CompatibilityTable& compat,
                   const std::vector<CandidateSet>& sets,
                   const ResourceVec& static_base, const ResourceVec& budget,
                   bool allow_static_promotion,
                   const CancelToken* cancel = nullptr,
                   std::uint64_t node_budget = kFitProofNodeBudget);

}  // namespace prpart
