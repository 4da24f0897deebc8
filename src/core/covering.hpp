#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/base_partition.hpp"
#include "core/connectivity.hpp"
#include "util/cancel.hpp"

namespace prpart {

/// The paper's list arrangement for the covering step (§IV-C): base
/// partitions in ascending order of (number of modes, frequency weight,
/// area), with the master-list index as a final deterministic tie-break.
/// Fewer modes first keeps regions small (reconfigured less often); among
/// equals, low-frequency partitions are consumed first so high-frequency
/// ones stay available as candidates across iterations.
std::vector<std::size_t> covering_order(
    const std::vector<BasePartition>& partitions);

/// Result of one covering pass.
struct CoverResult {
  /// The candidate partition set: indices into the master partition list,
  /// in selection order.
  std::vector<std::size_t> selected;
  /// True when every 1 in the connectivity matrix was zeroed. Covering can
  /// become incomplete once enough list heads have been removed.
  bool complete = false;
};

/// Runs the covering algorithm over `order`, ignoring its first `skip`
/// entries (the paper generates successive candidate partition sets by
/// removing the top-most base partition from the list and re-covering).
///
/// Partitions are taken in list order; one is selected iff it zeroes at
/// least one still-set element of (a working copy of) the connectivity
/// matrix, i.e. it covers a new mode occurrence.
CoverResult cover(const std::vector<BasePartition>& partitions,
                  const ConnectivityMatrix& matrix,
                  std::span<const std::size_t> order, std::size_t skip);

/// A candidate partition set: indices into the master partition list, in
/// covering-selection order.
using CandidateSet = std::vector<std::size_t>;

/// The candidate partition sets the region-allocation search explores
/// (§IV-C's outermost iteration): cover(order, skip) for skip = 0, 1, ...
/// over covering_order(partitions), stopping at the first incomplete cover
/// (removals only make covering harder) or after `max_sets` sets. Budget-
/// independent, so a device walk enumerates them once per design; the
/// search and the walk's fit proof both read this one list, so they can
/// never disagree about which sets exist. Polls `cancel` (nullable) once
/// per set.
std::vector<CandidateSet> candidate_sets(
    const std::vector<BasePartition>& partitions,
    const ConnectivityMatrix& matrix, std::size_t max_sets,
    const CancelToken* cancel = nullptr);

}  // namespace prpart
