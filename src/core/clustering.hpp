#pragma once

#include <vector>

#include "core/base_partition.hpp"
#include "core/connectivity.hpp"
#include "design/design.hpp"

namespace prpart {

/// Enumerates base partitions by the paper's modified agglomerative
/// hierarchical clustering (§IV-C):
///
///  * every used mode starts as a disconnected node (a k=0 sub-graph whose
///    frequency weight is its node weight);
///  * edges are added between node pairs in descending edge-weight order;
///  * after each addition, newly completed sub-graphs (cliques containing
///    the new edge) are recorded as base partitions, with frequency weight
///    equal to the minimum edge weight in the sub-graph;
///  * iteration ends when every positive-weight link has been added; the
///    last sub-graphs found are the full configurations.
///
/// A complete sub-graph is only accepted when its modes co-occur in at least
/// one configuration (see DESIGN.md "Clique filter"); this reproduces the
/// paper's Table I exactly.
///
/// The returned list is deterministic: singletons in column order first,
/// then larger partitions in discovery order.
///
/// `max_modes` caps the size of enumerated sub-graphs (0 = unlimited, the
/// paper's behaviour). The number of co-occurring subsets grows as
/// 2^(configuration width), so designs much wider than the paper's 6
/// modules need a cap; the full-configuration sets are always appended
/// regardless (the single-region baseline requires them).
std::vector<BasePartition> enumerate_base_partitions(
    const Design& design, const ConnectivityMatrix& matrix,
    std::size_t max_modes = 0);

}  // namespace prpart
