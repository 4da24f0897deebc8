#pragma once

#include "core/optimal.hpp"

namespace prpart::oracle {

/// Reference exact search: enumerates the same groupings of `candidate` in
/// the same order as optimal_partitioning, prunes on the Eq. 10 total time
/// alone (recomputed from every region at every node), and checks fit only
/// at the leaves, keeping the smaller total area on a time tie. Where it
/// finishes, optimal_partitioning must report the same feasibility, scheme
/// and totals in no more states; tests/core/grouping_enumerator_test.cpp
/// compares the two, and prove_fit's verdicts against it.
OptimalResult optimal_partitioning_reference(
    const Design& design, const ConnectivityMatrix& matrix,
    const std::vector<BasePartition>& partitions,
    const CompatibilityTable& compat, const ResourceVec& budget,
    const std::vector<std::size_t>& candidate,
    const OptimalOptions& options = {});

}  // namespace prpart::oracle
