#pragma once

#include <vector>

#include "core/base_partition.hpp"
#include "core/connectivity.hpp"

namespace prpart::oracle {

/// Brute-force reference for enumerate_base_partitions: every non-empty
/// subset of every configuration's mode set, deduplicated, with the
/// paper's frequency weight (node weight for a singleton, minimum edge
/// weight otherwise). Exponential in configuration width; test-sized
/// inputs only. The clustering tests compare the two as sets.
std::vector<BasePartition> enumerate_base_partitions_reference(
    const Design& design, const ConnectivityMatrix& matrix);

}  // namespace prpart::oracle
