#pragma once

#include <utility>

#include "core/scheme.hpp"

namespace prpart {

/// One-module-per-region baseline (§IV-A): a region per module holding that
/// module's modes as singleton base partitions, sized for the largest mode.
/// Modes that never appear in a configuration are dead and excluded.
/// Evaluate with evaluate_scheme.
PartitionScheme make_modular_scheme(const Design& design,
                                    const ConnectivityMatrix& matrix,
                                    const std::vector<BasePartition>& partitions);

/// Fully static baseline (Table IV row "Static"): every used mode promoted
/// into the static logic, no reconfigurable regions, zero reconfiguration
/// time. Usually does not fit the budget — that is the point of the row.
PartitionScheme make_static_scheme(const Design& design,
                                   const ConnectivityMatrix& matrix,
                                   const std::vector<BasePartition>& partitions);

/// Single-region baseline (§IV-A): all reconfigurable modules in one region;
/// each configuration is one full-region bitstream, so the region is sized
/// for the largest configuration and *every* transition reconfigures it.
///
/// This scheme is evaluated directly rather than through evaluate_scheme:
/// with configurations whose mode sets nest, several full-configuration
/// bitstreams can serve one configuration, which breaks the unique-active-
/// member rule the generic evaluator checks. The returned scheme lists the
/// full-configuration partitions of the single region for reporting.
std::pair<PartitionScheme, SchemeEvaluation> single_region_scheme(
    const Design& design, const ConnectivityMatrix& matrix,
    const std::vector<BasePartition>& partitions, const ResourceVec& budget);

/// Total resources of the single-region scheme: the largest configuration's
/// area rounded up to whole tiles, plus the static base. This is the §IV-C
/// lower bound: a budget it does not fit admits no PR scheme at all, so it
/// decides PartitionerResult::feasible before anything is built, and
/// analysis::prove_infeasible proves against it.
ResourceVec single_region_footprint(const Design& design);

/// Index of the singleton base partition of `mode` in the master list;
/// throws InternalError when absent (i.e. the mode is dead).
std::size_t singleton_partition(const std::vector<BasePartition>& partitions,
                                std::size_t mode);

}  // namespace prpart
