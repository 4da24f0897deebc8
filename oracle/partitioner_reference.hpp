#pragma once

#include <string>

#include "core/partitioner.hpp"

namespace prpart::oracle {

/// Reference device walk: partition_design on every device in library
/// order, as the walk was written before it skipped devices. It rebuilds
/// the whole §IV flow per device and searches every feasible one.
/// partition_on_smallest_device must return the same device, indices,
/// escalation flag, result and alternatives; the walk identity tests and
/// bench_fig7_fig8_sweep compare the two with walk_mismatch. `walk` is left
/// empty (the reference skips nothing).
DevicePartitionResult partition_on_smallest_device_reference(
    const Design& design, const DeviceLibrary& library,
    const PartitionerOptions& options = {});

/// Empty when `production` and `reference` agree field by field: device,
/// chosen_index, first_feasible_index, escalated, the partition_result_json
/// bytes (stats included) and the alternatives. Otherwise names the first
/// field that differs.
std::string walk_mismatch(const Design& design,
                          const DevicePartitionResult& production,
                          const DevicePartitionResult& reference);

}  // namespace prpart::oracle
