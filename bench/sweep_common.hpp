#pragma once

// Shared driver for the paper's synthetic evaluation (§V, Figs. 7-9):
// generates the synthetic suite, partitions every design on its smallest
// workable Virtex-5 device, and returns one row per design.

#include <cstdint>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "design/synthetic.hpp"

namespace prpart::bench {

struct SweepRow {
  std::size_t index = 0;
  CircuitClass circuit_class = CircuitClass::Logic;
  std::string device;
  std::size_t device_index = 0;
  bool escalated = false;

  std::uint64_t proposed_total = 0;
  std::uint64_t proposed_worst = 0;
  std::uint64_t modular_total = 0;
  std::uint64_t modular_worst = 0;
  std::uint64_t single_total = 0;
  std::uint64_t single_worst = 0;
  bool modular_fits = false;
  /// Smallest library device whose capacity covers the modular scheme's
  /// resource bill (size_t(-1) when none does).
  std::size_t modular_min_device = 0;

  // Deterministic search-effort counters of the design's final (accepted)
  // search — the branch-and-bound regression signal in BENCH_sweep.json.
  std::uint64_t search_units = 0;
  std::uint64_t search_units_pruned = 0;
  std::uint64_t search_units_pruned_sterile = 0;
  std::uint64_t search_move_evaluations = 0;
  std::uint64_t search_states_recorded = 0;

  /// What the device walk skipped on the way to the chosen device.
  WalkStats walk;
};

struct SweepResult {
  std::vector<SweepRow> rows;
  std::size_t designs = 0;
  std::size_t escalated = 0;          ///< §V: "201 of the 1000 designs"
  std::size_t smaller_than_modular = 0;  ///< §V: "in 13 cases ..."
  double seconds = 0.0;
};

/// Number of designs: $PRPART_DESIGNS when set, otherwise `fallback`.
/// The default matches the paper's 1000-design evaluation (~10 s).
std::size_t sweep_design_count(std::size_t fallback = 1000);

/// The sweep's partitioner effort: enough for designs of 2-6 modules (the
/// case-study benches use deeper settings).
PartitionerOptions sweep_options();

/// Runs the sweep, deterministic in `seed`.
SweepResult run_sweep(std::uint64_t seed, std::size_t count);

/// Rows sorted by target device size then index (the x-axis of Figs. 7-8).
std::vector<const SweepRow*> sorted_by_device(const SweepResult& result);

}  // namespace prpart::bench
