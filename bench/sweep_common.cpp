#include "bench/sweep_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "util/parallel_for.hpp"
#include "util/strings.hpp"

namespace prpart::bench {

std::size_t sweep_design_count(std::size_t fallback) {
  if (const char* env = std::getenv("PRPART_DESIGNS"))
    return static_cast<std::size_t>(parse_u64(env));
  return fallback;
}

PartitionerOptions sweep_options() {
  PartitionerOptions opt;
  opt.search.max_candidate_sets = 24;
  opt.search.max_move_evaluations = 400'000;
  return opt;
}

SweepResult run_sweep(std::uint64_t seed, std::size_t count) {
  const auto started = std::chrono::steady_clock::now();
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const auto suite = generate_synthetic_suite(seed, count);
  const PartitionerOptions opt = sweep_options();

  SweepResult result;
  result.rows.resize(suite.size());
  // One design per slot: results are deterministic regardless of the
  // worker count ($PRPART_THREADS, default = hardware concurrency).
  parallel_for(suite.size(), default_thread_count(), [&](std::size_t i) {
    const DevicePartitionResult dp =
        partition_on_smallest_device(suite[i].design, lib, opt);
    const PartitionerResult& pr = dp.result;

    SweepRow row;
    row.index = i;
    row.circuit_class = suite[i].circuit_class;
    row.device = dp.device->name();
    row.device_index = dp.chosen_index;
    row.escalated = dp.escalated;
    row.proposed_total = pr.proposed.eval.total_frames;
    row.proposed_worst = pr.proposed.eval.worst_frames;
    row.modular_total = pr.modular.eval.total_frames;
    row.modular_worst = pr.modular.eval.worst_frames;
    row.single_total = pr.single_region.eval.total_frames;
    row.single_worst = pr.single_region.eval.worst_frames;
    row.modular_fits = pr.modular.eval.fits;
    row.search_units = pr.stats.units;
    row.search_units_pruned = pr.stats.units_pruned;
    row.search_units_pruned_sterile = pr.stats.units_pruned_sterile;
    row.search_move_evaluations = pr.stats.move_evaluations;
    row.search_states_recorded = pr.stats.states_recorded;
    row.walk = dp.walk;

    row.modular_min_device = static_cast<std::size_t>(-1);
    for (std::size_t d = 0; d < lib.devices().size(); ++d) {
      if (pr.modular.eval.total_resources.fits_in(
              lib.devices()[d].capacity())) {
        row.modular_min_device = d;
        break;
      }
    }
    result.rows[i] = row;
  });
  for (const SweepRow& row : result.rows) {
    if (row.modular_min_device == static_cast<std::size_t>(-1) ||
        row.device_index < row.modular_min_device)
      ++result.smaller_than_modular;
    if (row.escalated) ++result.escalated;
  }
  result.designs = result.rows.size();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  return result;
}

std::vector<const SweepRow*> sorted_by_device(const SweepResult& result) {
  std::vector<const SweepRow*> rows;
  rows.reserve(result.rows.size());
  for (const SweepRow& r : result.rows) rows.push_back(&r);
  std::stable_sort(rows.begin(), rows.end(),
                   [](const SweepRow* a, const SweepRow* b) {
                     if (a->device_index != b->device_index)
                       return a->device_index < b->device_index;
                     return a->index < b->index;
                   });
  return rows;
}

}  // namespace prpart::bench
