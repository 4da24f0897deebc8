#include "core/scheme.hpp"

#include <algorithm>

#include "core/eval_kernel.hpp"
#include "util/status.hpp"

namespace prpart {

SchemeEvaluation evaluate_scheme_reference(
    const Design& design, const ConnectivityMatrix& matrix,
    const std::vector<BasePartition>& partitions, const PartitionScheme& scheme,
    const ResourceVec& budget) {
  const std::size_t nconf = matrix.configs();
  SchemeEvaluation eval;
  eval.valid = true;

  // --- Region footprints (always, for every region) -------------------------
  eval.regions.reserve(scheme.regions.size());
  for (const Region& region : scheme.regions) {
    require(!region.members.empty(), "scheme contains an empty region");
    RegionReport report;
    for (std::size_t p : region.members) {
      require(p < partitions.size(), "scheme references unknown partition");
      report.raw = elementwise_max(report.raw, partitions[p].area);
    }
    report.tiles = tiles_for(report.raw);
    report.frames = report.tiles.frames();
    eval.pr_resources += report.tiles.resources();
    eval.regions.push_back(std::move(report));
  }

  // --- Static logic ---------------------------------------------------------
  eval.static_resources = design.static_base();
  for (std::size_t p : scheme.static_members) {
    require(p < partitions.size(), "scheme references unknown partition");
    eval.static_resources += partitions[p].area;
  }
  eval.total_resources = eval.pr_resources + eval.static_resources;
  eval.fits = eval.total_resources.fits_in(budget);

  // --- Active tables + double-activation (fail fast) ------------------------
  // First conflict in (region, configuration) scan order wins: the table
  // keeps the second claimant at the diagnosed configuration and stops, so
  // invalid schemes skip the rest of the O(R·C·M) walk. Later regions keep
  // empty active tables (their footprints above are still exact).
  for (std::size_t r = 0; r < scheme.regions.size() && eval.valid; ++r) {
    const Region& region = scheme.regions[r];
    RegionReport& report = eval.regions[r];
    report.active.assign(nconf, -1);
    for (std::size_t c = 0; c < nconf && eval.valid; ++c) {
      const DynBitset& row = matrix.row(c);
      for (std::size_t m = 0; m < region.members.size(); ++m) {
        if (!partitions[region.members[m]].modes.intersects(row)) continue;
        if (report.active[c] != -1) {
          eval.valid = false;
          eval.invalid_reason =
              "configuration " + design.configurations()[c].name +
              " activates two partitions in one region (incompatible "
              "members)";
          report.active[c] = static_cast<int>(m);
          break;
        }
        report.active[c] = static_cast<int>(m);
      }
    }
  }
  if (!eval.valid) return eval;

  // --- Coverage: every mode of every configuration must be provided ---------
  DynBitset static_modes(matrix.modes());
  for (std::size_t p : scheme.static_members) static_modes |= partitions[p].modes;
  DynBitset provided(matrix.modes());  // scratch; assignment reuses its words
  for (std::size_t c = 0; c < nconf && eval.valid; ++c) {
    provided = static_modes;
    for (std::size_t r = 0; r < scheme.regions.size(); ++r) {
      const int a = eval.regions[r].active[c];
      if (a >= 0)
        provided |= partitions[scheme.regions[r]
                                   .members[static_cast<std::size_t>(a)]]
                        .modes;
    }
    if (!matrix.row(c).is_subset_of(provided)) {
      eval.valid = false;
      eval.invalid_reason = "configuration " +
                            design.configurations()[c].name +
                            " has modes not provided by any region or static "
                            "logic";
    }
  }
  if (!eval.valid) return eval;

  // --- Reconfiguration time (Eqs. 7-11) -------------------------------------
  // Total: per region, the number of unordered configuration pairs whose
  // active members are both present and differ, times the region's frames.
  std::vector<std::uint64_t> count;  // scratch; assign() keeps the capacity
  for (std::size_t r = 0; r < scheme.regions.size(); ++r) {
    RegionReport& report = eval.regions[r];
    std::uint64_t present = 0;
    std::uint64_t same_pairs = 0;
    // Occurrence count per member; indices are bounded by the member count.
    count.assign(scheme.regions[r].members.size(), 0);
    for (int a : report.active) {
      if (a < 0) continue;
      ++present;
      ++count[static_cast<std::size_t>(a)];
    }
    for (std::uint64_t n : count) same_pairs += n * (n - 1) / 2;
    report.reconfig_pairs = present * (present - 1) / 2 - same_pairs;
    eval.total_frames += report.reconfig_pairs * report.frames;
  }

  // Worst case: max over pairs of the summed frames of regions that differ.
  for (std::size_t i = 0; i < nconf; ++i) {
    for (std::size_t j = i + 1; j < nconf; ++j) {
      std::uint64_t frames = 0;
      for (const RegionReport& report : eval.regions) {
        const int a = report.active[i];
        const int b = report.active[j];
        if (a >= 0 && b >= 0 && a != b) frames += report.frames;
      }
      eval.worst_frames = std::max(eval.worst_frames, frames);
    }
  }

  return eval;
}

SchemeEvaluation evaluate_scheme(const Design& design,
                                 const ConnectivityMatrix& matrix,
                                 const std::vector<BasePartition>& partitions,
                                 const PartitionScheme& scheme,
                                 const ResourceVec& budget) {
  // One-shot convenience path: building the context is O(P·C) word work,
  // negligible next to the evaluation it serves. Hot callers (the search,
  // the partitioner) hold a shared EvalContext instead.
  EvalContext context(design, matrix, partitions);
  EvalScratch scratch;
  return context.evaluate(scheme, budget, scratch);
}

}  // namespace prpart
