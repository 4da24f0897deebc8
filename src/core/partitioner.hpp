#pragma once

#include <string>
#include <vector>

#include "core/base_partition.hpp"
#include "core/scheme.hpp"
#include "core/search.hpp"
#include "design/design.hpp"
#include "device/device.hpp"

namespace prpart {

struct PartitionerOptions {
  /// Search effort and parallelism. `search.threads` fans the search's
  /// work units across a worker pool (0 = default_thread_count(), 1 =
  /// inline); every thread count yields byte-identical schemes and stats,
  /// so PartitionerResult is reproducible across machines. Surfaced on the
  /// CLI as `--threads N`. `search.pool` passes a persistent WorkerPool to
  /// the search phases and `search.scratch` a warm EvalScratch to the
  /// partitioner's baseline batch and the search's certification (§4e):
  /// the server's job workers set them so steady-state requests spawn no
  /// threads and allocate nothing in the kernel.
  SearchOptions search;
  /// Cap on enumerated base-partition size passed to the clustering
  /// (0 = unlimited, the paper's behaviour). The number of co-occurring
  /// mode subsets grows as 2^(configuration width), so designs much wider
  /// than the paper's 5-6 modules should set a cap (full-configuration
  /// partitions are kept regardless).
  std::size_t max_partition_modes = 0;
};

/// A named scheme with its evaluation.
struct SchemeSummary {
  std::string name;
  PartitionScheme scheme;
  SchemeEvaluation eval;
};

/// Everything the tool reports for one design on one budget: the proposed
/// partitioning plus the three reference schemes of the paper's evaluation.
struct PartitionerResult {
  /// Whether any PR scheme fits (equivalently, whether the single-region
  /// lower bound fits; §IV-C feasibility check).
  bool feasible = false;

  /// The proposed scheme: the search result, or the single-region scheme
  /// when the search found nothing better that fits.
  SchemeSummary proposed;
  /// True when `proposed` came from the search rather than the fallback.
  bool proposed_from_search = false;

  SchemeSummary modular;        ///< one module per region
  SchemeSummary single_region;  ///< one region for everything
  SchemeSummary static_impl;    ///< fully static (usually does not fit)

  std::vector<BasePartition> base_partitions;
  /// Ranked fitting schemes from the search (ascending objective; first is
  /// `proposed` when proposed_from_search). floorplan_rerank places the
  /// top ones and re-ranks them by placement-true cost.
  std::vector<RankedScheme> alternatives;
  SearchStats stats;
};

/// Runs the whole §IV flow for `design` against a resource budget:
/// connectivity matrix, clustering, covering, compatibility, search, plus
/// the baseline schemes.
PartitionerResult partition_design(const Design& design,
                                   const ResourceVec& budget,
                                   const PartitionerOptions& options = {});

/// What the device walk decided without a search (DESIGN.md §4f).
/// Deterministic: a pure function of the design, library and options.
struct WalkStats {
  /// Devices the single-region lower bound rules out, skipped unbuilt.
  std::size_t devices_skipped_infeasible = 0;
  /// Feasible devices whose search the fit proof showed would record no
  /// fitting state, so the walk moved on without running it.
  std::size_t searches_skipped_no_fit = 0;
  /// Fit proofs that ran out of nodes; the search then ran as usual.
  std::size_t proofs_inconclusive = 0;
  /// Devices partitioned with a full search.
  std::size_t searches_run = 0;
};

/// Result of the device-selection mode (§IV-C: the tool "can suggest the
/// smallest FPGA suitable to implement the given design").
struct DevicePartitionResult {
  /// Device the design was finally partitioned on.
  const Device* device = nullptr;
  std::size_t chosen_index = 0;
  /// First device in library order whose capacity covers the single-region
  /// lower bound.
  std::size_t first_feasible_index = 0;
  /// True when the search had to escalate past the first feasible device
  /// because only the single-region scheme fit there (§V: 201 of 1000
  /// designs "could not be alternatively arranged on the smallest FPGA").
  bool escalated = false;
  PartitionerResult result;
  WalkStats walk;
};

/// Walks the library in library order (ascending size for virtex5();
/// extended() appends reference_parts() after the largest Virtex-5, so
/// its walk is not in size order past FX200T): picks the first device
/// where the design is implementable at all, partitions there, and - when
/// no scheme other than single-region is feasible - retries on the next
/// feasible device. The last feasible device answers whatever fits there.
/// Throws DeviceError when the design fits no device.
///
/// Devices whose answer is decided without a search are skipped: those the
/// single-region bound rules out, and those before the last feasible one
/// where prove_fit shows no grouping fits (`walk` counts both). The
/// connectivity matrix, partitions, compatibility table and candidate sets
/// are built once per design. Results equal partition_design's on the
/// chosen device, byte for byte.
DevicePartitionResult partition_on_smallest_device(
    const Design& design, const DeviceLibrary& library,
    const PartitionerOptions& options = {});

}  // namespace prpart
