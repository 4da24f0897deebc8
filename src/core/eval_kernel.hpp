#pragma once

#include <cstdint>
#include <vector>

#include "core/scheme.hpp"
#include "util/bitset.hpp"

namespace prpart {

/// Counters the kernel accumulates per scratch (not per context: the context
/// is shared read-only across search threads, so mutable state lives with
/// the caller). Surfaced through SearchStats and the server result stats.
struct EvalStats {
  /// Scheme evaluations served by the kernel.
  std::uint64_t kernel_evaluations = 0;
  /// Configurations dropped from the Eq. 11 pair loop because their active
  /// signature over the contributing regions duplicated an earlier
  /// configuration's (sum of C - distinct over valid evaluations).
  std::uint64_t signature_collapsed_configs = 0;
};

class EvalContext;

/// Reusable working buffers for EvalContext::evaluate. Sized lazily on first
/// use and kept across calls, so steady-state evaluation performs no heap
/// allocation. One scratch per thread; never shared concurrently. A scratch
/// outlives any one context: the server's job workers keep one per pool
/// thread across jobs, so back-to-back jobs over same-dimension designs
/// evaluate with zero allocations *across* requests (DESIGN.md §4e).
struct EvalScratch {
  EvalStats stats;

 private:
  friend class EvalContext;
  DynBitset region_occ_;    ///< configs claimed by earlier members of a region
  DynBitset conflicts_;     ///< configs claimed by two members (invalid)
  DynBitset uncovered_;     ///< configs with at least one unprovided mode
  DynBitset static_modes_;  ///< modes provided by the static members
  DynBitset touched_;       ///< modes whose providers_ entry is live this call
  std::vector<DynBitset> providers_;       ///< per mode: configs providing it
  std::vector<std::uint32_t> kept_;        ///< regions in the Eq. 11 pass
  std::vector<std::uint64_t> kept_frames_; ///< their frame counts
  std::vector<std::int16_t> cols_;   ///< config-major active-signature rows
  std::vector<std::uint32_t> order_; ///< config permutation for signature sort
  std::vector<std::uint32_t> reps_;  ///< one config per distinct signature
  std::vector<std::uint64_t> rep_bound_;  ///< per rep: total active frames
  std::vector<std::uint32_t> rep_order_;  ///< reps by decreasing bound
};

/// Word-parallel scheme-evaluation kernel (DESIGN.md §4d/§4e).
///
/// Built once per design and shared read-only across threads, the context
/// precomputes the partition×configuration activity matrix (partition p is
/// active in configuration c iff its modes intersect column c) and the
/// configuration membership of every mode (the matrix transpose). With
/// those, evaluate() reproduces evaluate_scheme_reference byte-for-byte —
/// same SchemeEvaluation fields, same invalid_reason strings, same
/// first-diagnosed configuration — while replacing the reference's scalar
/// inner loops:
///   - region active tables: one word-AND accumulation per member instead of
///     per-config per-member mode intersections;
///   - coverage: word-parallel subset tests per mode with early exit,
///     instead of rebuilding a `provided` set per configuration;
///   - Eq. 10: popcounts of activity rows (a valid region activates a member
///     in exactly its activity configs), no per-config scan;
///   - Eq. 11: configurations grouped by their packed int16 active signature
///     over the contributing regions, so duplicate rows collapse out of the
///     O(C²·R) pair loop.
class EvalContext {
 public:
  EvalContext(const Design& design, const ConnectivityMatrix& matrix,
              const std::vector<BasePartition>& partitions);

  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  const Design& design() const { return design_; }
  const ConnectivityMatrix& matrix() const { return matrix_; }
  const std::vector<BasePartition>& partitions() const { return partitions_; }

  /// Configurations in which partition p has at least one active mode.
  const DynBitset& activity(std::size_t p) const { return activity_[p]; }

  /// Evaluates `scheme` against `budget`. Identical results to
  /// evaluate_scheme_reference for every input.
  SchemeEvaluation evaluate(const PartitionScheme& scheme,
                            const ResourceVec& budget,
                            EvalScratch& scratch) const;

  /// In-place variant: reuses `eval`'s vectors (region reports, active
  /// tables) so a warm scratch + result pair evaluates with zero heap
  /// allocations.
  void evaluate_into(const PartitionScheme& scheme, const ResourceVec& budget,
                     EvalScratch& scratch, SchemeEvaluation& eval) const;

  /// Batch evaluation (§4e): scores `count` candidate schemes of this
  /// design, writing evals[i] for schemes[i]. Exactly `count` evaluate_into
  /// calls in order — same results, same counter increments, same exception
  /// on the first offending scheme. The partitioner scores its modular and
  /// static baselines this way.
  void evaluate_batch_into(const PartitionScheme* const* schemes,
                           std::size_t count, const ResourceVec& budget,
                           EvalScratch& scratch,
                           SchemeEvaluation* evals) const;

 private:
  void prepare(EvalScratch& scratch) const;

  const Design& design_;
  const ConnectivityMatrix& matrix_;
  const std::vector<BasePartition>& partitions_;
  std::vector<DynBitset> activity_;      ///< partition -> configs (activity)
  std::vector<DynBitset> mode_configs_;  ///< mode -> configs containing it
  std::vector<std::uint32_t> used_modes_;  ///< modes present in some config
};

}  // namespace prpart
