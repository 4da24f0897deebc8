#include "core/partitioner.hpp"

#include <optional>

#include "core/clustering.hpp"
#include "core/compatibility.hpp"
#include "core/connectivity.hpp"
#include "core/eval_kernel.hpp"
#include "core/optimal.hpp"
#include "core/schemes.hpp"
#include "util/status.hpp"

namespace prpart {

namespace {

/// The budget-independent front end of one design (§IV-A to §IV-C): the
/// connectivity matrix, base partitions, compatibility table, evaluation-
/// kernel context and candidate partition sets. A device walk builds it
/// once and partitions (or proves) every device it visits from it. Not
/// copyable or movable (the context refers into it).
class FrontEnd {
 public:
  FrontEnd(const Design& design, const PartitionerOptions& options)
      : design_(design),
        options_(options),
        matrix_(design),
        partitions_(enumerate_base_partitions(design, matrix_,
                                              options.max_partition_modes)),
        compat_(matrix_, partitions_),
        // One evaluation-kernel context per (design, partition set): the
        // baseline evaluations, the search's final certification, and any
        // caller re-evaluation share its precomputed activity matrix
        // (DESIGN.md §4d).
        context_(design, matrix_, partitions_) {}

  /// Whether the search could record any fitting state on `budget`.
  FitProof prove(const ResourceVec& budget) {
    return prove_fit(partitions_, compat_, sets(), design_.static_base(),
                     budget, options_.search.allow_static_promotion,
                     options_.search.cancel);
  }

  /// The §IV flow on one budget: baselines, feasibility, search.
  PartitionerResult partition(const ResourceVec& budget);

 private:
  /// Candidate sets, enumerated on first use: a budget below the
  /// single-region bound never searches, so it never needs them.
  const std::vector<CandidateSet>& sets() {
    if (!sets_)
      sets_ = candidate_sets(partitions_, matrix_,
                             options_.search.max_candidate_sets,
                             options_.search.cancel);
    return *sets_;
  }

  const Design& design_;
  const PartitionerOptions& options_;
  const ConnectivityMatrix matrix_;
  const std::vector<BasePartition> partitions_;
  const CompatibilityTable compat_;
  const EvalContext context_;
  std::optional<std::vector<CandidateSet>> sets_;
};

PartitionerResult FrontEnd::partition(const ResourceVec& budget) {
  PartitionerResult result;
  result.base_partitions = partitions_;

  // A caller-provided scratch (options.search.scratch — the server's job
  // workers keep one warm per pool thread) is reused so steady-state jobs
  // evaluate with zero heap allocations (§4e).
  EvalScratch local_scratch;
  EvalScratch& scratch = options_.search.scratch != nullptr
                             ? *options_.search.scratch
                             : local_scratch;
  const std::uint64_t scratch_evals_before = scratch.stats.kernel_evaluations;
  const std::uint64_t scratch_collapsed_before =
      scratch.stats.signature_collapsed_configs;

  // Baselines, scored in one kernel batch (§4e) — same evaluations in the
  // same order as two evaluate() calls.
  result.modular.name = "Modular";
  result.modular.scheme = make_modular_scheme(design_, matrix_, partitions_);
  result.static_impl.name = "Static";
  result.static_impl.scheme = make_static_scheme(design_, matrix_, partitions_);
  {
    const PartitionScheme* baselines[2] = {&result.modular.scheme,
                                           &result.static_impl.scheme};
    SchemeEvaluation evals[2];
    context_.evaluate_batch_into(baselines, 2, budget, scratch, evals);
    result.modular.eval = std::move(evals[0]);
    result.static_impl.eval = std::move(evals[1]);
  }
  require(result.modular.eval.valid,
          "modular baseline invalid: " + result.modular.eval.invalid_reason);
  require(result.static_impl.eval.valid,
          "static baseline invalid: " + result.static_impl.eval.invalid_reason);
  // Kernel work of the baselines alone; the search folds its own
  // certification delta into its stats, so adding the whole scratch delta
  // at the end would double-count when the scratch is shared.
  const std::uint64_t baseline_evals =
      scratch.stats.kernel_evaluations - scratch_evals_before;
  const std::uint64_t baseline_collapsed =
      scratch.stats.signature_collapsed_configs - scratch_collapsed_before;

  result.single_region.name = "Single region";
  auto [single_scheme, single_eval] =
      single_region_scheme(design_, matrix_, partitions_, budget);
  result.single_region.scheme = std::move(single_scheme);
  result.single_region.eval = std::move(single_eval);

  // Feasibility (§IV-C): the single-region scheme is the area lower bound;
  // if it does not fit, no partitioning does.
  result.feasible = result.single_region.eval.fits;

  if (result.feasible) {
    SearchOptions search_options = options_.search;
    search_options.eval_context = &context_;
    SearchResult search =
        search_partitioning(design_, matrix_, partitions_, compat_, sets(),
                            budget, search_options);
    result.stats = search.stats;
    // Compare against the single-region fallback under the same objective
    // the search optimised (weighted when pair weights were supplied).
    const auto objective_of = [&](const SchemeEvaluation& e) {
      return options_.search.pair_weights
                 ? weighted_total_frames(e, *options_.search.pair_weights)
                 : e.total_frames;
    };
    if (search.feasible &&
        objective_of(search.eval) <=
            objective_of(result.single_region.eval)) {
      result.proposed = {"Proposed", std::move(search.scheme),
                         std::move(search.eval)};
      result.proposed_from_search = true;
      result.alternatives = std::move(search.alternatives);
    } else {
      // Fall back to the only scheme guaranteed to fit.
      result.proposed = result.single_region;
      result.proposed.name = "Proposed (single-region fallback)";
      result.proposed_from_search = false;
    }
  }

  // Baseline evaluations above went through the shared kernel context; fold
  // them into the stats next to the search's own certification counts.
  result.stats.kernel_evaluations += baseline_evals;
  result.stats.signature_collapsed_configs += baseline_collapsed;

  return result;
}

}  // namespace

PartitionerResult partition_design(const Design& design,
                                   const ResourceVec& budget,
                                   const PartitionerOptions& options) {
  FrontEnd front(design, options);
  return front.partition(budget);
}

DevicePartitionResult partition_on_smallest_device(
    const Design& design, const DeviceLibrary& library,
    const PartitionerOptions& options) {
  const auto& devices = library.devices();
  require(!devices.empty(), "device library is empty");

  // Feasibility by formula: PartitionerResult::feasible is exactly whether
  // the single-region footprint fits, so the walk knows its first and last
  // feasible device before building anything (DESIGN.md §4f).
  const ResourceVec lower_bound = single_region_footprint(design);
  const auto feasible = [&](std::size_t i) {
    return lower_bound.fits_in(devices[i].capacity());
  };
  std::optional<std::size_t> first, last;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (!feasible(i)) continue;
    if (!first) first = i;
    last = i;
  }
  if (!first)
    throw DeviceError("design '" + design.name() +
                      "' does not fit any device in the library");

  DevicePartitionResult out;
  out.first_feasible_index = *first;
  FrontEnd front(design, options);
  for (std::size_t i = 0;; ++i) {
    if (!feasible(i)) {
      ++out.walk.devices_skipped_infeasible;
      continue;
    }
    const ResourceVec budget = devices[i].capacity();
    if (i != *last) {
      // A device before the last feasible one keeps its answer only when
      // the search beats single-region there. With no fitting grouping the
      // search records nothing, so the walk would move on regardless.
      const FitProof proof = front.prove(budget);
      if (proof.verdict == FitVerdict::kNoFit) {
        ++out.walk.searches_skipped_no_fit;
        continue;
      }
      if (proof.verdict == FitVerdict::kInconclusive)
        ++out.walk.proofs_inconclusive;
    }
    PartitionerResult r = front.partition(budget);
    ++out.walk.searches_run;
    // Only single-region fits here: retry on the next device (§V: designs
    // re-iterated on larger FPGAs), unless none is left that can answer.
    if (!r.proposed_from_search && i != *last) continue;
    out.device = &devices[i];
    out.chosen_index = i;
    out.escalated = i != *first;
    out.result = std::move(r);
    return out;
  }
}

}  // namespace prpart
