#pragma once

#include <cstdint>
#include <vector>

#include "core/compatibility.hpp"
#include "core/covering.hpp"
#include "core/scheme.hpp"
#include "util/cancel.hpp"

namespace prpart {

class EvalContext;   // core/eval_kernel.hpp
struct EvalScratch;  // core/eval_kernel.hpp
class WorkerPool;    // util/parallel_for.hpp

/// Symmetric per-configuration-pair weights (scaled integers, e.g. relative
/// transition probabilities x 10^6). weight[i][j] scales the cost of the
/// i <-> j transition in the search objective; the uniform Eq. 10 proxy is
/// the special case of all-equal weights.
using PairWeights = std::vector<std::vector<std::uint32_t>>;

/// Sum over unordered configuration pairs of d_ij * weight[i][j] * frames:
/// the probability-weighted generalisation of Eq. 10 (the paper's future
/// work). With all weights 1 this equals SchemeEvaluation::total_frames.
std::uint64_t weighted_total_frames(const SchemeEvaluation& evaluation,
                                    const PairWeights& weights);

/// Effort knobs of the region-allocation search. Defaults suit a single
/// design run; the synthetic sweep benches lower the evaluation budget.
struct SearchOptions {
  /// How many candidate partition sets to derive by successively removing
  /// the head of the covering list (§IV-C's outermost iteration).
  std::size_t max_candidate_sets = 32;
  /// Cap on distinct first moves per candidate set (the paper restarts the
  /// greedy assignment from every distinct initial pairing).
  std::size_t max_first_moves = 100000;
  /// Deterministic global work budget: total move evaluations across all
  /// candidate sets and restarts. The search stops cleanly when exhausted.
  std::uint64_t max_move_evaluations = 1'000'000;
  /// Allow promoting base partitions into the static region (the paper's
  /// key lever: "moving modes into the static region when possible").
  bool allow_static_promotion = true;
  /// When set (square, symmetric, one row per configuration), the search
  /// minimises the weighted total instead of the uniform Eq. 10 proxy.
  /// Must outlive the search call. The reported SchemeEvaluation still
  /// carries the canonical unweighted Eq. 10/11 numbers.
  const PairWeights* pair_weights = nullptr;
  /// Keep this many distinct best schemes (>= 1). The runners-up feed the
  /// placement ladder's re-rank (floorplan_rerank): when the best scheme
  /// cannot be floorplanned, or its placed rectangles waste more frames, a
  /// runner-up takes its place before the flow resorts to budget shrinking.
  std::size_t keep_alternatives = 4;
  /// Worker threads for the search's fan-out over work units (candidate
  /// sets x first-move restarts), by the one thread-count rule
  /// (resolve_thread_count): 0 = default_thread_count() (hardware
  /// concurrency, overridable via $PRPART_THREADS); 1 runs inline on the
  /// caller. Any other value runs on `pool` when one is given, else on one
  /// WorkerPool of at most this many threads built per search; inside a
  /// parallel_for or pool body the search spawns nothing and runs inline.
  /// Every value returns bit-identical schemes and deterministic core
  /// stats — see DESIGN.md, "Parallel region-allocation search".
  unsigned threads = 0;
  /// Branch-and-bound pruning: drop a restart unit without running it when
  /// an admissible lower bound on every fitting completion of its start
  /// state (completion_lower_bound, see DESIGN.md §4c) proves it cannot
  /// enter the final leaderboard. The bound charges what the state must
  /// still pay to fit (merges that absorb groups, promotions) as well as
  /// what promotions could remove, so over-budget starts are bounded too.
  /// Pruning is sound — any thread count and either setting of this switch
  /// return byte-identical schemes — unless the evaluation budget runs out,
  /// in which case pruning spends the budget on non-dominated units instead
  /// (equal or better results, still deterministic per setting). Off
  /// reproduces the exhaustive unit schedule; the property suite compares
  /// the two.
  bool use_bounding = true;
  /// Reuse merge costs across the restarts of one candidate set through a
  /// version-stamped per-worker move table instead of recomputing them for
  /// every considered move. Purely a wall-clock lever: results and every
  /// deterministic counter (including move_evaluations and the budget
  /// truncation points) are identical with the table off.
  bool use_move_table = true;
  /// Optional shared scheme-evaluation kernel context (nullable; must be
  /// built for the same design/matrix/partitions and outlive the search,
  /// like pair_weights). When set, the final certification of the winning
  /// scheme reuses it instead of precomputing a fresh activity matrix; the
  /// partitioner passes its per-design context here. Results are identical
  /// either way.
  const EvalContext* eval_context = nullptr;
  /// Optional reusable evaluation scratch (nullable; one per calling
  /// thread, like the context it pairs with). When set, the final
  /// certification evaluates into it instead of a call-local scratch, so a
  /// caller that keeps the scratch warm across searches — the server's job
  /// workers — certifies with zero steady-state allocations (§4e). Kernel
  /// counters accumulate in the scratch either way and are folded into the
  /// returned SearchStats identically.
  EvalScratch* scratch = nullptr;
  /// Optional persistent worker pool (nullable; must outlive the search).
  /// When set and `threads` is not 1, both phase fan-outs run on the
  /// pool's threads instead of a per-search pool — same dynamic schedule,
  /// byte-identical results — so a server worker holding a pool reaches a
  /// thread-spawn-free steady state across jobs (§4e). A pooled run uses
  /// the pool's fixed thread count.
  WorkerPool* pool = nullptr;
  /// Cooperative cancellation (nullable; must outlive the search). Workers
  /// poll it at unit boundaries and before every greedy scan (at most
  /// 8,384 move evaluations apart on the move-table path), and once per
  /// scanned row on the table-less path, so the latency stays bounded for
  /// any candidate-set size;
  /// when it fires the search unwinds with CancelledError instead of
  /// returning a partial result, so a cancelled run can never be mistaken
  /// for a completed one. The serving layer arms it with per-job deadlines
  /// and on graceful shutdown.
  const CancelToken* cancel = nullptr;
};

/// A runner-up scheme with its objective value.
struct RankedScheme {
  PartitionScheme scheme;
  std::uint64_t total_frames = 0;  ///< search objective (weighted if set)
};

struct SearchStats {
  // Deterministic core: identical for any SearchOptions::threads value.
  std::uint64_t move_evaluations = 0;
  std::size_t candidate_sets = 0;
  std::size_t greedy_runs = 0;
  std::uint64_t states_recorded = 0;
  bool budget_exhausted = false;
  /// Work units (independent greedy descents) enumerated across all
  /// candidate sets; the grain of the parallel fan-out.
  std::size_t units = 0;
  /// Units the branch-and-bound merge dropped without consuming any
  /// evaluation budget: their completion lower bound exceeded the worst
  /// kept leaderboard entry (or proved no completion could fit).
  std::size_t units_pruned = 0;
  /// The part of units_pruned whose start state provably has no fitting
  /// completion at all (the bound returned kNoFittingCompletion), so it is
  /// pruned against any leaderboard, even an empty one.
  std::size_t units_pruned_sterile = 0;
  /// Bound-tightness accumulators. Over pruned units: the summed margin by
  /// which the lower bound beat the pruning threshold. Over units that
  /// contributed leaderboard entries: the summed bound vs the summed best
  /// recorded objective (their ratio is the bound's tightness in [0, 1];
  /// 1 would be a perfect oracle).
  std::uint64_t bound_gap_sum = 0;
  std::uint64_t bound_lb_sum = 0;
  std::uint64_t bound_best_sum = 0;
  /// Scheme evaluations served by the word-parallel kernel on behalf of
  /// this search (the certification of the winning scheme; callers sharing
  /// an EvalContext fold their own counts in above this). Deterministic.
  std::uint64_t kernel_evaluations = 0;
  /// Configurations the kernel's Eq. 11 pass collapsed because their active
  /// signature duplicated another configuration's (see DESIGN.md §4d).
  /// Deterministic.
  std::uint64_t signature_collapsed_configs = 0;

  // Scheduling-dependent: these vary with thread interleaving and are NOT
  // part of the determinism contract (they never influence results).
  /// Units re-executed during the deterministic merge because their
  /// speculative evaluation budget disagreed with the canonical one.
  std::size_t units_replayed = 0;
  /// Units skipped during the speculative phase because the shared bound
  /// hint dominated them (the canonical merge re-decides each case).
  std::size_t units_pruned_speculative = 0;
  /// Merge costs computed from scratch (move-table misses plus every
  /// compatible merge a scan scores when the table is off). Exact at
  /// threads=1; replays perturb it slightly at higher thread counts. A
  /// scan the evaluation budget cuts scores nothing (its whole length is
  /// charged up front), so this counts only completed scans' merges.
  std::uint64_t full_evaluations = 0;
  /// Compatible merges a scan scored from the incremental move table. Like
  /// full_evaluations, not part of the determinism contract; at threads=1
  /// the two sum to the table-off search's full_evaluations.
  std::uint64_t moves_rescored = 0;
};

struct SearchResult {
  /// False when no explored allocation fits the budget (the caller then
  /// falls back to the single-region scheme or a larger device).
  bool feasible = false;
  PartitionScheme scheme;
  /// Evaluation of `scheme` (computed with evaluate_scheme, including the
  /// worst-case transition time). Meaningful only when feasible.
  SchemeEvaluation eval;
  /// Best fitting schemes in ascending objective order; the first entry is
  /// `scheme` itself. At most SearchOptions::keep_alternatives entries.
  std::vector<RankedScheme> alternatives;
  SearchStats stats;
};

/// Region-allocation search (§IV-C):
///
///  * every candidate partition set starts with each base partition in its
///    own region — the static-equivalent allocation with minimum (zero)
///    reconfiguration time and maximum area;
///  * moves either merge two compatible groups into one region (area falls,
///    reconfiguration time never falls) or promote a group into the static
///    logic (reconfiguration time falls, area usually grows);
///  * a greedy descent applies the best move by the lexicographic objective
///    (budget excess, then total reconfiguration time, then area), restarted
///    once from every possible first move;
///  * candidate partition sets are regenerated by removing the head of the
///    covering list until covering fails;
///  * the best *fitting* state ever visited is the answer, with ties broken
///    by a total order on (objective, canonical scheme key) so the winner
///    does not depend on discovery order;
///  * the descents are independent work units fanned out across
///    SearchOptions::threads workers; a deterministic merge reconciles the
///    global move-evaluation budget, so any thread count returns the same
///    schemes byte for byte.
SearchResult search_partitioning(const Design& design,
                                 const ConnectivityMatrix& matrix,
                                 const std::vector<BasePartition>& partitions,
                                 const CompatibilityTable& compat,
                                 const ResourceVec& budget,
                                 const SearchOptions& options = {});

/// The same search over candidate sets the caller already enumerated with
/// candidate_sets(partitions, matrix, options.max_candidate_sets). The
/// device walk enumerates them once per design and searches every device
/// from the one list; the overload above is exactly this call after its
/// own enumeration, so both return identical results.
SearchResult search_partitioning(const Design& design,
                                 const ConnectivityMatrix& matrix,
                                 const std::vector<BasePartition>& partitions,
                                 const CompatibilityTable& compat,
                                 const std::vector<CandidateSet>& sets,
                                 const ResourceVec& budget,
                                 const SearchOptions& options = {});

}  // namespace prpart
