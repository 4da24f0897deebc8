#pragma once

// Internal machinery of the region-allocation search (src/core/search.cpp):
// the incremental search state, the move apply/undo records, the canonical
// scheme ordering, and the admissible completion lower bound that drives the
// branch-and-bound pruning. Exposed in a header (rather than search.cpp's
// anonymous namespace) so the white-box test suites can exercise the bound's
// admissibility/monotonicity contracts and the undo algebra directly, and so
// the benches can reproduce search decisions. Not part of the public API:
// everything here may change shape between releases; link against
// search_partitioning() for stable behaviour.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/base_partition.hpp"
#include "core/compatibility.hpp"
#include "core/scheme.hpp"
#include "core/search.hpp"
#include "device/resources.hpp"
#include "device/tiles.hpp"
#include "util/bitset.hpp"

namespace prpart::search_internal {

// Heuristic weights for collapsing a ResourceVec into one scalar: frames per
// primitive (x10), i.e. the configuration-memory cost of one unit of each
// resource. Only used to rank states; all reported numbers stay in frames.
constexpr std::uint64_t kWClb = 18;   // 36 frames / 20 CLBs
constexpr std::uint64_t kWBram = 75;  // 30 frames / 4 BRAMs
constexpr std::uint64_t kWDsp = 35;   // 28 frames / 8 DSPs

/// Header-inline: the move scan computes the objective of every considered
/// move through these two, tens of millions of times per search.
inline std::uint64_t weighted_area(const ResourceVec& r) {
  return r.clbs * kWClb + r.brams * kWBram + r.dsps * kWDsp;
}

/// Weighted amount by which `used` exceeds `budget` (0 when it fits).
inline std::uint64_t budget_excess(const ResourceVec& used,
                                   const ResourceVec& budget) {
  auto over = [](std::uint32_t u, std::uint32_t b) -> std::uint64_t {
    return u > b ? u - b : 0;
  };
  return over(used.clbs, budget.clbs) * kWClb +
         over(used.brams, budget.brams) * kWBram +
         over(used.dsps, budget.dsps) * kWDsp;
}

/// Lexicographic objective: first fit (budget excess), then — once fitting —
/// total reconfiguration time with area as tie-break; while not fitting,
/// area (the route towards fitting) with time as tie-break.
struct Objective {
  std::uint64_t excess;
  std::uint64_t primary;
  std::uint64_t secondary;

  bool operator<(const Objective& o) const {
    if (excess != o.excess) return excess < o.excess;
    if (primary != o.primary) return primary < o.primary;
    return secondary < o.secondary;
  }
};

/// The member-set-determined part of a region's cost model: every field is a
/// pure function of the set of base partitions in the region (areas are
/// element-wise maxima, tw_union sums pair weights over the occupancy union).
struct GroupCost {
  ResourceVec raw;               ///< element-wise max of member areas (Eq. 2)
  TileCount tiles;               ///< Eqs. 3-5 on raw
  std::uint64_t frames = 0;      ///< Eq. 6
  std::uint64_t tw_union = 0;    ///< pair weight over the occupancy union
};

/// One region-in-progress: a set of base partitions plus the incremental
/// cost-model quantities needed to evaluate moves in O(1).
///
/// The pair bookkeeping is weight-generalised: tw_union is the summed
/// weight of all configuration pairs where the group is active in both,
/// tw_same the part where the *same* member is active in both. Their
/// difference, times frames, is the group's (possibly weighted) Eq. 10
/// term. With uniform weights tw_union = C(|occ|, 2).
///
/// `members` is kept sorted at all times (a merge interleaves two sorted
/// lists).
struct Group {
  std::vector<std::size_t> members;
  DynBitset occ;             ///< union of member occupancies (configs)
  ResourceVec raw;           ///< element-wise max of member areas (Eq. 2)
  ResourceVec promote_area;  ///< element-wise SUM (cost of going static)
  TileCount tiles;           ///< Eqs. 3-5 on raw
  std::uint64_t frames = 0;  ///< Eq. 6
  std::uint64_t occ_count = 0;  ///< |occ| (uniform-weight fast path)
  std::uint64_t tw_union = 0;   ///< pair weight over occ x occ
  std::uint64_t tw_same = 0;    ///< pair weight kept by one member
  std::uint64_t contrib = 0;    ///< this region's term of Eq. 10
  bool alive = true;
};

struct State {
  std::vector<Group> groups;
  std::vector<std::size_t> static_members;
  ResourceVec static_extra;  ///< promoted partitions, raw sum
  ResourceVec pr_res;        ///< tile-rounded region footprints, summed
  std::uint64_t ttotal = 0;
  std::size_t alive = 0;

  ResourceVec total_res(const ResourceVec& static_base) const {
    return pr_res + static_base + static_extra;
  }
};

struct Move {
  enum class Kind : std::uint8_t { Merge, Promote } kind = Kind::Merge;
  std::size_t a = 0, b = 0;
};

/// Summed weight over unordered pairs within `occ`.
std::uint64_t pair_weight_within(const PairWeights* weights,
                                 const DynBitset& occ);

/// Summed weight over pairs with one configuration in each (disjoint)
/// occupancy set.
std::uint64_t pair_weight_between(const PairWeights* weights, const Group& a,
                                  const Group& b);

/// All currently valid moves on `s`, in the canonical (i, j) enumeration
/// order shared by every execution mode.
std::vector<Move> moves_of(const State& s, bool allow_static_promotion);

/// The member-set-determined cost of merging `a` and `b` (pure compute; the
/// search's per-worker move table memoises it across restarts).
GroupCost merged_group_cost(const Group& a, const Group& b,
                            const PairWeights* weights);

/// Initial state of one candidate partition set: every base partition in its
/// own region (zero reconfiguration time, maximum area).
State initial_state(const std::vector<BasePartition>& partitions,
                    const CompatibilityTable& compat,
                    const PairWeights* weights,
                    const std::vector<std::size_t>& candidate);

/// Everything needed to reverse one applied move in O(configs): the prior
/// scalar totals wholesale plus group `a`'s prior fields (a merge rewrites
/// them; `b` only flips `alive`). The merged occupancy union is reversed
/// exactly by subtracting `b`'s bits — merges require disjoint occupancies.
struct UndoRecord {
  Move move;
  ResourceVec prior_pr_res;
  ResourceVec prior_static_extra;
  std::uint64_t prior_ttotal = 0;
  std::size_t prior_static_count = 0;
  std::vector<std::size_t> prior_members;
  ResourceVec prior_raw;
  ResourceVec prior_promote_area;
  TileCount prior_tiles;
  std::uint64_t prior_frames = 0;
  std::uint64_t prior_occ_count = 0;
  std::uint64_t prior_tw_union = 0;
  std::uint64_t prior_tw_same = 0;
  std::uint64_t prior_contrib = 0;
  /// Slot for the caller's move-table version stamp of group `a` (the only
  /// group a move rewrites); apply/undo themselves do not touch it.
  std::uint64_t prior_version = 0;
};

/// Applies `move` to `s` and returns the record that undoes it. For merges,
/// `merge_cost` must be the merged_group_cost of the two groups (possibly
/// from a cache); promotes ignore it.
UndoRecord apply_move(State& s, const Move& move, const GroupCost* merge_cost);

/// apply_move writing into a caller-owned record: with a pooled UndoRecord
/// (the search keeps one per possible depth) the member-list copy reuses the
/// record's buffer, so steady-state apply/undo cycles never allocate.
void apply_move_into(State& s, const Move& move, const GroupCost* merge_cost,
                     UndoRecord& undo);

/// Reverses the most recent un-undone apply_move. Records must be undone in
/// strict LIFO order. The record stays intact (and reusable).
void undo_move(State& s, UndoRecord& undo);

/// Canonical key of the grouping in `s`, built straight from the state:
/// the alive groups' (sorted) member lists in lexicographic order, then the
/// static members sorted, in scheme_key's encoding. Equal groupings get
/// equal keys whatever order the moves took, so the leaderboard can
/// deduplicate and order states independently of the order in which
/// threads discovered them. This is the one definition of the canonical
/// scheme order.
std::vector<std::uint64_t> state_key(const State& s);

/// The scheme a key encodes (inverse of scheme_key), label empty.
PartitionScheme scheme_from_key(const std::vector<std::uint64_t>& key);

/// Canonicalised copy of the grouping in `s`: scheme_from_key(state_key(s)).
/// Regions are in canonical order, so the result_io serialisation of the
/// returned scheme is reproducible.
PartitionScheme canonical_scheme(const State& s);

/// Injective flat encoding of a scheme (sizes delimit the member lists).
/// Lexicographic order on the encoding is the final tie-break of the
/// leaderboard's total order, and equality is the exact deduplication
/// criterion — no hash collisions can alias two distinct groupings.
std::vector<std::uint64_t> scheme_key(const PartitionScheme& scheme);

/// A leaderboard entry: objective plus canonical key. The scheme itself is
/// decoded (scheme_from_key) only for the final top-K.
struct Kept {
  std::uint64_t ttotal = 0;
  std::uint64_t warea = 0;
  std::vector<std::uint64_t> key;
};

/// Total order on recorded schemes: objective first, canonical key last.
bool kept_before(const Kept& a, const Kept& b);

/// Inserts `entry` into the sorted leaderboard, dropping exact duplicates
/// and trimming to `keep` entries. Because kept_before is a total order and
/// duplicates compare equal, the final leaderboard is independent of the
/// insertion order — the keystone of thread-count-independent results.
void insert_kept(std::vector<Kept>& kept, Kept entry, std::size_t keep);

/// completion_lower_bound's value when no completion of the state can fit
/// the budget: the subtree is prunable against any leaderboard.
constexpr std::uint64_t kNoFittingCompletion = ~std::uint64_t{0};

/// 128-bit integers for the bound's exact rational arithmetic (a GCC/Clang
/// extension; __extension__ keeps -Wpedantic quiet).
__extension__ typedef __int128 Int128;

/// Smallest off-diagonal entry of `weights`, or 1 for uniform weights
/// (null). Every configuration pair straddling two disjoint groups costs at
/// least this much, which prices the merges the fit-forcing term charges.
std::uint64_t min_pair_weight(const PairWeights* weights);

/// Admissible lower bound on the weighted total reconfiguration time
/// (Eq. 10, scaled by SearchOptions::pair_weights when present) of every
/// *fitting* completion of `s` — every state reachable from `s` through
/// merge/promote moves whose total area fits `budget`. `min_pair_weight`
/// is min_pair_weight(pair_weights).
///
/// The element-wise fit is relaxed to four scalar projections p (the
/// combined area weights, then each resource alone); a fitting completion
/// satisfies every one, so each yields a bound and the result is their
/// maximum. Two admissible terms per projection, combined by max:
///
///  * Knapsack term. Merges only grow a region's Eq. 10 term (frames are
///    monotone under Eq. 2's element-wise max, and merged groups inherit
///    all reconfiguration pairs of Eq. 8), so a completion can beat
///    s.ttotal only by promoting groups. Some region survives unless
///    everything is promoted, and regions only grow, so promotions have at
///    most p(budget) - p(static) - min_g p(footprint(g)) of room; the best
///    contribution they can remove is at most the fractional-knapsack
///    (Dantzig) optimum.
///  * Fit-forcing term. In a completion each alive group g ends as the
///    head of its final region, absorbed into another group's region, or
///    promoted. A region's footprint is at least its head's, so with
///    t = p(footprint), a = p(promote_area) and the projected excess
///    E = sum_g t_g + p(static) - p(budget), every fitting completion has
///      sum_absorbed t_g + sum_promoted (t_g - a_g) >= E,
///    and its total is at least ttotal - sum_promoted c_g
///    + sum_absorbed k_g, where k_g = w_min * n_g * nu_g * max(f_g, phi_g)
///    charges the pairs g straddles with its head (n = occupancy count,
///    f = frames, nu/phi = smallest n/f among alive groups disjoint from g;
///    with none, g cannot be absorbed). Relaxing the roles to fractions
///    gives an LP whose dual is
///      ttotal + max_{lambda >= 0} [lambda E + sum_g min(0, k_g - lambda t_g,
///                                             -c_g - lambda (t_g - a_g))],
///    concave and piecewise linear; its maximum is found exactly over the
///    O(G) breakpoints in O(G log G) integer arithmetic and rounded down
///    (nu/phi cost O(G^2) disjointness tests, which UnitBounds pays once
///    per candidate set). When no lambda suffices (the groups cannot shed
///    E at all), no completion fits.
///
/// The bound is monotone along any decision path: applying a move to `s`
/// never lowers it (a subtree pruned at its root stays prunable all the way
/// down). Returns kNoFittingCompletion when provably no completion fits.
std::uint64_t completion_lower_bound(const State& s,
                                     const ResourceVec& static_base,
                                     const ResourceVec& budget,
                                     bool allow_static_promotion,
                                     std::uint64_t min_pair_weight);

/// completion_lower_bound for the work units of one candidate set: the
/// set's root (an initial_state, where no group contributes yet) and the
/// root pushed through one forced first move. The constructor bounds the
/// root exactly, keeping each projection's optimal multiplier lambda* and
/// each group's nu/phi. after() then bounds a unit start in O(1): weak
/// duality makes any lambda admissible, and the root's nu/phi stay lower
/// bounds below it, because occupancies, occupancy counts and frames only
/// grow under merges. The knapsack term is exact there, since only the
/// forced merge contributes. A root without fitting completions makes
/// every unit of the set kNoFittingCompletion.
class UnitBounds {
 public:
  /// `root` must outlive this object and stay unmodified.
  UnitBounds(const State& root, const ResourceVec& static_base,
             const ResourceVec& budget, bool allow_static_promotion,
             std::uint64_t min_pair_weight);

  /// completion_lower_bound(root, ...).
  std::uint64_t root() const { return root_bound_; }

  /// A lower bound on the root pushed through `first`, never above
  /// completion_lower_bound of that state. For merges, `merge_cost` is the
  /// merged_group_cost of the two groups; promotes ignore it.
  std::uint64_t after(const Move& first, const GroupCost* merge_cost) const;

 private:
  /// One projection's view of the root.
  struct Projected {
    Int128 lambda_num = 0;  ///< lambda* = lambda_num / lambda_den
    Int128 lambda_den = 1;
    Int128 excess = 0;      ///< E
    Int128 value_sum = 0;   ///< sum_g lambda_den * term_g(lambda*)
    Int128 save_sum = 0;    ///< sum_g largest save of g's roles
    std::vector<Int128> value;  ///< per group: lambda_den * term(lambda*)
    std::vector<Int128> save;   ///< per group: largest save of its roles
    std::uint64_t pbudget = 0, pstatic = 0, total_price = 0;
    /// The three smallest alive footprints as (value, group), for the
    /// knapsack term's surviving-region floor after one move.
    std::pair<std::uint64_t, std::size_t> smallest[3] = {};
  };

  const State& root_;
  bool allow_static_promotion_;
  std::uint64_t min_pair_weight_;
  std::uint64_t root_bound_ = 0;
  std::vector<std::uint64_t> nu_, phi_;  ///< per group; see above
  std::vector<bool> absorbable_;
  std::vector<Projected> proj_;
};

}  // namespace prpart::search_internal
