#include "core/optimal.hpp"

#include <algorithm>
#include <optional>

#include "core/search_internal.hpp"
#include "device/tiles.hpp"
#include "util/status.hpp"

namespace prpart {

namespace {

std::uint64_t pairs2(std::uint64_t n) { return n * (n - 1) / 2; }

/// The grouping enumerator described in optimal.hpp. Deciding fit, it
/// stops at the first fitting leaf; optimising, it records a leaf only when
/// it is strictly faster than the best so far (the time prune runs first,
/// so every leaf it reaches is). Nodes accumulate across run() calls
/// against one node budget.
class GroupingEnumerator {
 public:
  enum class Goal : std::uint8_t { kDecideFit, kOptimise };

  GroupingEnumerator(const std::vector<BasePartition>& partitions,
                     const CompatibilityTable& compat,
                     const ResourceVec& static_base, const ResourceVec& budget,
                     bool allow_static_promotion, Goal goal,
                     const CancelToken* cancel, std::uint64_t node_budget)
      : partitions_(partitions),
        compat_(compat),
        static_base_(static_base),
        budget_(budget),
        allow_static_promotion_(allow_static_promotion),
        goal_(goal),
        cancel_(cancel),
        node_budget_(node_budget) {}

  /// Enumerates the groupings of `items` in their order. Returns true when
  /// deciding fit and some grouping fits; false otherwise, with
  /// out_of_nodes() set when the node budget ran out first.
  bool run(const CandidateSet& items) {
    items_ = &items;
    // One slot per item at most; sized up front, so the references
    // assign() holds across recursive calls stay valid.
    groups_.resize(items.size());
    open_ = 0;
    static_members_.clear();
    return assign(0, static_base_, 0);
  }

  bool out_of_nodes() const { return out_of_nodes_; }
  std::uint64_t nodes() const { return nodes_; }
  /// The best fitting grouping found while optimising.
  std::optional<PartitionScheme> take_best() { return std::move(best_); }

 private:
  struct Group {
    std::vector<std::size_t> members;
    DynBitset occ;           ///< union of the members' occupancies
    ResourceVec raw;         ///< element-wise max of the members' areas
    TileCount tiles;         ///< tiles_for(raw)
    std::uint64_t active = 0;      ///< configurations some member is in
    std::uint64_t same_pairs = 0;  ///< configuration pairs inside a member

    /// The region's Eq. 10 term: frames times its cross-member pairs.
    std::uint64_t time() const {
      return (pairs2(active) - same_pairs) * tiles.frames();
    }
  };

  /// `used` and `time` are the totals of the assignment of items_[0, idx):
  /// static base, promoted raw areas and region footprints; the sum of the
  /// open regions' Eq. 10 terms.
  bool assign(std::size_t idx, const ResourceVec& used, std::uint64_t time) {
    if (out_of_nodes_) return false;
    if (++nodes_ > node_budget_) {
      out_of_nodes_ = true;
      return false;
    }
    if ((nodes_ & 511u) == 0) check_cancel(cancel_);
    if (!used.fits_in(budget_)) return false;
    if (best_ && time >= best_time_) return false;
    if (idx == items_->size()) {
      if (goal_ == Goal::kDecideFit) return true;
      record_leaf(time);
      return false;
    }

    const std::size_t item = (*items_)[idx];
    const ResourceVec& area = partitions_[item].area;
    const DynBitset& occ = compat_.occupancy(item);
    const std::uint64_t n = occ.count();

    // Join an open region whose members never co-occur with the item.
    for (std::size_t g = 0; g < open_; ++g) {
      Group& group = groups_[g];
      if (group.occ.intersects(occ)) continue;
      const ResourceVec saved_raw = group.raw;
      const TileCount saved_tiles = group.tiles;
      const std::uint64_t saved_time = group.time();
      group.members.push_back(item);
      group.occ |= occ;
      group.raw = elementwise_max(group.raw, area);
      group.tiles = tiles_for(group.raw);
      group.active += n;
      group.same_pairs += pairs2(n);
      // Both terms only grow: add the new one, then subtract the old.
      const ResourceVec old_footprint = saved_tiles.resources();
      ResourceVec next = used + group.tiles.resources();
      next.clbs -= old_footprint.clbs;
      next.brams -= old_footprint.brams;
      next.dsps -= old_footprint.dsps;
      const bool found =
          assign(idx + 1, next, time + group.time() - saved_time);
      group.members.pop_back();
      group.occ.subtract(occ);  // disjoint, so this restores it exactly
      group.raw = saved_raw;
      group.tiles = saved_tiles;
      group.active -= n;
      group.same_pairs -= pairs2(n);
      if (found) return true;
    }

    // Open the next region.
    {
      Group& group = groups_[open_++];
      group.members.assign(1, item);
      group.occ = occ;
      group.raw = area;
      group.tiles = tiles_for(area);
      group.active = n;
      group.same_pairs = pairs2(n);
      const bool found = assign(idx + 1, used + group.tiles.resources(),
                                time + group.time());
      --open_;
      if (found) return true;
    }

    // Promote into the static logic.
    if (!allow_static_promotion_) return false;
    static_members_.push_back(item);
    const bool found = assign(idx + 1, used + area, time);
    static_members_.pop_back();
    return found;
  }

  void record_leaf(std::uint64_t time) {
    best_time_ = time;
    PartitionScheme scheme;
    for (std::size_t g = 0; g < open_; ++g)
      scheme.regions.push_back(Region{groups_[g].members});
    scheme.static_members = static_members_;
    best_ = std::move(scheme);
  }

  const std::vector<BasePartition>& partitions_;
  const CompatibilityTable& compat_;
  const ResourceVec static_base_;
  const ResourceVec budget_;
  const bool allow_static_promotion_;
  const Goal goal_;
  const CancelToken* cancel_;
  const std::uint64_t node_budget_;

  const CandidateSet* items_ = nullptr;
  std::vector<Group> groups_;  ///< slots; the first open_ are open regions
  std::size_t open_ = 0;
  std::vector<std::size_t> static_members_;
  std::uint64_t nodes_ = 0;
  bool out_of_nodes_ = false;
  std::optional<PartitionScheme> best_;
  std::uint64_t best_time_ = 0;
};

}  // namespace

OptimalResult optimal_partitioning(const Design& design,
                                   const ConnectivityMatrix& matrix,
                                   const std::vector<BasePartition>& partitions,
                                   const CompatibilityTable& compat,
                                   const ResourceVec& budget,
                                   const std::vector<std::size_t>& candidate,
                                   const OptimalOptions& options) {
  GroupingEnumerator e(partitions, compat, design.static_base(), budget,
                       options.allow_static_promotion,
                       GroupingEnumerator::Goal::kOptimise, nullptr,
                       options.max_states);
  e.run(candidate);
  OptimalResult result;
  result.states_explored = e.nodes();
  result.exhausted = e.out_of_nodes();
  if (std::optional<PartitionScheme> best = e.take_best()) {
    result.feasible = true;
    result.scheme = std::move(*best);
    result.scheme.label = "optimal";
    result.eval =
        evaluate_scheme(design, matrix, partitions, result.scheme, budget);
    require(result.eval.valid,
            "optimal search produced an invalid scheme: " +
                result.eval.invalid_reason);
    require(result.eval.fits, "optimal search recorded a non-fitting scheme");
  }
  return result;
}

OptimalResult optimal_mode_level_partitioning(
    const Design& design, const ConnectivityMatrix& matrix,
    const std::vector<BasePartition>& partitions,
    const CompatibilityTable& compat, const ResourceVec& budget,
    const OptimalOptions& options) {
  const std::vector<std::size_t> order = covering_order(partitions);
  const CoverResult cov = cover(partitions, matrix, order, 0);
  require(cov.complete, "mode-level covering failed");
  return optimal_partitioning(design, matrix, partitions, compat, budget,
                              cov.selected, options);
}

FitProof prove_fit(const std::vector<BasePartition>& partitions,
                   const CompatibilityTable& compat,
                   const std::vector<CandidateSet>& sets,
                   const ResourceVec& static_base, const ResourceVec& budget,
                   bool allow_static_promotion, const CancelToken* cancel,
                   std::uint64_t node_budget) {
  GroupingEnumerator e(partitions, compat, static_base, budget,
                       allow_static_promotion,
                       GroupingEnumerator::Goal::kDecideFit, cancel,
                       node_budget);
  FitProof proof;
  proof.verdict = FitVerdict::kNoFit;
  CandidateSet items;
  for (const CandidateSet& set : sets) {
    check_cancel(cancel);
    // Largest partitions first: they decide most of the footprint, so
    // non-fitting prefixes are cut near the root.
    items = set;
    std::sort(items.begin(), items.end(), [&](std::size_t a, std::size_t b) {
      const std::uint64_t wa =
          search_internal::weighted_area(partitions[a].area);
      const std::uint64_t wb =
          search_internal::weighted_area(partitions[b].area);
      if (wa != wb) return wa > wb;
      return a < b;
    });
    if (e.run(items)) {
      proof.verdict = FitVerdict::kFits;
      break;
    }
    if (e.out_of_nodes()) {
      proof.verdict = FitVerdict::kInconclusive;
      break;
    }
  }
  proof.nodes = e.nodes();
  return proof;
}

}  // namespace prpart
