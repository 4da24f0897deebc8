#include "oracle/optimal_reference.hpp"

#include <optional>

#include "util/status.hpp"

namespace prpart::oracle {

namespace {

std::uint64_t pairs2(std::uint64_t n) { return n * (n - 1) / 2; }

/// Mutable group state during enumeration.
struct Group {
  std::vector<std::size_t> members;
  DynBitset occ;
  ResourceVec raw;
  ResourceVec promote_area;
  std::uint64_t active = 0;
  std::uint64_t same_pairs = 0;

  std::uint64_t frames() const { return frames_for(raw); }
  std::uint64_t contrib() const {
    return (pairs2(active) - same_pairs) * frames();
  }
};

class Enumerator {
 public:
  Enumerator(const Design& design, const std::vector<BasePartition>& partitions,
             const CompatibilityTable& compat, const ResourceVec& budget,
             const std::vector<std::size_t>& candidate,
             const OptimalOptions& options)
      : design_(design),
        partitions_(partitions),
        compat_(compat),
        budget_(budget),
        items_(candidate),
        options_(options) {}

  OptimalResult run() {
    groups_.clear();
    // At most one group per item; reserving up front keeps the references
    // recurse() holds across recursive calls valid (no reallocation).
    groups_.reserve(items_.size());
    static_members_.clear();
    static_extra_ = {};
    recurse(0, 0);

    OptimalResult result;
    result.states_explored = states_;
    result.exhausted = exhausted_;
    if (best_) {
      result.feasible = true;
      result.scheme = std::move(*best_);
      result.scheme.label = "optimal";
    }
    return result;
  }

 private:
  /// Total time of the current partial assignment. Monotone non-decreasing
  /// as further items are assigned, which justifies the bound prune.
  std::uint64_t current_ttotal() const {
    std::uint64_t t = 0;
    for (const Group& g : groups_) t += g.contrib();
    return t;
  }

  ResourceVec current_total() const {
    ResourceVec total = design_.static_base() + static_extra_;
    for (const Group& g : groups_) total += tiles_for(g.raw).resources();
    return total;
  }

  void record_leaf() {
    const ResourceVec total = current_total();
    if (!total.fits_in(budget_)) return;
    const std::uint64_t ttotal = current_ttotal();
    const std::uint64_t area =
        std::uint64_t{total.clbs} + total.brams + total.dsps;
    if (best_ && (ttotal > best_ttotal_ ||
                  (ttotal == best_ttotal_ && area >= best_area_)))
      return;
    best_ttotal_ = ttotal;
    best_area_ = area;
    PartitionScheme scheme;
    for (const Group& g : groups_)
      if (!g.members.empty()) scheme.regions.push_back(Region{g.members});
    scheme.static_members = static_members_;
    best_ = std::move(scheme);
  }

  void recurse(std::size_t idx, std::size_t used_groups) {
    if (exhausted_) return;
    if (++states_ > options_.max_states) {
      exhausted_ = true;
      return;
    }
    // Bound: ttotal never decreases along a path.
    if (best_ && current_ttotal() >= best_ttotal_) return;
    if (idx == items_.size()) {
      record_leaf();
      return;
    }

    const std::size_t item = items_[idx];
    const BasePartition& p = partitions_[item];
    const DynBitset& occ = compat_.occupancy(item);

    // Option 1: join an existing group (compatibility: disjoint occupancy).
    for (std::size_t g = 0; g < used_groups; ++g) {
      Group& group = groups_[g];
      if (group.occ.intersects(occ)) continue;
      const Group saved = group;
      group.members.push_back(item);
      group.occ |= occ;
      group.raw = elementwise_max(group.raw, p.area);
      group.promote_area += p.area;
      group.active += occ.count();
      group.same_pairs += pairs2(occ.count());
      recurse(idx + 1, used_groups);
      group = saved;
      if (exhausted_) return;
    }

    // Option 2: open the next fresh group (symmetry breaking: only one).
    {
      if (groups_.size() <= used_groups)
        groups_.emplace_back(Group{{}, DynBitset(occ.size()), {}, {}, 0, 0});
      Group& group = groups_[used_groups];
      group.members = {item};
      group.occ = occ;
      group.raw = p.area;
      group.promote_area = p.area;
      group.active = occ.count();
      group.same_pairs = pairs2(occ.count());
      recurse(idx + 1, used_groups + 1);
      group.members.clear();
      group.occ = DynBitset(occ.size());
      group.raw = {};
      group.promote_area = {};
      group.active = 0;
      group.same_pairs = 0;
      if (exhausted_) return;
    }

    // Option 3: promote to static.
    if (options_.allow_static_promotion) {
      static_members_.push_back(item);
      static_extra_ += p.area;
      recurse(idx + 1, used_groups);
      static_members_.pop_back();
      static_extra_.clbs -= p.area.clbs;
      static_extra_.brams -= p.area.brams;
      static_extra_.dsps -= p.area.dsps;
    }
  }

  const Design& design_;
  const std::vector<BasePartition>& partitions_;
  const CompatibilityTable& compat_;
  const ResourceVec budget_;
  const std::vector<std::size_t>& items_;
  const OptimalOptions options_;

  std::vector<Group> groups_;
  std::vector<std::size_t> static_members_;
  ResourceVec static_extra_;

  std::uint64_t states_ = 0;
  bool exhausted_ = false;
  std::optional<PartitionScheme> best_;
  std::uint64_t best_ttotal_ = ~std::uint64_t{0};
  std::uint64_t best_area_ = ~std::uint64_t{0};
};

}  // namespace

OptimalResult optimal_partitioning_reference(
    const Design& design, const ConnectivityMatrix& matrix,
    const std::vector<BasePartition>& partitions,
    const CompatibilityTable& compat, const ResourceVec& budget,
    const std::vector<std::size_t>& candidate,
    const OptimalOptions& options) {
  Enumerator e(design, partitions, compat, budget, candidate, options);
  OptimalResult result = e.run();
  if (result.feasible) {
    result.eval =
        evaluate_scheme(design, matrix, partitions, result.scheme, budget);
    require(result.eval.valid,
            "optimal search produced an invalid scheme: " +
                result.eval.invalid_reason);
    require(result.eval.fits, "optimal search recorded a non-fitting scheme");
  }
  return result;
}

}  // namespace prpart::oracle
