#include "core/fit_proof.hpp"

#include <algorithm>

#include "core/search_internal.hpp"
#include "device/tiles.hpp"

namespace prpart {

namespace {

/// Depth-first enumeration of the groupings of one candidate set. Regions
/// are opened in order (an item may only open the next fresh region), so
/// each grouping is visited once.
class Prover {
 public:
  Prover(const std::vector<BasePartition>& partitions,
         const CompatibilityTable& compat, const ResourceVec& static_base,
         const ResourceVec& budget, bool allow_static_promotion,
         const CancelToken* cancel, std::uint64_t node_budget)
      : partitions_(partitions),
        compat_(compat),
        static_base_(static_base),
        budget_(budget),
        allow_static_promotion_(allow_static_promotion),
        cancel_(cancel),
        node_budget_(node_budget) {}

  /// True when some grouping of `set` fits; sets out_of_nodes_ (and
  /// returns false) when the node budget runs out first.
  bool fits(const CandidateSet& set) {
    // Largest partitions first: they decide most of the footprint, so
    // non-fitting prefixes are cut near the root.
    items_ = set;
    std::sort(items_.begin(), items_.end(), [&](std::size_t a, std::size_t b) {
      const ResourceVec& x = partitions_[a].area;
      const ResourceVec& y = partitions_[b].area;
      const std::uint64_t wx = search_internal::weighted_area(x);
      const std::uint64_t wy = search_internal::weighted_area(y);
      if (wx != wy) return wx > wy;
      return a < b;
    });
    regions_.clear();
    regions_.reserve(items_.size());
    return assign(0, static_base_);
  }

  bool out_of_nodes() const { return out_of_nodes_; }
  std::uint64_t nodes() const { return nodes_; }

 private:
  struct Region {
    DynBitset occ;          ///< union of the members' occupancies
    ResourceVec raw;        ///< element-wise max of the members' areas
    ResourceVec footprint;  ///< tiles_for(raw) in primitives
  };

  /// `used` is the total of the assignment of items_[0, idx): static base,
  /// promoted raw areas and region footprints.
  bool assign(std::size_t idx, const ResourceVec& used) {
    if (out_of_nodes_) return false;
    if (++nodes_ > node_budget_) {
      out_of_nodes_ = true;
      return false;
    }
    if ((nodes_ & 511u) == 0) check_cancel(cancel_);
    if (!used.fits_in(budget_)) return false;
    if (idx == items_.size()) return true;

    const std::size_t item = items_[idx];
    const ResourceVec& area = partitions_[item].area;
    const DynBitset& occ = compat_.occupancy(item);

    // Join an open region whose members never co-occur with the item.
    for (std::size_t g = 0; g < regions_.size(); ++g) {
      Region& region = regions_[g];
      if (region.occ.intersects(occ)) continue;
      const ResourceVec raw = elementwise_max(region.raw, area);
      const ResourceVec footprint = tiles_for(raw).resources();
      // footprint >= region.footprint element-wise: add, then subtract.
      ResourceVec next = used + footprint;
      next.clbs -= region.footprint.clbs;
      next.brams -= region.footprint.brams;
      next.dsps -= region.footprint.dsps;
      const ResourceVec saved_raw = region.raw;
      const ResourceVec saved_footprint = region.footprint;
      region.occ |= occ;
      region.raw = raw;
      region.footprint = footprint;
      const bool found = assign(idx + 1, next);
      region.occ.subtract(occ);  // disjoint, so this restores it exactly
      region.raw = saved_raw;
      region.footprint = saved_footprint;
      if (found) return true;
    }

    // Open the next region.
    {
      const ResourceVec footprint = tiles_for(area).resources();
      regions_.push_back(Region{occ, area, footprint});
      const bool found = assign(idx + 1, used + footprint);
      regions_.pop_back();
      if (found) return true;
    }

    // Promote into the static logic.
    return allow_static_promotion_ && assign(idx + 1, used + area);
  }

  const std::vector<BasePartition>& partitions_;
  const CompatibilityTable& compat_;
  const ResourceVec static_base_;
  const ResourceVec budget_;
  const bool allow_static_promotion_;
  const CancelToken* cancel_;
  const std::uint64_t node_budget_;

  CandidateSet items_;
  std::vector<Region> regions_;
  std::uint64_t nodes_ = 0;
  bool out_of_nodes_ = false;
};

}  // namespace

FitProof prove_fit(const std::vector<BasePartition>& partitions,
                   const CompatibilityTable& compat,
                   const std::vector<CandidateSet>& sets,
                   const ResourceVec& static_base, const ResourceVec& budget,
                   bool allow_static_promotion, const CancelToken* cancel,
                   std::uint64_t node_budget) {
  Prover prover(partitions, compat, static_base, budget,
                allow_static_promotion, cancel, node_budget);
  FitProof proof;
  proof.verdict = FitVerdict::kNoFit;
  for (const CandidateSet& set : sets) {
    check_cancel(cancel);
    if (prover.fits(set)) {
      proof.verdict = FitVerdict::kFits;
      break;
    }
    if (prover.out_of_nodes()) {
      proof.verdict = FitVerdict::kInconclusive;
      break;
    }
  }
  proof.nodes = prover.nodes();
  return proof;
}

}  // namespace prpart
