#include "core/eval_kernel.hpp"

#include <algorithm>
#include <cstring>

#include "util/status.hpp"

namespace prpart {

namespace {

// The signature pass packs active-member ids into int16; regions with more
// members than that fall back to the direct pair loop (never hit by the
// generator, but the kernel must stay exact for any input).
constexpr std::size_t kMaxInt16Members = 32766;

}  // namespace

EvalContext::EvalContext(const Design& design, const ConnectivityMatrix& matrix,
                         const std::vector<BasePartition>& partitions)
    : design_(design), matrix_(matrix), partitions_(partitions) {
  const std::size_t nconf = matrix.configs();
  const std::size_t nmodes = matrix.modes();

  activity_.reserve(partitions.size());
  for (const BasePartition& part : partitions) {
    DynBitset act(nconf);
    for (std::size_t c = 0; c < nconf; ++c)
      if (part.modes.intersects(matrix.row(c))) act.set(c);
    activity_.push_back(std::move(act));
  }

  mode_configs_.assign(nmodes, DynBitset(nconf));
  for (std::size_t c = 0; c < nconf; ++c)
    matrix.row(c).for_each_set_bit(
        [&](std::size_t j) { mode_configs_[j].set(c); });
  for (std::size_t j = 0; j < nmodes; ++j)
    if (mode_configs_[j].any()) used_modes_.push_back(static_cast<std::uint32_t>(j));
}

void EvalContext::prepare(EvalScratch& s) const {
  const std::size_t nconf = matrix_.configs();
  const std::size_t nmodes = matrix_.modes();
  if (s.region_occ_.size() != nconf || s.static_modes_.size() != nmodes) {
    s.region_occ_ = DynBitset(nconf);
    s.conflicts_ = DynBitset(nconf);
    s.uncovered_ = DynBitset(nconf);
    s.static_modes_ = DynBitset(nmodes);
    s.touched_ = DynBitset(nmodes);
    s.providers_.assign(nmodes, DynBitset(nconf));
  }
}

SchemeEvaluation EvalContext::evaluate(const PartitionScheme& scheme,
                                       const ResourceVec& budget,
                                       EvalScratch& scratch) const {
  SchemeEvaluation eval;
  evaluate_into(scheme, budget, scratch, eval);
  return eval;
}

void EvalContext::evaluate_batch_into(const PartitionScheme* const* schemes,
                                      std::size_t count,
                                      const ResourceVec& budget,
                                      EvalScratch& scratch,
                                      SchemeEvaluation* evals) const {
  for (std::size_t i = 0; i < count; ++i)
    evaluate_into(*schemes[i], budget, scratch, evals[i]);
}

void EvalContext::evaluate_into(const PartitionScheme& scheme,
                                const ResourceVec& budget, EvalScratch& scratch,
                                SchemeEvaluation& eval) const {
  prepare(scratch);
  ++scratch.stats.kernel_evaluations;

  const std::size_t nconf = matrix_.configs();
  const std::size_t nregions = scheme.regions.size();

  eval.valid = true;
  eval.invalid_reason.clear();
  eval.fits = false;
  eval.pr_resources = {};
  eval.static_resources = {};
  eval.total_resources = {};
  eval.total_frames = 0;
  eval.worst_frames = 0;
  eval.regions.resize(nregions);

  // --- Region footprints (always, for every region) ------------------------
  for (std::size_t r = 0; r < nregions; ++r) {
    const Region& region = scheme.regions[r];
    require(!region.members.empty(), "scheme contains an empty region");
    RegionReport& report = eval.regions[r];
    report.raw = {};
    report.reconfig_pairs = 0;
    report.active.clear();
    for (std::size_t p : region.members) {
      require(p < partitions_.size(), "scheme references unknown partition");
      report.raw = elementwise_max(report.raw, partitions_[p].area);
    }
    report.tiles = tiles_for(report.raw);
    report.frames = report.tiles.frames();
    eval.pr_resources += report.tiles.resources();
  }

  // --- Static logic ---------------------------------------------------------
  eval.static_resources = design_.static_base();
  for (std::size_t p : scheme.static_members) {
    require(p < partitions_.size(), "scheme references unknown partition");
    eval.static_resources += partitions_[p].area;
  }
  eval.total_resources = eval.pr_resources + eval.static_resources;
  eval.fits = eval.total_resources.fits_in(budget);

  // --- Active tables + double-activation (fail fast) ------------------------
  // A region's active table is the union of its members' activity rows; a
  // conflict is any configuration claimed by two members. Diagnosis matches
  // the reference scan order: first region in scheme order with a conflict,
  // lowest conflicting configuration within it.
  for (std::size_t r = 0; r < nregions; ++r) {
    const Region& region = scheme.regions[r];
    RegionReport& report = eval.regions[r];
    scratch.region_occ_.clear_all();
    scratch.conflicts_.clear_all();
    for (std::size_t p : region.members) {
      const DynBitset& act = activity_[p];
      scratch.conflicts_.or_and(scratch.region_occ_, act);
      scratch.region_occ_ |= act;
    }
    if (scratch.conflicts_.any()) {
      const std::size_t cstar = scratch.conflicts_.find_first();
      eval.valid = false;
      eval.invalid_reason =
          "configuration " + design_.configurations()[cstar].name +
          " activates two partitions in one region (incompatible members)";
      // Rebuild the partial table the fail-fast reference leaves behind:
      // configurations before the diagnosed one filled normally (they have
      // at most one active member), the diagnosed one holding the second
      // claimant in member order, later ones untouched.
      report.active.assign(nconf, -1);
      for (std::size_t m = 0; m < region.members.size(); ++m)
        activity_[region.members[m]].for_each_set_bit([&](std::size_t c) {
          if (c < cstar) report.active[c] = static_cast<int>(m);
        });
      int seen = 0;
      for (std::size_t m = 0; m < region.members.size(); ++m) {
        if (!activity_[region.members[m]].test(cstar)) continue;
        if (++seen == 2) {
          report.active[cstar] = static_cast<int>(m);
          break;
        }
      }
      return;  // later regions keep empty active tables, like the reference
    }
    report.active.assign(nconf, -1);
    for (std::size_t m = 0; m < region.members.size(); ++m)
      activity_[region.members[m]].for_each_set_bit(
          [&](std::size_t c) { report.active[c] = static_cast<int>(m); });
  }

  // --- Coverage, mode-major -------------------------------------------------
  // providers_[j] accumulates the configurations in which some region
  // actively implements mode j; a mode is covered when every configuration
  // containing it is in that set (word-parallel subset test, early exit on
  // the first differing word). The union of failures reproduces the
  // reference's first failing configuration as its lowest set bit.
  scratch.static_modes_.clear_all();
  for (std::size_t p : scheme.static_members)
    scratch.static_modes_ |= partitions_[p].modes;
  scratch.touched_.clear_all();
  for (const Region& region : scheme.regions)
    for (std::size_t p : region.members) {
      const DynBitset& act = activity_[p];
      partitions_[p].modes.for_each_set_bit([&](std::size_t j) {
        if (scratch.touched_.test(j)) {
          scratch.providers_[j] |= act;
        } else {
          scratch.providers_[j] = act;
          scratch.touched_.set(j);
        }
      });
    }
  bool covered = true;
  for (std::uint32_t j : used_modes_) {
    if (scratch.static_modes_.test(j)) continue;
    if (scratch.touched_.test(j) &&
        mode_configs_[j].is_subset_of(scratch.providers_[j]))
      continue;
    if (covered) {
      covered = false;
      scratch.uncovered_.clear_all();
    }
    if (scratch.touched_.test(j))
      scratch.uncovered_.or_andnot(mode_configs_[j], scratch.providers_[j]);
    else
      scratch.uncovered_ |= mode_configs_[j];
  }
  if (!covered) {
    eval.valid = false;
    eval.invalid_reason =
        "configuration " +
        design_.configurations()[scratch.uncovered_.find_first()].name +
        " has modes not provided by any region or static logic";
    return;
  }

  // --- Eq. 10 + contributing-region detection -------------------------------
  // Valid schemes activate member m exactly in its activity configurations,
  // so the occurrence counts are plain popcounts. A region can only affect
  // the worst-case pass when at least two distinct members are active
  // somewhere; the rest add zero frames to every pair.
  scratch.kept_.clear();
  scratch.kept_frames_.clear();
  for (std::size_t r = 0; r < nregions; ++r) {
    const Region& region = scheme.regions[r];
    RegionReport& report = eval.regions[r];
    std::uint64_t present = 0;
    std::uint64_t same_pairs = 0;
    std::size_t members_present = 0;
    for (std::size_t p : region.members) {
      const std::uint64_t n = activity_[p].count();
      if (n == 0) continue;
      present += n;
      same_pairs += n * (n - 1) / 2;
      ++members_present;
    }
    report.reconfig_pairs = present * (present - 1) / 2 - same_pairs;
    eval.total_frames += report.reconfig_pairs * report.frames;
    if (members_present >= 2) {
      scratch.kept_.push_back(static_cast<std::uint32_t>(r));
      scratch.kept_frames_.push_back(report.frames);
    }
  }

  // --- Eq. 11, signature-collapsed ------------------------------------------
  const std::size_t nkept = scratch.kept_.size();
  if (nkept == 0 || nconf < 2) return;

  bool fits_int16 = true;
  for (std::uint32_t r : scratch.kept_)
    if (scheme.regions[r].members.size() > kMaxInt16Members) fits_int16 = false;
  if (!fits_int16) {
    // Direct pair loop over the contributing regions; exact but never taken
    // for realistically sized regions.
    for (std::size_t i = 0; i < nconf; ++i)
      for (std::size_t j = i + 1; j < nconf; ++j) {
        std::uint64_t frames = 0;
        for (std::size_t k = 0; k < nkept; ++k) {
          const std::vector<int>& active = eval.regions[scratch.kept_[k]].active;
          const int a = active[i];
          const int b = active[j];
          if (a >= 0 && b >= 0 && a != b) frames += scratch.kept_frames_[k];
        }
        eval.worst_frames = std::max(eval.worst_frames, frames);
      }
    return;
  }

  // Pack each configuration's active ids over the contributing regions into
  // a contiguous int16 row, then sort-group identical rows: equal rows form
  // zero-frame pairs with each other and identical pairs with everyone
  // else, so one representative per signature preserves the maximum.
  scratch.cols_.resize(nconf * nkept);
  for (std::size_t k = 0; k < nkept; ++k) {
    const std::vector<int>& active = eval.regions[scratch.kept_[k]].active;
    for (std::size_t c = 0; c < nconf; ++c)
      scratch.cols_[c * nkept + k] = static_cast<std::int16_t>(active[c]);
  }
  scratch.order_.resize(nconf);
  for (std::size_t c = 0; c < nconf; ++c)
    scratch.order_[c] = static_cast<std::uint32_t>(c);
  const std::size_t row_bytes = nkept * sizeof(std::int16_t);
  const auto row = [&](std::uint32_t c) { return &scratch.cols_[c * nkept]; };
  std::sort(scratch.order_.begin(), scratch.order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return std::memcmp(row(a), row(b), row_bytes) < 0;
            });
  scratch.reps_.clear();
  for (std::size_t i = 0; i < nconf; ++i)
    if (i == 0 ||
        std::memcmp(row(scratch.order_[i]), row(scratch.order_[i - 1]),
                    row_bytes) != 0)
      scratch.reps_.push_back(scratch.order_[i]);
  scratch.stats.signature_collapsed_configs += nconf - scratch.reps_.size();

  // A pair can reconfigure at most the regions active on both sides, so
  // frames(u, v) <= min(bound(u), bound(v)) with bound(c) the total frames
  // of the regions active in c. Visiting representatives in decreasing
  // bound order makes both loops monotone in that upper bound: as soon as
  // the bound falls to the running maximum, no remaining pair can beat it.
  // Pure pruning -- the surviving pairs produce the exact same maximum.
  const std::size_t nreps = scratch.reps_.size();
  scratch.rep_bound_.resize(nreps);
  for (std::size_t u = 0; u < nreps; ++u) {
    const std::int16_t* ru = row(scratch.reps_[u]);
    std::uint64_t bound = 0;
    for (std::size_t k = 0; k < nkept; ++k)
      if (ru[k] >= 0) bound += scratch.kept_frames_[k];
    scratch.rep_bound_[u] = bound;
  }
  scratch.rep_order_.resize(nreps);
  for (std::size_t u = 0; u < nreps; ++u)
    scratch.rep_order_[u] = static_cast<std::uint32_t>(u);
  std::sort(scratch.rep_order_.begin(), scratch.rep_order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (scratch.rep_bound_[a] != scratch.rep_bound_[b])
                return scratch.rep_bound_[a] > scratch.rep_bound_[b];
              return a < b;
            });

  for (std::size_t ui = 0; ui < nreps; ++ui) {
    const std::uint32_t u = scratch.rep_order_[ui];
    if (scratch.rep_bound_[u] <= eval.worst_frames) break;
    const std::int16_t* ru = row(scratch.reps_[u]);
    for (std::size_t vi = ui + 1; vi < nreps; ++vi) {
      const std::uint32_t v = scratch.rep_order_[vi];
      if (scratch.rep_bound_[v] <= eval.worst_frames) break;
      const std::int16_t* rv = row(scratch.reps_[v]);
      std::uint64_t frames = 0;
      for (std::size_t k = 0; k < nkept; ++k) {
        const std::int16_t a = ru[k];
        const std::int16_t b = rv[k];
        if (a >= 0 && b >= 0 && a != b) frames += scratch.kept_frames_[k];
      }
      eval.worst_frames = std::max(eval.worst_frames, frames);
    }
  }
}

}  // namespace prpart
