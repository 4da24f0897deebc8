#include "core/search_internal.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <limits>
#include <span>

#include "util/status.hpp"

namespace prpart::search_internal {

namespace {

std::uint64_t pairs2(std::uint64_t n) { return n * (n - 1) / 2; }

}  // namespace

std::uint64_t pair_weight_within(const PairWeights* weights,
                                 const DynBitset& occ) {
  if (!weights) return pairs2(occ.count());
  std::uint64_t total = 0;
  occ.for_each_set_bit([&](std::size_t a) {
    occ.for_each_set_bit([&](std::size_t b) {
      if (b > a) total += (*weights)[a][b];
    });
  });
  return total;
}

std::uint64_t pair_weight_between(const PairWeights* weights, const Group& a,
                                  const Group& b) {
  if (!weights) return a.occ_count * b.occ_count;
  std::uint64_t total = 0;
  a.occ.for_each_set_bit([&](std::size_t i) {
    b.occ.for_each_set_bit(
        [&](std::size_t j) { total += (*weights)[i][j]; });
  });
  return total;
}

std::vector<Move> moves_of(const State& s, bool allow_static_promotion) {
  std::vector<Move> moves;
  const std::size_t n = s.groups.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!s.groups[i].alive) continue;
    for (std::size_t j = i + 1; j < n; ++j)
      if (s.groups[j].alive) moves.push_back({Move::Kind::Merge, i, j});
    if (allow_static_promotion) moves.push_back({Move::Kind::Promote, i, 0});
  }
  return moves;
}

GroupCost merged_group_cost(const Group& a, const Group& b,
                            const PairWeights* weights) {
  GroupCost cost;
  cost.raw = elementwise_max(a.raw, b.raw);
  cost.tiles = tiles_for(cost.raw);
  cost.frames = cost.tiles.frames();
  cost.tw_union = a.tw_union + b.tw_union + pair_weight_between(weights, a, b);
  return cost;
}

State initial_state(const std::vector<BasePartition>& partitions,
                    const CompatibilityTable& compat,
                    const PairWeights* weights,
                    const std::vector<std::size_t>& candidate) {
  State s;
  s.groups.reserve(candidate.size());
  for (std::size_t p : candidate) {
    Group g;
    g.members = {p};
    g.occ = compat.occupancy(p);
    g.raw = partitions[p].area;
    g.promote_area = partitions[p].area;
    g.tiles = tiles_for(g.raw);
    g.frames = g.tiles.frames();
    g.occ_count = g.occ.count();
    g.tw_union = pair_weight_within(weights, g.occ);
    g.tw_same = g.tw_union;
    g.contrib = 0;  // a single alternative never reconfigures
    s.groups.push_back(std::move(g));
    s.pr_res += s.groups.back().tiles.resources();
  }
  s.alive = s.groups.size();
  return s;
}

UndoRecord apply_move(State& s, const Move& move, const GroupCost* merge_cost) {
  UndoRecord undo;
  apply_move_into(s, move, merge_cost, undo);
  return undo;
}

void apply_move_into(State& s, const Move& move, const GroupCost* merge_cost,
                     UndoRecord& undo) {
  undo.move = move;
  undo.prior_pr_res = s.pr_res;
  undo.prior_static_extra = s.static_extra;
  undo.prior_ttotal = s.ttotal;
  undo.prior_static_count = s.static_members.size();

  Group& ga = s.groups[move.a];
  auto remove_footprint = [&](const Group& g) {
    s.pr_res.clbs -= g.tiles.resources().clbs;
    s.pr_res.brams -= g.tiles.resources().brams;
    s.pr_res.dsps -= g.tiles.resources().dsps;
    s.ttotal -= g.contrib;
  };
  if (move.kind == Move::Kind::Merge) {
    Group& gb = s.groups[move.b];
    remove_footprint(ga);
    remove_footprint(gb);
    const GroupCost& cost = *merge_cost;
    // Copy (not move) the member list: both vectors keep their buffers, so
    // a pooled UndoRecord makes the apply/undo cycle allocation-free once
    // the capacities have grown to their high-water marks.
    undo.prior_members = ga.members;
    undo.prior_raw = ga.raw;
    undo.prior_promote_area = ga.promote_area;
    undo.prior_tiles = ga.tiles;
    undo.prior_frames = ga.frames;
    undo.prior_occ_count = ga.occ_count;
    undo.prior_tw_union = ga.tw_union;
    undo.prior_tw_same = ga.tw_same;
    undo.prior_contrib = ga.contrib;
    ga.members.resize(undo.prior_members.size() + gb.members.size());
    std::merge(undo.prior_members.begin(), undo.prior_members.end(),
               gb.members.begin(), gb.members.end(), ga.members.begin());
    ga.occ |= gb.occ;
    ga.raw = cost.raw;
    ga.promote_area += gb.promote_area;
    ga.tiles = cost.tiles;
    ga.frames = cost.frames;
    ga.occ_count += gb.occ_count;
    ga.tw_union = cost.tw_union;
    ga.tw_same += gb.tw_same;
    ga.contrib = (ga.tw_union - ga.tw_same) * ga.frames;
    gb.alive = false;
    --s.alive;
    s.pr_res += ga.tiles.resources();
    s.ttotal += ga.contrib;
  } else {
    remove_footprint(ga);
    s.static_extra += ga.promote_area;
    s.static_members.insert(s.static_members.end(), ga.members.begin(),
                            ga.members.end());
    ga.alive = false;
    --s.alive;
  }
}

void undo_move(State& s, UndoRecord& undo) {
  Group& ga = s.groups[undo.move.a];
  if (undo.move.kind == Move::Kind::Merge) {
    Group& gb = s.groups[undo.move.b];
    // Merged occupancies are disjoint, so subtracting b's bits restores a's
    // exact prior occupancy — the O(configs) part of the undo.
    ga.occ.subtract(gb.occ);
    ga.members = undo.prior_members;  // copy: the record keeps its buffer
    ga.raw = undo.prior_raw;
    ga.promote_area = undo.prior_promote_area;
    ga.tiles = undo.prior_tiles;
    ga.frames = undo.prior_frames;
    ga.occ_count = undo.prior_occ_count;
    ga.tw_union = undo.prior_tw_union;
    ga.tw_same = undo.prior_tw_same;
    ga.contrib = undo.prior_contrib;
    gb.alive = true;
  } else {
    s.static_members.resize(undo.prior_static_count);
    ga.alive = true;
  }
  ++s.alive;
  s.pr_res = undo.prior_pr_res;
  s.static_extra = undo.prior_static_extra;
  s.ttotal = undo.prior_ttotal;
}

std::vector<std::uint64_t> state_key(const State& s) {
  // Members are sorted within every group, so ordering the alive groups'
  // member lists lexicographically is all the region order needs.
  std::vector<const std::vector<std::size_t>*> regions;
  regions.reserve(s.alive);
  std::size_t total = 2 + s.static_members.size();
  for (const Group& g : s.groups)
    if (g.alive) {
      regions.push_back(&g.members);
      total += 1 + g.members.size();
    }
  std::sort(regions.begin(), regions.end(),
            [](const auto* a, const auto* b) { return *a < *b; });
  std::vector<std::uint64_t> key;
  key.reserve(total);
  key.push_back(regions.size());
  for (const std::vector<std::size_t>* members : regions) {
    key.push_back(members->size());
    key.insert(key.end(), members->begin(), members->end());
  }
  key.push_back(s.static_members.size());
  const auto statics = key.insert(key.end(), s.static_members.begin(),
                                  s.static_members.end());
  std::sort(statics, key.end());
  return key;
}

PartitionScheme scheme_from_key(const std::vector<std::uint64_t>& key) {
  PartitionScheme scheme;
  auto it = key.begin();
  scheme.regions.resize(*it++);
  for (Region& region : scheme.regions) {
    const auto size = static_cast<std::ptrdiff_t>(*it++);
    region.members.assign(it, it + size);
    it += size;
  }
  const auto size = static_cast<std::ptrdiff_t>(*it++);
  scheme.static_members.assign(it, it + size);
  return scheme;
}

PartitionScheme canonical_scheme(const State& s) {
  return scheme_from_key(state_key(s));
}

std::vector<std::uint64_t> scheme_key(const PartitionScheme& scheme) {
  std::vector<std::uint64_t> key;
  std::size_t total = 2 + scheme.static_members.size();
  for (const Region& r : scheme.regions) total += 1 + r.members.size();
  key.reserve(total);
  key.push_back(scheme.regions.size());
  for (const Region& r : scheme.regions) {
    key.push_back(r.members.size());
    for (std::size_t m : r.members) key.push_back(m);
  }
  key.push_back(scheme.static_members.size());
  for (std::size_t m : scheme.static_members) key.push_back(m);
  return key;
}

bool kept_before(const Kept& a, const Kept& b) {
  if (a.ttotal != b.ttotal) return a.ttotal < b.ttotal;
  if (a.warea != b.warea) return a.warea < b.warea;
  return a.key < b.key;
}

void insert_kept(std::vector<Kept>& kept, Kept entry, std::size_t keep) {
  const auto pos =
      std::lower_bound(kept.begin(), kept.end(), entry, kept_before);
  if (pos != kept.end() && pos->key == entry.key) return;
  kept.insert(pos, std::move(entry));
  if (kept.size() > keep) kept.pop_back();
}

std::uint64_t min_pair_weight(const PairWeights* weights) {
  if (!weights) return 1;
  std::uint64_t w = ~std::uint64_t{0};
  for (std::size_t i = 0; i < weights->size(); ++i)
    for (std::size_t j = 0; j < (*weights)[i].size(); ++j)
      if (i != j) w = std::min<std::uint64_t>(w, (*weights)[i][j]);
  return w;
}

namespace {

using i128 = Int128;
__extension__ typedef unsigned __int128 u128;

/// Exact comparison of the non-negative rationals a/b and c/d (b, d > 0)
/// by synchronous continued-fraction expansion: compare the integer parts,
/// then recurse on the flipped reciprocals of the remainders. Never
/// overflows — the naive cross-multiplication a*d vs c*b does not fit in 64
/// bits for knapsack densities (contribution counts reach ~2^50).
int frac_cmp(std::uint64_t a, std::uint64_t b, std::uint64_t c,
             std::uint64_t d) {
  int sign = 1;
  for (;;) {
    const std::uint64_t qa = a / b;
    const std::uint64_t qc = c / d;
    if (qa != qc) return (qa < qc ? -1 : 1) * sign;
    const std::uint64_t ra = a % b;
    const std::uint64_t rc = c % d;
    if (ra == 0 || rc == 0) {
      if (ra == rc) return 0;
      return (ra == 0 ? -1 : 1) * sign;
    }
    // ra/b vs rc/d compares as the *inverse* of b/ra vs d/rc.
    a = b;
    c = d;
    b = ra;
    d = rc;
    sign = -sign;
  }
}

/// Knapsack item: promoting the group at `slot` frees `value` weighted
/// frames of Eq. 10 contribution at a static-area price of `price`.
struct PromoteItem {
  std::uint64_t value = 0;
  std::uint64_t price = 0;
  std::size_t slot = 0;
};

/// One scalarisation of the element-wise area constraint. A fitting
/// completion satisfies every projection's scalar inequality, so each
/// projection yields an independently admissible bound and the final bound
/// takes their maximum. The single-resource projections catch subtrees that
/// are starved of one resource long before the combined scalar notices.
struct Projection {
  std::uint64_t clb, bram, dsp;
};

constexpr Projection kProjections[] = {
    {kWClb, kWBram, kWDsp},  // the search's combined area scalarisation
    {1, 0, 0},               // CLBs alone
    {0, 1, 0},               // BRAMs alone
    {0, 0, 1},               // DSPs alone
};
constexpr std::size_t kProjectionCount = std::size(kProjections);

std::uint64_t project(const Projection& p, const ResourceVec& r) {
  return r.clbs * p.clb + r.brams * p.bram + r.dsps * p.dsp;
}

/// What the knapsack term needs of a state under one projection.
struct KnapsackView {
  std::uint64_t pbudget = 0;
  std::uint64_t pstatic = 0;      ///< static base plus promoted area
  std::uint64_t total_price = 0;  ///< summed promotion price, alive groups
  std::uint64_t minfoot = ~std::uint64_t{0};  ///< smallest alive footprint
  std::size_t alive = 0;
  std::uint64_t ttotal = 0;
};

/// The knapsack term under one projection; `items` are the alive groups
/// with a non-zero contribution (reordered in place).
/// kNoFittingCompletion means the projection alone proves no completion
/// can fit.
std::uint64_t knapsack_term(const KnapsackView& v, std::span<PromoteItem> items,
                            bool allow_static_promotion) {
  // Any fitting total covers the static area element-wise, so a projected
  // static area beyond the projected budget proves the subtree sterile.
  if (v.pstatic > v.pbudget) return kNoFittingCompletion;
  // No alive groups: the state is its own only completion.
  if (v.alive == 0) return v.ttotal;
  const std::uint64_t cap0 = v.pbudget - v.pstatic;

  // Two exhaustive shapes of a completion. (a) Everything promoted: needs
  // the summed promotion price within cap0. (b) At least one region
  // remains: since regions only grow under merges, some region's footprint
  // is at least the smallest alive group's tile-rounded footprint, leaving
  // at most cap0 - minfoot of capacity for promotions.
  const bool all_promotable =
      allow_static_promotion && v.total_price <= cap0;
  const bool region_fits = v.minfoot <= cap0;
  if (!all_promotable && !region_fits) return kNoFittingCompletion;
  // Merges only ever raise the total (contribution superadditivity), so
  // without promotions the current total is itself the floor.
  if (!allow_static_promotion) return v.ttotal;
  if (all_promotable) return 0;  // every contribution may become removable
  if (v.ttotal == 0) return 0;

  std::uint64_t capacity = cap0 - v.minfoot;
  std::uint64_t removable = 0;  // groups promotable at zero area price
  std::size_t priced = 0;
  for (const PromoteItem& item : items) {
    if (item.price == 0)
      removable += item.value;
    else
      items[priced++] = item;
  }
  items = items.first(priced);
  // Best-density-first greedy with a fractional last item is the exact LP
  // optimum (Dantzig bound), an upper bound on any promotable subset's
  // value. The density order must be exact: a misordered prefix can
  // undershoot the LP optimum and break admissibility.
  std::sort(items.begin(), items.end(),
            [](const PromoteItem& x, const PromoteItem& y) {
              const int cmp =
                  frac_cmp(x.value, x.price, y.value, y.price);
              if (cmp != 0) return cmp > 0;
              return x.slot < y.slot;
            });
  for (const PromoteItem& item : items) {
    if (item.price <= capacity) {
      removable += item.value;
      capacity -= item.price;
      continue;
    }
    // floor(value * capacity / price) without 128-bit arithmetic: split the
    // value into price-quotient and remainder. The remainder product fits
    // (both factors < price <= weighted device area); if a pathological
    // input overflows anyway, fall back to the whole value — a looser but
    // still admissible bound.
    const std::uint64_t quot = item.value / item.price;
    const std::uint64_t rem = item.value % item.price;
    std::uint64_t fraction = quot * capacity;
    if (rem > 0) {
      if (capacity >
          std::numeric_limits<std::uint64_t>::max() / rem)
        fraction = item.value;
      else
        fraction += rem * capacity / item.price;
    }
    removable += std::min(fraction, item.value);
    break;
  }
  return v.ttotal - std::min(v.ttotal, removable);
}

/// One group's roles in a completion under one projection, each a line
/// cost - lambda * save in the multiplier lambda: head (0, 0), absorbed
/// (k, t) when `absorbable`, promoted (-c, t - a) when `promotable`.
struct Roles {
  std::uint64_t t = 0;  ///< projected footprint
  std::uint64_t a = 0;  ///< projected promotion price
  std::uint64_t c = 0;  ///< Eq. 10 contribution
  std::uint64_t k = 0;  ///< least added contribution when absorbed
  bool absorbable = false;
  bool promotable = false;
};

/// The largest save among g's roles: the most it can shed of the excess.
i128 largest_save(const Roles& r) {
  i128 save = 0;
  if (r.absorbable) save = std::max<i128>(save, r.t);
  if (r.promotable) save = std::max<i128>(save, i128{r.t} - r.a);
  return save;
}

/// den * min over r's roles of (cost - (num / den) * save).
i128 scaled_term(const Roles& r, i128 num, i128 den) {
  i128 v = 0;
  if (r.absorbable) v = std::min(v, den * r.k - num * r.t);
  if (r.promotable) v = std::min(v, -den * r.c - num * (i128{r.t} - r.a));
  return v;
}

/// A kink of the dual at lambda = num / den. `den` is the save gained there,
/// so the dual's slope falls by it.
struct Breakpoint {
  i128 num = 0, den = 1;
};

/// Appends the kinks of min over r's roles (at most two: the lower envelope
/// of three lines) and returns the save of the role optimal just right of
/// lambda = 0.
i128 role_breakpoints(const Roles& r, std::vector<Breakpoint>& out) {
  struct Line {
    i128 cost, save;
  };
  Line lines[3] = {{0, 0}, {}, {}};
  int n = 1;
  if (r.absorbable) lines[n++] = {i128{r.k}, i128{r.t}};
  if (r.promotable) lines[n++] = {-i128{r.c}, i128{r.t} - r.a};
  int cur = 0;
  for (int i = 1; i < n; ++i)
    if (lines[i].cost < lines[cur].cost ||
        (lines[i].cost == lines[cur].cost && lines[i].save > lines[cur].save))
      cur = i;
  const i128 save0 = lines[cur].save;
  for (;;) {
    // The next role is the larger-save line crossing the current one first
    // (at equal crossings, the one saving more).
    int next = -1;
    i128 num = 0, den = 1;
    for (int i = 0; i < n; ++i) {
      if (lines[i].save <= lines[cur].save) continue;
      const i128 in = lines[i].cost - lines[cur].cost;
      const i128 id = lines[i].save - lines[cur].save;
      if (next < 0 || in * den < num * id ||
          (in * den == num * id && lines[i].save > lines[next].save)) {
        next = i;
        num = in;
        den = id;
      }
    }
    if (next < 0) return save0;
    out.push_back({num, den});
    cur = next;
  }
}

/// lambda* = num / den maximising the concave dual, or `sterile` when its
/// slope stays positive for every lambda: the groups cannot shed the excess.
struct Multiplier {
  bool sterile = false;
  i128 num = 0, den = 1;
};

Multiplier optimal_multiplier(i128 excess, std::span<const Roles> roles) {
  std::vector<Breakpoint> kinks;
  kinks.reserve(2 * roles.size());
  i128 slope = excess;  // the dual's slope just right of lambda = 0
  for (const Roles& r : roles) slope -= role_breakpoints(r, kinks);
  if (slope <= 0) return {};
  std::sort(kinks.begin(), kinks.end(),
            [](const Breakpoint& x, const Breakpoint& y) {
              return x.num * y.den < y.num * x.den;
            });
  for (const Breakpoint& kink : kinks) {
    slope -= kink.den;
    if (slope <= 0) return {false, kink.num, kink.den};
  }
  return {true};
}

/// ttotal + floor(scaled / den): the fit-forcing bound from the dual's
/// value scaled by den, rounded down and clamped below the sterile marker.
std::uint64_t fit_forcing_value(std::uint64_t ttotal, i128 scaled, i128 den) {
  i128 q = scaled / den;
  if (scaled % den != 0 && scaled < 0) --q;
  const i128 v = i128{ttotal} + q;
  if (v <= 0) return 0;
  const i128 top = kNoFittingCompletion - 1;
  return static_cast<std::uint64_t>(std::min(v, top));
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  const u128 p = static_cast<u128>(a) * b;
  return p > std::numeric_limits<std::uint64_t>::max()
             ? std::numeric_limits<std::uint64_t>::max()
             : static_cast<std::uint64_t>(p);
}

/// k_g = w_min * n_g * nu_g * max(f_g, phi_g), saturated (a smaller k is
/// still admissible).
std::uint64_t absorb_cost(std::uint64_t w_min, std::uint64_t n,
                          std::uint64_t nu, std::uint64_t frames,
                          std::uint64_t phi) {
  return saturating_mul(
      saturating_mul(saturating_mul(w_min, n), nu), std::max(frames, phi));
}

/// Per group slot: nu/phi (smallest occupancy count and frames among the
/// alive groups with an occupancy disjoint from the group's) and whether
/// any such group exists. O(G^2) disjointness tests.
void absorb_floors(const State& s, std::vector<std::uint64_t>& nu,
                   std::vector<std::uint64_t>& phi,
                   std::vector<bool>& absorbable) {
  const std::size_t n = s.groups.size();
  nu.assign(n, ~std::uint64_t{0});
  phi.assign(n, ~std::uint64_t{0});
  absorbable.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const Group& gi = s.groups[i];
    if (!gi.alive) continue;
    for (std::size_t j = i + 1; j < n; ++j) {
      const Group& gj = s.groups[j];
      if (!gj.alive || gi.occ.intersects(gj.occ)) continue;
      nu[i] = std::min(nu[i], gj.occ_count);
      phi[i] = std::min(phi[i], gj.frames);
      nu[j] = std::min(nu[j], gi.occ_count);
      phi[j] = std::min(phi[j], gi.frames);
      absorbable[i] = absorbable[j] = true;
    }
  }
}

/// The roles of every group slot of `s` under `proj` (dead slots keep only
/// the head role, which contributes nothing).
std::vector<Roles> roles_of(const State& s, const Projection& proj,
                            const std::vector<std::uint64_t>& nu,
                            const std::vector<std::uint64_t>& phi,
                            const std::vector<bool>& absorbable,
                            bool allow_static_promotion,
                            std::uint64_t min_pair_weight) {
  std::vector<Roles> roles(s.groups.size());
  for (std::size_t g = 0; g < s.groups.size(); ++g) {
    const Group& group = s.groups[g];
    if (!group.alive) continue;
    Roles& r = roles[g];
    r.t = project(proj, group.tiles.resources());
    r.a = project(proj, group.promote_area);
    r.c = group.contrib;
    r.absorbable = absorbable[g];
    if (r.absorbable)
      r.k = absorb_cost(min_pair_weight, group.occ_count, nu[g], group.frames,
                        phi[g]);
    r.promotable = allow_static_promotion;
  }
  return roles;
}

/// One projection of completion_lower_bound, exactly: the knapsack term,
/// then the fit-forcing term at the optimal multiplier.
struct ExactProjection {
  std::uint64_t bound = 0;
  KnapsackView view;
  std::vector<Roles> roles;
  i128 excess = 0;
  Multiplier multiplier;
};

ExactProjection exact_projection(const State& s, const Projection& proj,
                                 const ResourceVec& static_base,
                                 const ResourceVec& budget,
                                 bool allow_static_promotion,
                                 std::uint64_t min_pair_weight,
                                 const std::vector<std::uint64_t>& nu,
                                 const std::vector<std::uint64_t>& phi,
                                 const std::vector<bool>& absorbable) {
  ExactProjection out;
  KnapsackView& v = out.view;
  v.pbudget = project(proj, budget);
  v.pstatic = project(proj, static_base + s.static_extra);
  v.alive = s.alive;
  v.ttotal = s.ttotal;
  std::vector<PromoteItem> items;
  i128 footprints = 0;
  for (std::size_t g = 0; g < s.groups.size(); ++g) {
    const Group& group = s.groups[g];
    if (!group.alive) continue;
    const std::uint64_t price = project(proj, group.promote_area);
    const std::uint64_t foot = project(proj, group.tiles.resources());
    v.total_price += price;
    v.minfoot = std::min(v.minfoot, foot);
    footprints += foot;
    if (group.contrib > 0) items.push_back({group.contrib, price, g});
  }
  out.bound = knapsack_term(v, items, allow_static_promotion);
  out.roles = roles_of(s, proj, nu, phi, absorbable, allow_static_promotion,
                       min_pair_weight);
  out.excess = footprints + v.pstatic - i128{v.pbudget};
  out.multiplier = optimal_multiplier(out.excess, out.roles);
  if (out.bound == kNoFittingCompletion || out.multiplier.sterile) {
    out.bound = kNoFittingCompletion;
    return out;
  }
  i128 scaled = out.multiplier.num * out.excess;
  for (const Roles& r : out.roles)
    scaled += scaled_term(r, out.multiplier.num, out.multiplier.den);
  out.bound = std::max(
      out.bound, fit_forcing_value(s.ttotal, scaled, out.multiplier.den));
  return out;
}

}  // namespace

std::uint64_t completion_lower_bound(const State& s,
                                     const ResourceVec& static_base,
                                     const ResourceVec& budget,
                                     bool allow_static_promotion,
                                     std::uint64_t min_pair_weight) {
  std::vector<std::uint64_t> nu, phi;
  std::vector<bool> absorbable;
  absorb_floors(s, nu, phi, absorbable);
  std::uint64_t lb = 0;
  for (const Projection& proj : kProjections) {
    const std::uint64_t b =
        exact_projection(s, proj, static_base, budget, allow_static_promotion,
                         min_pair_weight, nu, phi, absorbable)
            .bound;
    if (b == kNoFittingCompletion) return kNoFittingCompletion;
    lb = std::max(lb, b);
  }
  return lb;
}

UnitBounds::UnitBounds(const State& root, const ResourceVec& static_base,
                       const ResourceVec& budget, bool allow_static_promotion,
                       std::uint64_t min_pair_weight)
    : root_(root),
      allow_static_promotion_(allow_static_promotion),
      min_pair_weight_(min_pair_weight) {
  require(root.ttotal == 0, "UnitBounds needs a root no group contributes to");
  absorb_floors(root, nu_, phi_, absorbable_);
  proj_.resize(kProjectionCount);
  for (std::size_t p = 0; p < kProjectionCount; ++p) {
    ExactProjection exact = exact_projection(
        root, kProjections[p], static_base, budget, allow_static_promotion,
        min_pair_weight, nu_, phi_, absorbable_);
    if (exact.bound == kNoFittingCompletion) {
      root_bound_ = kNoFittingCompletion;
      return;
    }
    root_bound_ = std::max(root_bound_, exact.bound);
    Projected& v = proj_[p];
    v.lambda_num = exact.multiplier.num;
    v.lambda_den = exact.multiplier.den;
    v.excess = exact.excess;
    v.pbudget = exact.view.pbudget;
    v.pstatic = exact.view.pstatic;
    v.total_price = exact.view.total_price;
    v.value.resize(exact.roles.size());
    v.save.resize(exact.roles.size());
    for (auto& entry : v.smallest) entry = {~std::uint64_t{0}, ~std::size_t{0}};
    for (std::size_t g = 0; g < exact.roles.size(); ++g) {
      const Roles& r = exact.roles[g];
      v.value[g] = scaled_term(r, v.lambda_num, v.lambda_den);
      v.save[g] = largest_save(r);
      v.value_sum += v.value[g];
      v.save_sum += v.save[g];
      if (!root.groups[g].alive) continue;
      std::pair<std::uint64_t, std::size_t> entry{r.t, g};
      for (auto& slot : v.smallest)
        if (entry < slot) std::swap(entry, slot);
    }
  }
}

std::uint64_t UnitBounds::after(const Move& first,
                                const GroupCost* merge_cost) const {
  if (root_bound_ == kNoFittingCompletion) return kNoFittingCompletion;
  const bool merge = first.kind == Move::Kind::Merge;
  const Group& ga = root_.groups[first.a];
  const std::size_t b = merge ? first.b : first.a;
  const Group& gb = root_.groups[b];
  // The merged group's projection-independent quantities, with the root's
  // nu/phi standing in for its own (see the class comment).
  std::uint64_t contrib = 0;
  std::uint64_t k = 0;
  bool absorbable = false;
  if (merge) {
    const GroupCost& cost = *merge_cost;
    contrib = (cost.tw_union - ga.tw_same - gb.tw_same) * cost.frames;
    absorbable = absorbable_[first.a] && absorbable_[b];
    if (absorbable)
      k = absorb_cost(min_pair_weight_, ga.occ_count + gb.occ_count,
                      std::max(nu_[first.a], nu_[b]), cost.frames,
                      std::max(phi_[first.a], phi_[b]));
  }
  // The root's groups contribute nothing, so the unit's total is the
  // merged group's contribution (0 after a promote).
  const std::uint64_t ttotal = contrib;
  std::uint64_t lb = 0;
  for (std::size_t p = 0; p < kProjectionCount; ++p) {
    const Projection& proj = kProjections[p];
    const Projected& v = proj_[p];
    KnapsackView view;
    view.pbudget = v.pbudget;
    view.pstatic = v.pstatic;
    view.total_price = v.total_price;  // merges keep the summed price
    view.alive = root_.alive - 1;
    view.ttotal = ttotal;
    for (const auto& [foot, g] : v.smallest)
      if (g != first.a && g != b) {
        view.minfoot = foot;
        break;
      }
    const std::uint64_t ta = project(proj, ga.tiles.resources());
    const std::uint64_t aa = project(proj, ga.promote_area);
    i128 excess = v.excess - ta;
    i128 value = v.value_sum - v.value[first.a];
    i128 save = v.save_sum - v.save[first.a];
    PromoteItem item;
    std::size_t item_count = 0;
    if (merge) {
      Roles m;
      m.t = project(proj, merge_cost->tiles.resources());
      m.a = aa + project(proj, gb.promote_area);
      m.c = contrib;
      m.k = k;
      m.absorbable = absorbable;
      m.promotable = allow_static_promotion_;
      excess += i128{m.t} - project(proj, gb.tiles.resources());
      value += scaled_term(m, v.lambda_num, v.lambda_den) - v.value[b];
      save += largest_save(m) - v.save[b];
      view.minfoot = std::min(view.minfoot, m.t);
      if (contrib > 0) {
        item = {contrib, m.a, first.a};
        item_count = 1;
      }
    } else {
      excess += aa;
      view.pstatic += aa;
      view.total_price -= aa;
    }
    if (excess > save) return kNoFittingCompletion;
    const std::uint64_t knapsack = knapsack_term(
        view, std::span<PromoteItem>(&item, item_count),
        allow_static_promotion_);
    if (knapsack == kNoFittingCompletion) return kNoFittingCompletion;
    const std::uint64_t forced = fit_forcing_value(
        ttotal, v.lambda_num * excess + value, v.lambda_den);
    lb = std::max({lb, knapsack, forced});
  }
  return lb;
}

}  // namespace prpart::search_internal
