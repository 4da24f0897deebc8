// White-box contract of the branch-and-bound completion lower bound
// (search_internal::completion_lower_bound) and of its per-unit evaluation
// at the candidate set's root multipliers (search_internal::UnitBounds):
//
//  * admissibility — the bound never exceeds the (weighted) Eq. 10 total of
//    any *fitting* state reachable from the bounded state, checked against
//    randomised move playouts whose totals are themselves cross-checked
//    against the evaluate_scheme oracle, and against the exact optimum of
//    optimal_partitioning;
//  * monotonicity — applying any move never lowers the bound, so a pruned
//    subtree stays pruned (the soundness keystone of the search's pruning);
//  * the root-multiplier evaluation of a unit start never exceeds the exact
//    bound of that state and never undercuts the root's exact bound;
//  * the undo algebra — apply_move/undo_move restore the search state
//    exactly, which the incremental evaluation relies on.
#include "core/search_internal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/clustering.hpp"
#include "core/covering.hpp"
#include "core/optimal.hpp"
#include "core/scheme.hpp"
#include "design/synthetic.hpp"
#include "tests/core/example_designs.hpp"
#include "util/rng.hpp"

namespace prpart {
namespace {

namespace si = search_internal;
using testing::paper_example;

struct Harness {
  Design design;
  ConnectivityMatrix matrix;
  std::vector<BasePartition> partitions;
  CompatibilityTable compat;

  explicit Harness(Design d)
      : design(std::move(d)),
        matrix(design),
        partitions(enumerate_base_partitions(design, matrix)),
        compat(matrix, partitions) {}

  /// The first (complete) candidate partition set.
  std::vector<std::size_t> candidate() const {
    const std::vector<std::size_t> order = covering_order(partitions);
    const CoverResult cov = cover(partitions, matrix, order, 0);
    EXPECT_TRUE(cov.complete);
    return cov.selected;
  }

  /// Initial state of the first candidate partition set.
  si::State initial(const PairWeights* weights = nullptr) const {
    return si::initial_state(partitions, compat, weights, candidate());
  }

  std::uint64_t bound(const si::State& s, const ResourceVec& budget,
                      bool allow_promotion,
                      const PairWeights* weights = nullptr) const {
    return si::completion_lower_bound(s, design.static_base(), budget,
                                      allow_promotion,
                                      si::min_pair_weight(weights));
  }

  ResourceVec slack_budget() const {
    const ResourceVec lower =
        design.largest_configuration_area() + design.static_base();
    return {lower.clbs + lower.clbs / 3 + 200, lower.brams + lower.brams / 3 + 8,
            lower.dsps + lower.dsps / 3 + 8};
  }
};

/// Valid moves on `s`: moves_of() minus merges of overlapping occupancies
/// (the search rejects those at evaluation time; applying one would break
/// the disjoint-union invariant of the incremental state).
std::vector<si::Move> valid_moves(const si::State& s, bool allow_promotion) {
  std::vector<si::Move> out;
  for (const si::Move& m : si::moves_of(s, allow_promotion)) {
    if (m.kind == si::Move::Kind::Merge &&
        s.groups[m.a].occ.intersects(s.groups[m.b].occ))
      continue;
    out.push_back(m);
  }
  return out;
}

si::GroupCost move_cost(const si::State& s, const si::Move& m,
                    const PairWeights* weights) {
  si::GroupCost cost;
  if (m.kind == si::Move::Kind::Merge)
    cost = si::merged_group_cost(s.groups[m.a], s.groups[m.b], weights);
  return cost;
}

void apply_random_move(si::State& s, Rng& rng, bool allow_promotion,
                       const PairWeights* weights,
                       std::vector<si::UndoRecord>* undo_log = nullptr) {
  const std::vector<si::Move> moves = valid_moves(s, allow_promotion);
  ASSERT_FALSE(moves.empty());
  const si::Move m = moves[rng.below(moves.size())];
  si::GroupCost cost = move_cost(s, m, weights);
  si::UndoRecord undo = si::apply_move(s, m, &cost);
  if (undo_log) undo_log->push_back(std::move(undo));
}

PairWeights random_weights(std::size_t n, Rng& rng) {
  PairWeights w(n, std::vector<std::uint32_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      w[i][j] = w[j][i] = static_cast<std::uint32_t>(rng.uniform(0, 5));
  return w;
}

/// UnitBounds at the root of `h`'s first candidate set: the root's bound is
/// the exact one, and every unit start's root-multiplier bound lies between
/// the root's exact bound (monotonicity) and the start's own exact bound.
void check_unit_bounds(Harness& h, const ResourceVec& budget,
                       bool allow_promotion, const PairWeights* weights) {
  const si::State s = h.initial(weights);
  const si::UnitBounds units(s, h.design.static_base(), budget,
                             allow_promotion, si::min_pair_weight(weights));
  const std::uint64_t root = h.bound(s, budget, allow_promotion, weights);
  ASSERT_EQ(units.root(), root);
  for (const si::Move& m : valid_moves(s, allow_promotion)) {
    si::GroupCost cost = move_cost(s, m, weights);
    const std::uint64_t fixed = units.after(m, &cost);
    si::State start = s;
    si::apply_move(start, m, &cost);
    const std::uint64_t exact =
        h.bound(start, budget, allow_promotion, weights);
    EXPECT_LE(fixed, exact) << "root multipliers beat the exact bound";
    EXPECT_GE(fixed, root) << "unit bound fell below its root's";
  }
}

/// Walks one random move path to the end, checking at every step that
///  * the bound is monotone along the path,
///  * every prefix's bound admits every fitting suffix state,
///  * the first move's root-multiplier bound admits every fitting suffix
///    state and stays at or below the exact bound of the state it bounds,
///  * the incremental ttotal matches the evaluate_scheme oracle.
void check_playout(Harness& h, const ResourceVec& budget, Rng& rng,
                   bool allow_promotion, const PairWeights* weights,
                   std::size_t* fitting_states = nullptr) {
  si::State s = h.initial(weights);
  std::vector<std::uint64_t> bounds;    // lb of every prefix state
  std::vector<std::uint64_t> fitting;   // ttotal of every fitting state
  std::optional<std::uint64_t> unit_lb;  // root-multiplier bound, 1st move
  const auto visit = [&](const si::State& state) {
    const std::uint64_t lb = h.bound(state, budget, allow_promotion, weights);
    if (!bounds.empty()) {
      EXPECT_GE(lb, bounds.back()) << "bound decreased along a move path";
    }
    if (unit_lb && bounds.size() == 1) {
      EXPECT_LE(*unit_lb, lb) << "root multipliers beat the exact bound";
    }
    // Admissibility of every earlier prefix against this state, and of this
    // state against itself (a state is its own completion).
    const bool fits = state.total_res(h.design.static_base()).fits_in(budget);
    if (fits) {
      for (std::uint64_t earlier : bounds)
        EXPECT_LE(earlier, state.ttotal) << "bound exceeded a completion";
      if (unit_lb) {
        EXPECT_LE(*unit_lb, state.ttotal)
            << "unit bound exceeded a completion";
      }
      EXPECT_NE(lb, si::kNoFittingCompletion)
          << "bound declared a fitting state unreachable";
      EXPECT_LE(lb, state.ttotal);
      fitting.push_back(state.ttotal);
    }
    bounds.push_back(lb);
    // Oracle: the incrementally maintained total is the (weighted) Eq. 10
    // value of the canonical scheme.
    const PartitionScheme scheme = si::canonical_scheme(state);
    const SchemeEvaluation eval =
        evaluate_scheme(h.design, h.matrix, h.partitions, scheme, budget);
    ASSERT_TRUE(eval.valid) << eval.invalid_reason;
    EXPECT_EQ(eval.fits, fits);
    const std::uint64_t expected =
        weights ? weighted_total_frames(eval, *weights) : eval.total_frames;
    EXPECT_EQ(state.ttotal, expected);
  };
  visit(s);
  const std::vector<si::Move> firsts = valid_moves(s, allow_promotion);
  if (!firsts.empty()) {
    // The first move is bounded at the root's multipliers, as the search's
    // phase 1b bounds a unit, before it is applied.
    const si::UnitBounds units(s, h.design.static_base(), budget,
                               allow_promotion, si::min_pair_weight(weights));
    const si::Move m = firsts[rng.below(firsts.size())];
    si::GroupCost cost = move_cost(s, m, weights);
    unit_lb = units.after(m, &cost);
    si::apply_move(s, m, &cost);
    visit(s);
  }
  while (!valid_moves(s, allow_promotion).empty()) {
    apply_random_move(s, rng, allow_promotion, weights);
    visit(s);
  }
  if (fitting_states) *fitting_states += fitting.size();
}

// Tight budgets exercise the knapsack capacity, the fit-forcing term and
// the sterile detection; the unconstrained budget guarantees fitting states
// so the admissibility leg is never vacuous.
constexpr ResourceVec kUnconstrained{100000, 1000, 1000};

TEST(SearchBound, InitialStateBoundIsZero) {
  // A fitting initial state is its own completion at total 0.
  Harness h(paper_example());
  const si::State s = h.initial();
  EXPECT_EQ(s.ttotal, 0u);
  ASSERT_TRUE(s.total_res(h.design.static_base()).fits_in(kUnconstrained));
  EXPECT_EQ(h.bound(s, kUnconstrained, true), 0u);
}

TEST(SearchBound, PromotionDisabledBoundIsTheCurrentTotal) {
  // On fitting states without promotions, merges only add: the bound is
  // the current total, neither more nor less.
  Harness h(paper_example());
  Rng rng(7);
  si::State s = h.initial();
  for (int step = 0; step < 3 && !valid_moves(s, false).empty(); ++step) {
    apply_random_move(s, rng, /*allow_promotion=*/false, nullptr);
    ASSERT_TRUE(s.total_res(h.design.static_base()).fits_in(kUnconstrained));
    EXPECT_EQ(h.bound(s, kUnconstrained, false), s.ttotal);
  }
  EXPECT_GT(s.ttotal, 0u);  // the path above must have merged something
}

TEST(SearchBound, OverBudgetInitialStateIsChargedTheMergesItMustMake) {
  // The initial state has total 0 but does not fit: every fitting
  // completion has to absorb or promote, which the fit-forcing term
  // prices. The bound is positive yet never above the exact optimum.
  for (const bool allow_promotion : {true, false}) {
    Harness h(paper_example());
    const ResourceVec budget{900, 8, 16};
    const si::State s = h.initial();
    ASSERT_FALSE(s.total_res(h.design.static_base()).fits_in(budget));
    OptimalOptions opt;
    opt.allow_static_promotion = allow_promotion;
    const OptimalResult best = optimal_partitioning(
        h.design, h.matrix, h.partitions, h.compat, budget, h.candidate(),
        opt);
    ASSERT_TRUE(best.feasible);
    ASSERT_FALSE(best.exhausted);
    const std::uint64_t lb = h.bound(s, budget, allow_promotion);
    EXPECT_GT(lb, 0u);
    EXPECT_LE(lb, best.eval.total_frames);
  }
}

TEST(SearchBound, OversizedStaticProvesNoFittingCompletion) {
  Harness h(paper_example());
  si::State s = h.initial();
  // Promote one group under a budget far below its area: the static side
  // alone exceeds the budget, so no completion can ever fit.
  si::GroupCost unused;
  si::UndoRecord undo =
      si::apply_move(s, si::Move{si::Move::Kind::Promote, 0, 0}, &unused);
  const ResourceVec tiny{1, 0, 0};
  EXPECT_EQ(h.bound(s, tiny, true), si::kNoFittingCompletion);
  // And it stays absorbed after further moves (monotonicity's edge case).
  Rng rng(3);
  apply_random_move(s, rng, true, nullptr);
  EXPECT_EQ(h.bound(s, tiny, true), si::kNoFittingCompletion);
  (void)undo;
}

TEST(SearchBound, PaperExampleAdmissibleAndMonotone) {
  Harness h(paper_example());
  std::size_t fitting = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    check_playout(h, {900, 8, 16}, rng, true, nullptr, &fitting);
    check_playout(h, kUnconstrained, rng, true, nullptr, &fitting);
    check_playout(h, h.slack_budget(), rng, /*allow_promotion=*/false,
                  nullptr, &fitting);
  }
  EXPECT_GT(fitting, 0u) << "no playout visited a fitting state";
  check_unit_bounds(h, {900, 8, 16}, true, nullptr);
  check_unit_bounds(h, {900, 8, 16}, false, nullptr);
  check_unit_bounds(h, kUnconstrained, true, nullptr);
}

TEST(SearchBound, WeightedPlayoutsAdmissibleAndMonotone) {
  Harness h(paper_example());
  std::size_t fitting = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(100 + seed);
    const PairWeights w = random_weights(h.matrix.configs(), rng);
    check_playout(h, kUnconstrained, rng, true, &w, &fitting);
    check_playout(h, {900, 8, 16}, rng, true, &w, &fitting);
    check_unit_bounds(h, {900, 8, 16}, true, &w);
  }
  EXPECT_GT(fitting, 0u) << "no playout visited a fitting state";
}

TEST(SearchBound, AllZeroWeightsBoundIsZero) {
  // Every completion totals 0 under all-zero weights, so every state that
  // can still fit must be bounded by exactly 0.
  Harness h(paper_example());
  const std::size_t n = h.matrix.configs();
  const PairWeights zero(n, std::vector<std::uint32_t>(n, 0));
  ASSERT_EQ(si::min_pair_weight(&zero), 0u);
  std::size_t fitting = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(300 + seed);
    check_playout(h, {900, 8, 16}, rng, true, &zero, &fitting);
    check_playout(h, h.slack_budget(), rng, true, &zero, &fitting);
    si::State s = h.initial(&zero);
    EXPECT_EQ(h.bound(s, kUnconstrained, true, &zero), 0u);
    while (!valid_moves(s, true).empty()) {
      apply_random_move(s, rng, true, &zero);
      EXPECT_EQ(s.ttotal, 0u);
      EXPECT_EQ(h.bound(s, kUnconstrained, true, &zero), 0u);
    }
  }
  EXPECT_GT(fitting, 0u) << "no playout visited a fitting state";
  check_unit_bounds(h, {900, 8, 16}, true, &zero);
}

TEST(SearchBound, SyntheticPlayoutsAdmissibleAndMonotone) {
  std::size_t fitting = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    const auto cls = static_cast<CircuitClass>(seed % 4);
    Harness h(generate_synthetic(rng, cls).design);
    check_playout(h, h.slack_budget(), rng, true, nullptr, &fitting);
    check_playout(h, kUnconstrained, rng, true, nullptr, &fitting);
    Rng wrng(900 + seed);
    const PairWeights w = random_weights(h.matrix.configs(), wrng);
    check_playout(h, h.slack_budget(), wrng, true, &w, &fitting);
    check_unit_bounds(h, h.slack_budget(), true, nullptr);
    check_unit_bounds(h, h.slack_budget(), true, &w);
  }
  EXPECT_GT(fitting, 0u) << "no playout visited a fitting state";
}

TEST(SearchBound, UndoRestoresTheStateExactly) {
  Harness h(paper_example());
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    si::State s = h.initial();
    const si::State before = s;
    std::vector<si::UndoRecord> undos;
    const std::uint64_t steps = 1 + rng.below(6);
    for (std::uint64_t k = 0; k < steps; ++k) {
      if (valid_moves(s, true).empty()) break;
      apply_random_move(s, rng, true, nullptr, &undos);
    }
    ASSERT_FALSE(undos.empty());
    while (!undos.empty()) {
      si::undo_move(s, undos.back());
      undos.pop_back();
    }
    EXPECT_EQ(s.ttotal, before.ttotal);
    EXPECT_EQ(s.alive, before.alive);
    EXPECT_EQ(s.pr_res, before.pr_res);
    EXPECT_EQ(s.static_extra, before.static_extra);
    EXPECT_EQ(s.static_members, before.static_members);
    ASSERT_EQ(s.groups.size(), before.groups.size());
    for (std::size_t g = 0; g < s.groups.size(); ++g) {
      const si::Group& a = s.groups[g];
      const si::Group& b = before.groups[g];
      EXPECT_EQ(a.alive, b.alive);
      EXPECT_EQ(a.members, b.members);
      EXPECT_EQ(a.raw, b.raw);
      EXPECT_EQ(a.promote_area, b.promote_area);
      EXPECT_EQ(a.frames, b.frames);
      EXPECT_EQ(a.occ_count, b.occ_count);
      EXPECT_EQ(a.tw_union, b.tw_union);
      EXPECT_EQ(a.tw_same, b.tw_same);
      EXPECT_EQ(a.contrib, b.contrib);
    }
    EXPECT_EQ(si::scheme_key(si::canonical_scheme(s)),
              si::scheme_key(si::canonical_scheme(before)));
  }
}

/// The canonical scheme built region by region: every alive group's members
/// copied and sorted, the regions sorted, the static members sorted.
PartitionScheme reference_canonical_scheme(const si::State& s) {
  PartitionScheme scheme;
  for (const si::Group& g : s.groups)
    if (g.alive) {
      Region region{g.members};
      std::sort(region.members.begin(), region.members.end());
      scheme.regions.push_back(std::move(region));
    }
  std::sort(
      scheme.regions.begin(), scheme.regions.end(),
      [](const Region& a, const Region& b) { return a.members < b.members; });
  scheme.static_members = s.static_members;
  std::sort(scheme.static_members.begin(), scheme.static_members.end());
  return scheme;
}

TEST(SearchBound, StateKeyIsTheCanonicalSchemesKey) {
  // state_key reads the leaderboard key straight off the search state. On
  // every state of random move paths (merges and promotions, over the paper
  // example and one synthetic design per circuit class) it must equal the
  // key of the canonical scheme built region by region, and canonical_scheme
  // (the key's decode) must encode back to it.
  std::vector<Design> designs{paper_example()};
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    designs.push_back(
        generate_synthetic(rng, static_cast<CircuitClass>(seed)).design);
  }
  std::size_t states = 0;
  for (Design& design : designs) {
    Harness h(std::move(design));
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      Rng rng(seed);
      si::State s = h.initial();
      while (true) {
        const std::vector<std::uint64_t> key = si::state_key(s);
        EXPECT_EQ(key, si::scheme_key(reference_canonical_scheme(s)));
        EXPECT_EQ(key, si::scheme_key(si::canonical_scheme(s)));
        ++states;
        if (valid_moves(s, true).empty()) break;
        apply_random_move(s, rng, true, nullptr);
      }
    }
  }
  EXPECT_GT(states, 200u);
}

}  // namespace
}  // namespace prpart
