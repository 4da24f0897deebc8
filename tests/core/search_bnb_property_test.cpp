// Property suite for the branch-and-bound search against the exhaustive
// baseline (SearchOptions::use_bounding = false reproduces the pre-bounding
// unit schedule exactly):
//
//  * with the evaluation budget not binding, pruning is invisible — schemes,
//    alternatives, and objective values are byte-identical, across synthetic
//    seeds, the paper example, the §V case study, and non-uniform transition
//    weights;
//  * when the budget binds, pruning may only help (it spends the budget on
//    non-dominated units): the bounded result is never worse;
//  * the move table is a pure wall-clock lever: the full deterministic
//    fingerprint (results and counters, including truncation points) is
//    identical with the table on and off;
//  * truncation points, recorded states and schemes under tiny to moderate
//    evaluation budgets are pinned to values recorded with the per-pair
//    budget counter that the one-subtraction scan charge replaced;
//  * cancellation unwinds with CancelledError in every mode — a cancelled
//    search can never be mistaken for a completed one.
#include "core/search.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/clustering.hpp"
#include "core/partitioner.hpp"
#include "core/result_io.hpp"
#include "design/synthetic.hpp"
#include "device/device.hpp"
#include "synth/ip_library.hpp"
#include "tests/core/example_designs.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace prpart {
namespace {

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

  SearchResult run(const ResourceVec& budget, SearchOptions opt) {
    return search_partitioning(design, matrix, partitions, compat, budget,
                               opt);
  }

  ResourceVec slack_budget() const {
    const ResourceVec lower =
        design.largest_configuration_area() + design.static_base();
    return {lower.clbs + lower.clbs / 3 + 200,
            lower.brams + lower.brams / 3 + 8,
            lower.dsps + lower.dsps / 3 + 8};
  }
};

/// The result bytes a run promises: the archived XML of the scheme and of
/// every ranked alternative, plus their objective values. Deliberately
/// excludes the stats (pruned units consume no evaluations, so counters
/// legitimately differ between the bounded and the exhaustive search).
std::string result_fingerprint(Harness& h, const ResourceVec& budget,
                               const SearchResult& r) {
  std::ostringstream out;
  out << "feasible=" << r.feasible << "\n";
  if (!r.feasible) return out.str();
  out << partitioning_to_xml(h.design, h.partitions, r.scheme, r.eval);
  for (const RankedScheme& alt : r.alternatives) {
    const SchemeEvaluation e =
        evaluate_scheme(h.design, h.matrix, h.partitions, alt.scheme, budget);
    out << "alternative=" << alt.total_frames << "\n"
        << partitioning_to_xml(h.design, h.partitions, alt.scheme, e);
  }
  return out.str();
}

/// Bounded vs exhaustive on one configuration. Byte-identical when the
/// evaluation budget did not bind; never worse when it did. Returns whether
/// the budget bound either search.
bool expect_bounding_invisible(Harness& h, const ResourceVec& budget,
                               SearchOptions opt) {
  opt.use_bounding = false;
  const SearchResult exhaustive = h.run(budget, opt);
  opt.use_bounding = true;
  const SearchResult bounded = h.run(budget, opt);
  EXPECT_EQ(bounded.stats.units, exhaustive.stats.units);
  if (!exhaustive.stats.budget_exhausted &&
      !bounded.stats.budget_exhausted) {
    EXPECT_EQ(result_fingerprint(h, budget, bounded),
              result_fingerprint(h, budget, exhaustive));
    return false;
  }
  // Budget bound: pruning redirects evaluations to non-dominated units, so
  // the bounded search explores a superset of the useful space.
  EXPECT_GE(bounded.feasible, exhaustive.feasible);
  if (bounded.feasible && exhaustive.feasible) {
    EXPECT_LE(bounded.alternatives.front().total_frames,
              exhaustive.alternatives.front().total_frames);
  }
  return true;
}

PairWeights random_weights(std::size_t n, Rng& rng) {
  PairWeights w(n, std::vector<std::uint32_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      w[i][j] = w[j][i] = static_cast<std::uint32_t>(1 + rng.uniform(0, 6));
  return w;
}

TEST(SearchBnbProperty, PaperExampleMatchesExhaustive) {
  Harness h(paper_example());
  SearchOptions opt;
  opt.keep_alternatives = 6;
  expect_bounding_invisible(h, {900, 8, 16}, opt);
  expect_bounding_invisible(h, h.slack_budget(), opt);
  opt.allow_static_promotion = false;
  expect_bounding_invisible(h, h.slack_budget(), opt);
}

TEST(SearchBnbProperty, CaseStudyMatchesExhaustive) {
  Harness h(synth::wireless_receiver_design());
  SearchOptions opt;
  opt.max_candidate_sets = 64;
  opt.max_move_evaluations = 2'000'000;
  expect_bounding_invisible(h, {6800, 64, 150}, opt);
}

class SearchBnbSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SearchBnbSeeds, SyntheticDesignsMatchExhaustive) {
  Rng rng(GetParam());
  const auto cls = static_cast<CircuitClass>(GetParam() % 4);
  Harness h(generate_synthetic(rng, cls).design);
  SearchOptions opt;
  opt.max_move_evaluations = 400'000;  // keep the suite fast
  expect_bounding_invisible(h, h.slack_budget(), opt);

  // The same property under non-uniform transition weights, where the bound
  // runs on the weighted accumulators.
  Rng wrng(500 + GetParam());
  const PairWeights w = random_weights(h.matrix.configs(), wrng);
  opt.pair_weights = &w;
  expect_bounding_invisible(h, h.slack_budget(), opt);

  // And under a deliberately binding evaluation budget (the not-worse leg).
  opt.pair_weights = nullptr;
  opt.max_move_evaluations = 2'000;
  expect_bounding_invisible(h, h.slack_budget(), opt);
}

INSTANTIATE_TEST_SUITE_P(SyntheticSeeds, SearchBnbSeeds,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(SearchBnbProperty, ServeScaleSearchesMatchExhaustive) {
  // The serve defaults (48 candidate sets, 2M evaluations) on the device
  // the walk picks from the extended library, where the fit-forcing bound
  // prunes most: 16 synthetic designs, four of each class.
  const DeviceLibrary library = DeviceLibrary::extended();
  PartitionerOptions walk;
  walk.search.max_candidate_sets = 48;
  walk.search.max_move_evaluations = 2'000'000;
  for (SyntheticDesign& sd : generate_synthetic_suite(1013, 16)) {
    const DevicePartitionResult chosen =
        partition_on_smallest_device(sd.design, library, walk);
    const ResourceVec budget = chosen.device->capacity();
    Harness h(std::move(sd.design));
    SearchOptions opt = walk.search;
    opt.threads = 2;
    expect_bounding_invisible(h, budget, opt);
  }

  // One budget-binding run at the same scale: pruning may only help.
  Rng rng(1013);
  Harness h(generate_synthetic(rng, CircuitClass::DspAndMemory).design);
  const ResourceVec budget =
      partition_on_smallest_device(h.design, library, walk)
          .device->capacity();
  SearchOptions opt = walk.search;
  opt.max_move_evaluations = 20'000;
  EXPECT_TRUE(expect_bounding_invisible(h, budget, opt))
      << "the evaluation budget did not bind";
}

TEST(SearchBnbProperty, PruningActuallyFires) {
  // The bound must earn its keep somewhere: across the paper example and
  // the synthetic seeds, at least one run prunes units. (Aggregated so the
  // test does not pin which design prunes — that may shift as the bound
  // tightens.)
  std::size_t pruned = 0;
  {
    Harness h(paper_example());
    pruned += h.run({900, 8, 16}, SearchOptions{}).stats.units_pruned;
  }
  for (std::uint64_t seed = 0; seed < 10 && pruned == 0; ++seed) {
    Rng rng(seed);
    Harness h(generate_synthetic(rng, static_cast<CircuitClass>(seed % 4))
                  .design);
    SearchOptions opt;
    opt.max_move_evaluations = 400'000;
    pruned += h.run(h.slack_budget(), opt).stats.units_pruned;
  }
  EXPECT_GT(pruned, 0u);
}

TEST(SearchBnbProperty, MoveTableIsPureWallClock) {
  // Full deterministic fingerprint — results AND counters, including the
  // budget truncation points — must be identical with the table on and off.
  Harness h(paper_example());
  for (std::uint64_t evals : {std::uint64_t{50}, std::uint64_t{1000},
                              std::uint64_t{1'000'000}}) {
    SearchOptions opt;
    opt.max_move_evaluations = evals;
    opt.threads = 1;
    opt.use_move_table = true;
    const SearchResult on = h.run({900, 8, 16}, opt);
    opt.use_move_table = false;
    const SearchResult off = h.run({900, 8, 16}, opt);
    EXPECT_EQ(result_fingerprint(h, {900, 8, 16}, on),
              result_fingerprint(h, {900, 8, 16}, off));
    EXPECT_EQ(on.stats.move_evaluations, off.stats.move_evaluations);
    EXPECT_EQ(on.stats.states_recorded, off.stats.states_recorded);
    EXPECT_EQ(on.stats.greedy_runs, off.stats.greedy_runs);
    EXPECT_EQ(on.stats.budget_exhausted, off.stats.budget_exhausted);
    EXPECT_EQ(on.stats.units_pruned, off.stats.units_pruned);
    // At threads=1 the scheduling-dependent split is exact too: every
    // compatible merge a scan scores is either rescored or fresh, and the
    // table only moves merges between the two buckets.
    EXPECT_EQ(off.stats.moves_rescored, 0u);
    EXPECT_EQ(on.stats.full_evaluations + on.stats.moves_rescored,
              off.stats.full_evaluations);
    // A scan the budget cuts scores nothing, so at 50 evaluations the
    // table never gets to serve a merge; at the larger budgets it does.
    if (evals >= 1000) {
      EXPECT_GT(on.stats.moves_rescored, 0u);
      EXPECT_LT(on.stats.full_evaluations, off.stats.full_evaluations);
    }
  }
}

/// FNV-1a, 64-bit: folds a fingerprint text into a pinnable number.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One design's pinned search results over every budget of the truncation
/// sweep: a fingerprint plus readable counter sums.
struct TruncationPin {
  const char* name;
  std::uint64_t seed;              ///< synthetic design seed (0: paper)
  std::uint64_t fingerprint;       ///< fnv1a over every budget's line
  std::uint64_t move_evaluations;  ///< summed over the budgets
  std::uint64_t states_recorded;   ///< summed over the budgets
  std::uint64_t exhausted;         ///< budgets that bound the search
};

TEST(SearchBnbProperty, TruncationPointsArePinned) {
  // Budgets 1..64 cut the search inside its first scans, the larger ones
  // cut later descents or none. The pins were recorded with the search that
  // charged the budget one move pair at a time (the per-pair counter that
  // the one-subtraction scan charge replaced), so the sweep proves the two
  // truncate, prune and record identically. Both move-table settings and
  // both thread counts must reproduce the same pins.
  std::vector<std::uint64_t> budgets;
  for (std::uint64_t b = 1; b <= 64; ++b) budgets.push_back(b);
  for (const std::uint64_t b : {std::uint64_t{100}, std::uint64_t{333},
                               std::uint64_t{1000}, std::uint64_t{4096}})
    budgets.push_back(b);

  const TruncationPin pins[] = {
      {"paper", 0, 0x79100b39a7629c96, 7609, 85, 68},
      {"logic", 101, 0x250d7659118a2b8a, 4123, 47, 66},
      {"memory", 102, 0x2b50f645731f9286, 7609, 8, 68},
      {"dsp", 403, 0x5d62259fc62a9890, 7609, 133, 68},
      {"dspmem", 504, 0x6fa24425fb0729b1, 3887, 329, 66},
  };
  for (std::size_t d = 0; d < std::size(pins); ++d) {
    std::optional<Harness> h;
    ResourceVec budget{900, 8, 16};
    if (d == 0) {
      h.emplace(paper_example());
    } else {
      Rng rng(pins[d].seed);
      h.emplace(generate_synthetic(rng, static_cast<CircuitClass>(d - 1))
                    .design);
      budget = h->slack_budget();
    }
    for (const unsigned threads : {1u, 4u}) {
      for (const bool table : {true, false}) {
        std::string text;
        std::uint64_t evals_sum = 0, states_sum = 0, exhausted = 0;
        for (const std::uint64_t evals : budgets) {
          SearchOptions opt;
          opt.max_move_evaluations = evals;
          opt.threads = threads;
          opt.use_move_table = table;
          const SearchResult r = h->run(budget, opt);
          text += "budget=" + std::to_string(evals) +
                  " evals=" + std::to_string(r.stats.move_evaluations) +
                  " states=" + std::to_string(r.stats.states_recorded) +
                  " runs=" + std::to_string(r.stats.greedy_runs) +
                  " pruned=" + std::to_string(r.stats.units_pruned) +
                  " exhausted=" + std::to_string(r.stats.budget_exhausted) +
                  "\n" + result_fingerprint(*h, budget, r);
          evals_sum += r.stats.move_evaluations;
          states_sum += r.stats.states_recorded;
          exhausted += r.stats.budget_exhausted ? 1 : 0;
        }
        const std::uint64_t fingerprint = fnv1a(text);
        const std::string where = std::string(pins[d].name) +
                                  " threads=" + std::to_string(threads) +
                                  " table=" + std::to_string(table);
        EXPECT_EQ(evals_sum, pins[d].move_evaluations) << where;
        EXPECT_EQ(states_sum, pins[d].states_recorded) << where;
        EXPECT_EQ(exhausted, pins[d].exhausted) << where;
        EXPECT_EQ(fingerprint, pins[d].fingerprint)
            << where << " fingerprint 0x" << std::hex << fingerprint;
      }
    }
  }
}

TEST(SearchBnbProperty, CancellationThrowsInEveryMode) {
  Harness h(synth::wireless_receiver_design());
  for (const bool bounding : {true, false}) {
    CancelToken token;
    token.cancel();  // already fired: the very first poll must throw
    SearchOptions opt;
    opt.use_bounding = bounding;
    opt.cancel = &token;
    EXPECT_THROW(h.run({6800, 64, 150}, opt), CancelledError);
  }
  for (const bool bounding : {true, false}) {
    // Mid-search: a deadline far shorter than the case-study search's run
    // time fires between greedy scans (polled before each one).
    CancelToken token;
    SearchOptions opt;
    opt.use_bounding = bounding;
    opt.max_candidate_sets = 64;
    opt.max_move_evaluations = 100'000'000;
    opt.cancel = &token;
    token.set_timeout_ms(1);
    EXPECT_THROW(h.run({6800, 64, 150}, opt), CancelledError);
  }
}

}  // namespace
}  // namespace prpart
