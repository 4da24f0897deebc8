// Determinism contract of the parallel region-allocation search: any
// SearchOptions::threads value must return byte-identical schemes (checked
// through the result_io serialisation, the same bytes a tool run archives)
// and identical deterministic-core stats as the threads=1 reference — across
// synthetic seeds, thread counts, evaluation-budget truncation points, and
// the §V case studies (Tables III and V).
#include "core/search.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/clustering.hpp"
#include "core/result_io.hpp"
#include "design/synthetic.hpp"
#include "synth/ip_library.hpp"
#include "tests/core/example_designs.hpp"

namespace prpart {
namespace {

using testing::paper_example;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

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
};

/// Everything a run promises to keep thread-count-invariant, rendered into
/// one string: the archived XML of the proposed scheme, every ranked
/// alternative (objective + XML), and the deterministic core of the stats.
/// Byte equality of two fingerprints is byte equality of the tool output.
std::string fingerprint(Harness& h, const ResourceVec& budget,
                        const SearchResult& r) {
  std::ostringstream out;
  out << "feasible=" << r.feasible << "\n";
  out << "move_evaluations=" << r.stats.move_evaluations << "\n";
  out << "candidate_sets=" << r.stats.candidate_sets << "\n";
  out << "greedy_runs=" << r.stats.greedy_runs << "\n";
  out << "states_recorded=" << r.stats.states_recorded << "\n";
  out << "budget_exhausted=" << r.stats.budget_exhausted << "\n";
  out << "units=" << r.stats.units << "\n";
  out << "units_pruned=" << r.stats.units_pruned << "\n";
  out << "bound_gap_sum=" << r.stats.bound_gap_sum << "\n";
  out << "bound_lb_sum=" << r.stats.bound_lb_sum << "\n";
  out << "bound_best_sum=" << r.stats.bound_best_sum << "\n";
  out << "kernel_evaluations=" << r.stats.kernel_evaluations << "\n";
  out << "signature_collapsed_configs="
      << r.stats.signature_collapsed_configs << "\n";
  if (!r.feasible) return out.str();
  out << partitioning_to_xml(h.design, h.partitions, r.scheme, r.eval);
  for (const RankedScheme& alt : r.alternatives) {
    const SchemeEvaluation e = evaluate_scheme(h.design, h.matrix,
                                               h.partitions, alt.scheme,
                                               budget);
    out << "alternative=" << alt.total_frames << "\n"
        << partitioning_to_xml(h.design, h.partitions, alt.scheme, e);
  }
  return out.str();
}

void expect_thread_count_invariant(Harness& h, const ResourceVec& budget,
                                   SearchOptions opt) {
  opt.threads = 1;
  const SearchResult reference = h.run(budget, opt);
  const std::string expected = fingerprint(h, budget, reference);
  for (unsigned threads : kThreadCounts) {
    opt.threads = threads;
    const SearchResult r = h.run(budget, opt);
    EXPECT_EQ(fingerprint(h, budget, r), expected)
        << "threads=" << threads << " diverged from threads=1";
  }
}

TEST(SearchParallel, PaperExampleIsByteIdenticalAcrossThreadCounts) {
  Harness h(paper_example());
  SearchOptions opt;
  opt.keep_alternatives = 6;
  expect_thread_count_invariant(h, {900, 8, 16}, opt);
}

TEST(SearchParallel, UnconstrainedBudgetIsByteIdenticalAcrossThreadCounts) {
  Harness h(paper_example());
  expect_thread_count_invariant(h, {100000, 1000, 1000}, SearchOptions{});
}

TEST(SearchParallel, TruncationPointsAreByteIdenticalAcrossThreadCounts) {
  // Evaluation budgets chosen to truncate the search mid-unit, at a unit
  // boundary, and barely at all: the deterministic merge must reconcile the
  // speculative per-unit budgets to the same sequential cut every time.
  Harness h(paper_example());
  for (std::uint64_t evals : {std::uint64_t{50}, std::uint64_t{200},
                              std::uint64_t{1000}, std::uint64_t{5000}}) {
    SearchOptions opt;
    opt.max_move_evaluations = evals;
    expect_thread_count_invariant(h, {900, 8, 16}, opt);
  }
}

TEST(SearchParallel, SkewedWeightsAreByteIdenticalAcrossThreadCounts) {
  // A weighted search (the transition-probability generalisation of
  // Eq. 10): one dominant configuration pair plus a spread of distinct
  // weights, so the weighted objective orders schemes differently from the
  // uniform one and pair_weight_between sees every weight.
  Harness h(paper_example());
  const std::size_t n = h.matrix.configs();
  PairWeights skewed(n, std::vector<std::uint32_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      skewed[i][j] = skewed[j][i] =
          static_cast<std::uint32_t>(1 + (i * 7 + j * 3) % 11);
  skewed[0][4] = skewed[4][0] = 10000;  // Conf1 <-> Conf5 dominates
  SearchOptions opt;
  opt.pair_weights = &skewed;
  opt.keep_alternatives = 6;
  expect_thread_count_invariant(h, {900, 8, 16}, opt);
  // And mid-unit truncation under the weighted objective.
  opt.max_move_evaluations = 200;
  expect_thread_count_invariant(h, {900, 8, 16}, opt);
}

TEST(SearchParallel, TableIIICaseStudyIsByteIdenticalAcrossThreadCounts) {
  // §V case study (Table III solution shape): the relaxed Table IV budget
  // with the deeper case-study search effort.
  Harness h(synth::wireless_receiver_design());
  SearchOptions opt;
  opt.max_candidate_sets = 64;
  opt.max_move_evaluations = 1'000'000;
  expect_thread_count_invariant(h, {6800, 64, 150}, opt);
}

TEST(SearchParallel, TableVCaseStudyIsByteIdenticalAcrossThreadCounts) {
  // §V modified receiver (Table V): same contract on the second case study.
  Harness h(synth::wireless_receiver_modified_design());
  SearchOptions opt;
  opt.max_candidate_sets = 64;
  opt.max_move_evaluations = 1'000'000;
  expect_thread_count_invariant(h, {6800, 64, 150}, opt);
}

class SearchParallelSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SearchParallelSeeds, SyntheticDesignsAreByteIdentical) {
  Rng rng(GetParam());
  const auto cls = static_cast<CircuitClass>(GetParam() % 4);
  Harness h(generate_synthetic(rng, cls).design);
  const ResourceVec lower =
      h.design.largest_configuration_area() + h.design.static_base();
  const ResourceVec budget{lower.clbs + lower.clbs / 3 + 200,
                           lower.brams + lower.brams / 3 + 8,
                           lower.dsps + lower.dsps / 3 + 8};
  SearchOptions opt;
  opt.max_move_evaluations = 300'000;  // keep the suite fast
  expect_thread_count_invariant(h, budget, opt);
}

INSTANTIATE_TEST_SUITE_P(SyntheticSeeds, SearchParallelSeeds,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(SearchParallel, AutoThreadsMatchesExplicitOne) {
  // threads=0 resolves to default_thread_count(); whatever it resolves to,
  // the result must match the inline reference.
  Harness h(paper_example());
  SearchOptions opt;  // threads = 0 (auto)
  const SearchResult auto_r = h.run({900, 8, 16}, opt);
  opt.threads = 1;
  const SearchResult one_r = h.run({900, 8, 16}, opt);
  EXPECT_EQ(fingerprint(h, {900, 8, 16}, auto_r),
            fingerprint(h, {900, 8, 16}, one_r));
}

TEST(SearchParallel, UnitCountIsReportedAndStable) {
  Harness h(paper_example());
  SearchOptions opt;
  opt.threads = 4;
  const SearchResult r = h.run({900, 8, 16}, opt);
  EXPECT_GT(r.stats.units, 0u);
  // Work units = candidate sets x (1 + restarts): strictly more units than
  // candidate sets whenever any restart exists.
  EXPECT_GE(r.stats.units, r.stats.candidate_sets);
}

}  // namespace
}  // namespace prpart
