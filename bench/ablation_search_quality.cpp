// Ablation: quality of the paper's greedy-with-restarts heuristic against
// an exact branch-and-bound reference, on small synthetic designs where the
// exact search is tractable. Both are restricted to mode-level candidate
// sets for a like-for-like comparison; the full heuristic (multiple
// candidate sets) is shown as a third column. Restricted to the same set,
// the heuristic can never beat the exact optimum (nor fit where the exact
// search proves nothing fits): the bench exits 1 if it does, since that
// would mean the exact enumerator is unsound.
#include <chrono>
#include <iostream>
#include <string>

#include "core/clustering.hpp"
#include "core/optimal.hpp"
#include "core/schemes.hpp"
#include "core/search.hpp"
#include "design/synthetic.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace prpart;

  const std::size_t designs = 60;
  std::cout << "=== Ablation: heuristic search vs exact branch-and-bound ===\n";
  std::cout << designs << " small synthetic designs (<= 3 modules, <= 3 "
               "modes), budget = 2x the tile-rounded single-region footprint "
               "per resource\n\n";

  SyntheticOptions small;
  small.max_modules = 3;
  small.max_modes = 3;

  std::size_t compared = 0, heuristic_optimal = 0, full_beats_optimal = 0;
  std::size_t heuristic_beats_optimal = 0, nothing_fits = 0, exhausted = 0;
  std::uint64_t exact_states = 0;
  double worst_gap = 0.0, sum_gap = 0.0;
  double opt_seconds = 0.0, heur_seconds = 0.0;

  for (std::uint64_t seed = 0; seed < designs; ++seed) {
    Rng rng(4000 + seed);
    const Design design =
        generate_synthetic(rng, static_cast<CircuitClass>(seed % 4), small)
            .design;
    const ConnectivityMatrix matrix(design);
    const auto partitions = enumerate_base_partitions(design, matrix);
    const CompatibilityTable compat(matrix, partitions);
    // Twice the single-region scheme's own footprint: every design has a
    // fitting mode-level grouping under it (1.5x admits one on 51 of the
    // 60), so the comparison covers the whole suite.
    const ResourceVec footprint = single_region_footprint(design);
    const ResourceVec budget{2 * footprint.clbs, 2 * footprint.brams,
                             2 * footprint.dsps};

    auto t0 = std::chrono::steady_clock::now();
    const OptimalResult opt = optimal_mode_level_partitioning(
        design, matrix, partitions, compat, budget);
    auto t1 = std::chrono::steady_clock::now();
    SearchOptions one_set;
    one_set.max_candidate_sets = 1;
    const SearchResult heur = search_partitioning(design, matrix, partitions,
                                                  compat, budget, one_set);
    const SearchResult full =
        search_partitioning(design, matrix, partitions, compat, budget);
    auto t2 = std::chrono::steady_clock::now();
    opt_seconds += std::chrono::duration<double>(t1 - t0).count();
    heur_seconds += std::chrono::duration<double>(t2 - t1).count();
    exact_states += opt.states_explored;

    if (!opt.exhausted && heur.feasible &&
        (!opt.feasible || heur.eval.total_frames < opt.eval.total_frames)) {
      ++heuristic_beats_optimal;
      std::cerr << "design " << seed << ": one-set heuristic fits at "
                << heur.eval.total_frames << " frames; exact search: "
                << (opt.feasible
                        ? std::to_string(opt.eval.total_frames) + " frames"
                        : std::string("nothing fits"))
                << "\n";
    }
    if (opt.exhausted) ++exhausted;
    if (!opt.exhausted && !opt.feasible) ++nothing_fits;
    if (!opt.feasible || opt.exhausted || !heur.feasible) continue;
    ++compared;
    const auto o = static_cast<double>(opt.eval.total_frames);
    const auto h = static_cast<double>(heur.eval.total_frames);
    if (heur.eval.total_frames == opt.eval.total_frames) ++heuristic_optimal;
    if (o > 0) {
      const double gap = (h - o) / o * 100.0;
      sum_gap += gap;
      worst_gap = std::max(worst_gap, gap);
    }
    if (full.feasible && full.eval.total_frames < opt.eval.total_frames)
      ++full_beats_optimal;  // multi-mode partitions beat mode-level optimum
  }

  TextTable t({"Metric", "Value"});
  t.add_row({"designs compared", std::to_string(compared)});
  t.add_row({"nothing fits (exact search)", std::to_string(nothing_fits)});
  t.add_row({"exact search exhausted", std::to_string(exhausted)});
  t.add_row({"heuristic == mode-level optimum",
             std::to_string(heuristic_optimal)});
  t.add_row({"mean heuristic gap", fixed(sum_gap / static_cast<double>(compared ? compared : 1), 2) + "%"});
  t.add_row({"worst heuristic gap", fixed(worst_gap, 2) + "%"});
  t.add_row({"full heuristic beats mode-level optimum",
             std::to_string(full_beats_optimal)});
  t.add_row({"exact states explored", with_commas(exact_states)});
  t.add_row({"exact search time", fixed(opt_seconds, 2) + " s"});
  t.add_row({"heuristic time (both runs)", fixed(heur_seconds, 2) + " s"});
  std::cout << t.render();
  std::cout << "\nReading: the one-set heuristic matched the exact "
               "mode-level optimum on "
            << heuristic_optimal << "/" << compared
            << " comparable designs, and the full heuristic's deeper "
               "candidate sets beat that optimum on "
            << full_beats_optimal
            << ". At this size the fit-pruned exact search costs less than "
               "the heuristic; its cost grows exponentially with the number "
               "of partitions, the heuristic's does not.\n";
  if (heuristic_beats_optimal != 0) {
    std::cerr << heuristic_beats_optimal
              << " designs where the one-set heuristic beats the exact "
                 "optimum: the exact search is unsound\n";
    return 1;
  }
  return 0;
}
