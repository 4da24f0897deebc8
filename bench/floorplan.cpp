// Partition–floorplan co-optimization bench (DESIGN.md §6): partitions a
// synthetic design suite on the smallest suitable library device, then runs
// the placement-true veto/re-rank pass over each search's enumerated top-K
// schemes and gates the subsystem's two contracts in CI:
//
//   placement_dominates_agreement — every legal floorplan's frame total must
//     be >= its Eq. 10 estimate (frames are rounded up to whole placed
//     tiles, never down); hard floor 1.0 in tools/check_bench.py.
//   thread_identity_agreement — the full re-ranking (order, totals and every
//     placed rectangle) must be byte-identical whether the search ran with
//     1, 4 or 16 threads; hard floor 1.0.
//   ladder_identity_agreement — every candidate's floorplan_scheme output
//     (stage, rectangles, verdict, diagnostics, fix-it) must equal the
//     reference ladder's in oracle/ (the column-by-column rungs the
//     prefix-sum geometry replaced); hard floor 1.0. ladder_speedup, the
//     reference's wall time over production's on the same candidates, is
//     informational.
//
// The remaining counters (veto rate, overturns, placement inflation) are
// deterministic functions of the fixed seed and are regression-gated
// against the committed BENCH_floorplan.json.
//
//   PRPART_FP_DESIGNS=40 ./bench_floorplan
//
// The design count is a fixed knob (not PRPART_DESIGNS): the committed
// baseline's counters only line up when CI runs the same scale.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "design/synthetic.hpp"
#include "floorplan/rerank.hpp"
#include "oracle/floorplan_reference.hpp"
#include "util/json.hpp"

namespace prpart::bench {
namespace {

std::size_t env_count(const char* name, std::size_t fallback) {
  if (const char* value = std::getenv(name))
    return static_cast<std::size_t>(std::max(1, std::atoi(value)));
  return fallback;
}

/// One partitioned design pinned to the device the selection walk chose.
struct FpCase {
  Design design;
  const Device* device = nullptr;
  PartitionerResult result;
};

bool same_rerank(const FloorplanRerank& a, const FloorplanRerank& b) {
  if (a.any_feasible != b.any_feasible || a.overturned != b.overturned ||
      a.winner_source != b.winner_source || a.vetoed_count != b.vetoed_count ||
      a.ranked.size() != b.ranked.size())
    return false;
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    const FloorplanCandidate& x = a.ranked[i];
    const FloorplanCandidate& y = b.ranked[i];
    if (x.source_index != y.source_index || x.vetoed != y.vetoed ||
        x.estimated_total != y.estimated_total ||
        x.placement_total != y.placement_total ||
        x.placement_worst != y.placement_worst ||
        x.plan.stage != y.plan.stage ||
        x.plan.placements.size() != y.plan.placements.size())
      return false;
    for (std::size_t r = 0; r < x.plan.placements.size(); ++r) {
      const RegionPlacement& p = x.plan.placements[r];
      const RegionPlacement& q = y.plan.placements[r];
      if (p.row != q.row || p.height != q.height || p.col != q.col ||
          p.width != q.width)
        return false;
    }
  }
  return true;
}

int main_impl() {
  const std::size_t count = env_count("PRPART_FP_DESIGNS", 40);

  PartitionerOptions options;
  options.search.max_move_evaluations = 60'000;
  options.search.keep_alternatives = 4;
  options.search.threads = 1;
  const DeviceLibrary library = DeviceLibrary::extended();
  const auto suite = generate_synthetic_suite(2013, count);

  // Device selection keeps each instance tight: the smallest device that can
  // implement the design at all is exactly where fragmentation vetoes and
  // estimate/placement divergence show up.
  std::vector<FpCase> cases;
  for (const SyntheticDesign& sd : suite) {
    try {
      DevicePartitionResult dp =
          partition_on_smallest_device(sd.design, library, options);
      if (!dp.result.feasible) continue;
      cases.push_back(FpCase{sd.design, dp.device, std::move(dp.result)});
    } catch (const DeviceError&) {
      continue;  // fits no library device at all
    }
  }
  std::printf("partition–floorplan co-optimization bench: %zu designs "
              "(%zu feasible on their smallest device)\n\n",
              suite.size(), cases.size());

  // Leg 1 — the veto/re-rank pass plus the dominance property: every legal
  // placement's frame total must cover its Eq. 10 estimate.
  std::uint64_t candidates = 0, vetoed = 0, overturns = 0, all_vetoed = 0;
  std::uint64_t estimate_frames = 0, placed_frames = 0;
  std::uint64_t dominance_checked = 0, dominance_held = 0;
  std::vector<FloorplanRerank> reranks;
  reranks.reserve(cases.size());
  auto started = std::chrono::steady_clock::now();
  for (const FpCase& c : cases) {
    reranks.push_back(floorplan_rerank(c.design, c.result, *c.device,
                                       c.device->capacity(), {}, &library));
    const FloorplanRerank& rerank = reranks.back();
    candidates += rerank.ranked.size();
    vetoed += rerank.vetoed_count;
    if (rerank.overturned) ++overturns;
    if (!rerank.any_feasible) ++all_vetoed;
    for (const FloorplanCandidate& cand : rerank.ranked) {
      if (cand.vetoed) continue;
      ++dominance_checked;
      if (cand.placement_total >= cand.estimated_total) ++dominance_held;
      estimate_frames += cand.estimated_total;
      placed_frames += cand.placement_total;
    }
  }
  const double rerank_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  const double dominance =
      dominance_checked == 0 ? 0.0
                             : static_cast<double>(dominance_held) /
                                   static_cast<double>(dominance_checked);
  const double inflation =
      estimate_frames == 0 ? 0.0
                           : static_cast<double>(placed_frames) /
                                 static_cast<double>(estimate_frames);
  std::printf("re-rank leg:     %llu candidates (%llu vetoed, %llu designs "
              "overturned, %llu fully vetoed) in %.3f s\n",
              static_cast<unsigned long long>(candidates),
              static_cast<unsigned long long>(vetoed),
              static_cast<unsigned long long>(overturns),
              static_cast<unsigned long long>(all_vetoed), rerank_seconds);
  std::printf("dominance leg:   placement >= estimate on %llu/%llu legal "
              "floorplans (floor 1.0), frame inflation %.4fx\n",
              static_cast<unsigned long long>(dominance_held),
              static_cast<unsigned long long>(dominance_checked), inflation);
  if (dominance != 1.0) {
    std::printf("\nFAIL: a placed floorplan undercut its Eq. 10 estimate\n");
    return 1;
  }

  // Leg 2 — ladder identity against the reference oracle, timed on the
  // same candidates. floorplan_scheme reads only the regions' tiles and the
  // static resources, which the placement-true patch leaves alone.
  std::uint64_t ladder_checked = 0, ladder_held = 0;
  double production_seconds = 0.0, reference_seconds = 0.0;
  const auto timed = [](double& seconds, auto&& run) {
    const auto t0 = std::chrono::steady_clock::now();
    PlacedFloorplan plan = run();
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    return plan;
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Device& device = *cases[i].device;
    for (const FloorplanCandidate& cand : reranks[i].ranked) {
      const PlacedFloorplan production = timed(production_seconds, [&] {
        return floorplan_scheme(device, cand.eval, {}, &library);
      });
      const PlacedFloorplan reference = timed(reference_seconds, [&] {
        return oracle::floorplan_scheme_reference(device, cand.eval, {},
                                                  &library);
      });
      ++ladder_checked;
      const std::string got = oracle::describe(production);
      if (got == oracle::describe(reference) &&
          got == oracle::describe(cand.plan))
        ++ladder_held;
    }
  }
  const double ladder_identity =
      ladder_checked == 0 ? 0.0
                          : static_cast<double>(ladder_held) /
                                static_cast<double>(ladder_checked);
  const double ladder_speedup =
      production_seconds > 0.0 ? reference_seconds / production_seconds : 0.0;
  std::printf("ladder identity: production == reference ladder on %llu/%llu "
              "candidates (floor 1.0); reference %.3f s vs production "
              "%.3f s (%.1fx)\n",
              static_cast<unsigned long long>(ladder_held),
              static_cast<unsigned long long>(ladder_checked),
              reference_seconds, production_seconds, ladder_speedup);
  if (ladder_identity != 1.0) {
    std::printf("\nFAIL: the placement ladder diverged from its reference\n");
    return 1;
  }

  // Leg 3 — determinism: the entire re-ranking must be identical whether
  // the search that produced the candidate set ran with 1, 4 or 16 threads
  // (the same discipline the CLI/server JSON encoders rely on for cache
  // hits and cross-frontend byte identity).
  std::uint64_t identity_checked = 0, identity_held = 0;
  started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const FpCase& c = cases[i];
    bool identical = true;
    for (unsigned threads : {4u, 16u}) {
      PartitionerOptions opt = options;
      opt.search.threads = threads;
      const PartitionerResult result =
          partition_design(c.design, c.device->capacity(), opt);
      const FloorplanRerank rerank = floorplan_rerank(
          c.design, result, *c.device, c.device->capacity(), {}, &library);
      identical = identical && same_rerank(reranks[i], rerank);
    }
    ++identity_checked;
    if (identical) ++identity_held;
  }
  const double identity_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  const double identity =
      identity_checked == 0 ? 0.0
                            : static_cast<double>(identity_held) /
                                  static_cast<double>(identity_checked);
  std::printf("thread identity: re-ranking at threads {1, 4, 16} identical "
              "on %llu/%llu designs (floor 1.0) in %.3f s\n",
              static_cast<unsigned long long>(identity_held),
              static_cast<unsigned long long>(identity_checked),
              identity_seconds);
  if (identity != 1.0) {
    std::printf("\nFAIL: re-ranking diverged across search thread counts\n");
    return 1;
  }

  // Machine-readable summary for the CI regression gate. Wall-clock keys
  // are skipped by check_bench.py; everything else is a deterministic
  // function of the fixed seed and scale knob.
  {
    json::Value doc = json::Value::object();
    doc.set("designs", json::Value(static_cast<std::uint64_t>(suite.size())));
    doc.set("feasible", json::Value(static_cast<std::uint64_t>(cases.size())));
    doc.set("candidates", json::Value(candidates));
    doc.set("vetoed", json::Value(vetoed));
    doc.set("overturns", json::Value(overturns));
    doc.set("all_vetoed", json::Value(all_vetoed));
    doc.set("estimate_frames", json::Value(estimate_frames));
    doc.set("placed_frames", json::Value(placed_frames));
    doc.set("placement_inflation", json::Value(inflation));
    doc.set("rerank_wall_seconds", json::Value(rerank_seconds));
    // Floor-gated (== 1.0 in tools/check_bench.py).
    doc.set("placement_dominates_agreement", json::Value(dominance));
    doc.set("thread_identity_agreement", json::Value(identity));
    doc.set("ladder_identity_agreement", json::Value(ladder_identity));
    doc.set("ladder_speedup", json::Value(ladder_speedup));
    doc.set("identity_wall_seconds", json::Value(identity_seconds));
    std::ofstream bench_json("BENCH_floorplan.json");
    bench_json << doc.dump() << "\n";
    std::printf("wrote BENCH_floorplan.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace prpart::bench

int main() { return prpart::bench::main_impl(); }
