// Ablation: floorplanning strategies on the partitioner's output. Greedy
// first-fit (fast), greedy best-fit (less waste), and joint simulated
// annealing (related work [7]'s approach) are compared on success rate,
// wasted frames, and runtime, across synthetic designs placed on their
// smallest workable device (the tightest realistic instances).
#include <chrono>
#include <iostream>

#include "core/partitioner.hpp"
#include "design/synthetic.hpp"
#include "floorplan/annealing.hpp"
#include "floorplan/floorplanner.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace prpart;

  const std::size_t designs = 80;
  std::cout << "=== Ablation: floorplanning strategies ===\n";
  std::cout << designs << " synthetic designs, each partitioned on its "
               "smallest workable device\n\n";

  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const auto suite = generate_synthetic_suite(246, designs);
  PartitionerOptions opt;
  opt.search.max_move_evaluations = 400'000;

  struct Tally {
    std::size_t placed = 0;
    std::uint64_t waste = 0;
    double seconds = 0.0;
  };
  Tally first, best, anneal;
  std::size_t instances = 0;

  for (const SyntheticDesign& s : suite) {
    const DevicePartitionResult dp =
        partition_on_smallest_device(s.design, lib, opt);
    if (!dp.result.feasible) continue;
    ++instances;
    std::vector<TileCount> need;
    for (const RegionReport& r : dp.result.proposed.eval.regions)
      need.push_back(r.tiles);

    auto run = [&](Tally& tally, auto&& place) {
      const auto t0 = std::chrono::steady_clock::now();
      const FloorplanResult r = place();
      tally.seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (r.success) {
        ++tally.placed;
        tally.waste +=
            floorplan_stats(*dp.device, need, r.placements).waste_frames;
      }
    };
    run(first, [&] { return Floorplanner(*dp.device).place(need); });
    run(best, [&] {
      return Floorplanner(*dp.device, {PlacementStrategy::BestFit})
          .place(need);
    });
    run(anneal, [&] { return anneal_place(*dp.device, need); });
  }

  TextTable t({"Strategy", "Placed", "Mean waste (frames)", "Total time"});
  auto row = [&](const char* name, const Tally& tally) {
    const double n = tally.placed ? static_cast<double>(tally.placed) : 1.0;
    t.add_row({name,
               std::to_string(tally.placed) + "/" + std::to_string(instances),
               fixed(static_cast<double>(tally.waste) / n, 0),
               fixed(tally.seconds, 2) + " s"});
  };
  row("greedy first-fit", first);
  row("greedy best-fit", best);
  row("simulated annealing [7]", anneal);
  std::cout << t.render();
  std::cout << "\nReading: on resource-tight devices the joint optimiser "
               "places instances the greedy strategies wedge on; best-fit "
               "trims waste per region but fragments rows and succeeds less "
               "often. The placement ladder therefore runs its deterministic "
               "skyline and greedy rungs first and escalates to annealing "
               "only when they wedge.\n";
  return 0;
}
