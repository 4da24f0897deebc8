// Reproduces Figs. 7 and 8: total and worst-case reconfiguration time of
// the proposed scheme vs the one-module-per-region and single-region
// schemes over the synthetic design suite, sorted by target FPGA size.
// Also reports the §V text statistics (escalated designs, designs fitting a
// smaller FPGA than modular needs).
//
// Series data is written to fig7.csv / fig8.csv in the working directory;
// the console shows per-device aggregates (the figures' visual shape).
// After the timed sweep, an untimed pass re-runs every design through the
// production device walk and the reference walk in oracle/ and reports the
// fraction that agree field by field (walk_identity_agreement, floored at
// 1.0 by tools/check_bench.py).
#include <atomic>
#include <fstream>
#include <iostream>
#include <map>

#include "bench/sweep_common.hpp"
#include "oracle/partitioner_reference.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/parallel_for.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

/// Runs every design of the sweep through both walks with the sweep's
/// options and returns how many agree (walk_mismatch empty).
std::size_t walk_identity_agree(std::uint64_t seed, std::size_t count) {
  using namespace prpart;
  const DeviceLibrary lib = DeviceLibrary::virtex5();
  const auto suite = generate_synthetic_suite(seed, count);
  const PartitionerOptions opt = bench::sweep_options();
  std::atomic<std::size_t> agree{0};
  parallel_for(suite.size(), default_thread_count(), [&](std::size_t i) {
    const Design& design = suite[i].design;
    const std::string mismatch = oracle::walk_mismatch(
        design, partition_on_smallest_device(design, lib, opt),
        oracle::partition_on_smallest_device_reference(design, lib, opt));
    if (mismatch.empty())
      ++agree;
    else
      std::cerr << "walk identity: design " << i << " differs in " << mismatch
                << "\n";
  });
  return agree.load();
}

}  // namespace

int main() {
  using namespace prpart;
  using namespace prpart::bench;

  const std::size_t count = sweep_design_count();
  std::cout << "=== Figs. 7 & 8: synthetic sweep over " << count
            << " designs (paper: 1000; set PRPART_DESIGNS to override) ===\n";
  const SweepResult sweep = run_sweep(2013, count);
  const auto rows = sorted_by_device(sweep);

  // CSV dumps: one row per design in device-sorted order (the x-axis).
  {
    std::ofstream f7("fig7.csv");
    CsvWriter csv(f7, {"x", "device", "class", "proposed_total",
                       "modular_total", "single_total"});
    std::size_t x = 0;
    for (const SweepRow* r : rows)
      csv.row({std::to_string(x++), r->device, to_string(r->circuit_class),
               std::to_string(r->proposed_total),
               std::to_string(r->modular_total),
               std::to_string(r->single_total)});
    std::ofstream f8("fig8.csv");
    CsvWriter csv8(f8, {"x", "device", "proposed_worst", "modular_worst",
                        "single_worst"});
    x = 0;
    for (const SweepRow* r : rows)
      csv8.row({std::to_string(x++), r->device,
                std::to_string(r->proposed_worst),
                std::to_string(r->modular_worst),
                std::to_string(r->single_worst)});
  }
  std::cout << "wrote fig7.csv and fig8.csv (" << rows.size() << " rows)\n\n";

  // Console shape: per-device mean of each series.
  struct Agg {
    std::size_t n = 0;
    double p_total = 0, m_total = 0, s_total = 0;
    double p_worst = 0, m_worst = 0, s_worst = 0;
  };
  std::map<std::size_t, std::pair<std::string, Agg>> per_device;
  for (const SweepRow* r : rows) {
    auto& [name, a] = per_device[r->device_index];
    name = r->device;
    ++a.n;
    a.p_total += static_cast<double>(r->proposed_total);
    a.m_total += static_cast<double>(r->modular_total);
    a.s_total += static_cast<double>(r->single_total);
    a.p_worst += static_cast<double>(r->proposed_worst);
    a.m_worst += static_cast<double>(r->modular_worst);
    a.s_worst += static_cast<double>(r->single_worst);
  }

  std::cout << "Fig. 7 shape: mean TOTAL reconfiguration time (frames) per "
               "target device\n";
  TextTable t7({"Device", "Designs", "Proposed", "1 Module/Region",
                "Single region"});
  for (auto& [idx, entry] : per_device) {
    auto& [name, a] = entry;
    const auto n = static_cast<double>(a.n);
    t7.add_row({name, std::to_string(a.n),
                with_commas(static_cast<std::uint64_t>(a.p_total / n)),
                with_commas(static_cast<std::uint64_t>(a.m_total / n)),
                with_commas(static_cast<std::uint64_t>(a.s_total / n))});
  }
  std::cout << t7.render() << "\n";

  std::cout << "Fig. 8 shape: mean WORST-CASE reconfiguration time (frames) "
               "per target device\n";
  TextTable t8({"Device", "Designs", "Proposed", "1 Module/Region",
                "Single region"});
  for (auto& [idx, entry] : per_device) {
    auto& [name, a] = entry;
    const auto n = static_cast<double>(a.n);
    t8.add_row({name, std::to_string(a.n),
                with_commas(static_cast<std::uint64_t>(a.p_worst / n)),
                with_commas(static_cast<std::uint64_t>(a.m_worst / n)),
                with_commas(static_cast<std::uint64_t>(a.s_worst / n))});
  }
  std::cout << t8.render() << "\n";

  // §V text statistics.
  std::size_t beats_modular_total = 0, beats_single_total = 0;
  std::size_t beats_modular_worst = 0, ge_single_worst = 0;
  for (const SweepRow* r : rows) {
    if (r->proposed_total < r->modular_total) ++beats_modular_total;
    if (r->proposed_total < r->single_total) ++beats_single_total;
    if (r->proposed_worst < r->modular_worst) ++beats_modular_worst;
    if (r->proposed_worst <= r->single_worst) ++ge_single_worst;
  }
  const auto pct = [&](std::size_t n) {
    return fixed(100.0 * static_cast<double>(n) /
                     static_cast<double>(sweep.designs),
                 1) +
           "%";
  };
  std::cout << "Sweep statistics (paper values in parentheses):\n";
  std::cout << "  designs escalated to a larger FPGA : " << sweep.escalated
            << "/" << sweep.designs << " = " << pct(sweep.escalated)
            << "  (201/1000 = 20.1%)\n";
  std::cout << "  designs on a smaller FPGA than modular needs: "
            << sweep.smaller_than_modular << " (13)\n";
  std::cout << "  proposed beats modular on total time: "
            << pct(beats_modular_total) << " (73%)\n";
  std::cout << "  proposed beats single-region on total time: "
            << pct(beats_single_total) << " (100%)\n";
  std::cout << "  proposed beats modular on worst case: "
            << pct(beats_modular_worst) << " (70%)\n";
  std::cout << "  proposed <= single-region on worst case: "
            << pct(ge_single_worst) << " (87.5%)\n";
  std::cout << "  sweep wall time: " << fixed(sweep.seconds, 1) << " s ("
            << fixed(sweep.seconds / static_cast<double>(sweep.designs) * 1e3,
                     1)
            << " ms/design; paper: seconds to one minute per design)\n";

  // Device-walk shortcuts (DESIGN.md §4f), summed over the sweep.
  WalkStats walk;
  for (const SweepRow& r : sweep.rows) {
    walk.devices_skipped_infeasible += r.walk.devices_skipped_infeasible;
    walk.searches_skipped_no_fit += r.walk.searches_skipped_no_fit;
    walk.proofs_inconclusive += r.walk.proofs_inconclusive;
    walk.searches_run += r.walk.searches_run;
  }
  std::cout << "  device walk: " << walk.devices_skipped_infeasible
            << " devices skipped by the lower bound, "
            << walk.searches_skipped_no_fit
            << " searches skipped by the fit proof, "
            << walk.proofs_inconclusive << " proofs inconclusive, "
            << walk.searches_run << " searches run\n";
  const std::size_t agree = walk_identity_agree(2013, count);
  const double agreement =
      sweep.designs == 0 ? 1.0
                         : static_cast<double>(agree) /
                               static_cast<double>(sweep.designs);
  std::cout << "  walk identity vs reference: " << agree << "/"
            << sweep.designs << "\n";

  // Machine-readable summary for CI trend tracking: summed frame counts per
  // scheme, the speedup ratios the paper argues from, and the wall clock.
  {
    std::uint64_t proposed_total = 0, modular_total = 0, single_total = 0;
    std::uint64_t proposed_worst = 0, modular_worst = 0, single_worst = 0;
    for (const SweepRow* r : rows) {
      proposed_total += r->proposed_total;
      modular_total += r->modular_total;
      single_total += r->single_total;
      proposed_worst += r->proposed_worst;
      modular_worst += r->modular_worst;
      single_worst += r->single_worst;
    }
    const auto ratio = [](std::uint64_t base, std::uint64_t ours) {
      return ours == 0 ? 0.0
                       : static_cast<double>(base) / static_cast<double>(ours);
    };
    json::Value doc = json::Value::object();
    doc.set("designs", json::Value(static_cast<std::uint64_t>(sweep.designs)));
    doc.set("escalated",
            json::Value(static_cast<std::uint64_t>(sweep.escalated)));
    doc.set("smaller_than_modular",
            json::Value(static_cast<std::uint64_t>(sweep.smaller_than_modular)));
    json::Value totals = json::Value::object();
    totals.set("proposed", json::Value(proposed_total));
    totals.set("modular", json::Value(modular_total));
    totals.set("single_region", json::Value(single_total));
    doc.set("total_frames", totals);
    json::Value worsts = json::Value::object();
    worsts.set("proposed", json::Value(proposed_worst));
    worsts.set("modular", json::Value(modular_worst));
    worsts.set("single_region", json::Value(single_worst));
    doc.set("worst_frames", worsts);
    json::Value speedup = json::Value::object();
    speedup.set("total_vs_modular", json::Value(ratio(modular_total, proposed_total)));
    speedup.set("total_vs_single", json::Value(ratio(single_total, proposed_total)));
    speedup.set("worst_vs_modular", json::Value(ratio(modular_worst, proposed_worst)));
    speedup.set("worst_vs_single", json::Value(ratio(single_worst, proposed_worst)));
    doc.set("speedup", speedup);
    // Deterministic branch-and-bound effort counters summed over every
    // design's accepted search (thread-count independent, so the CI gate
    // can compare them against the committed baseline).
    std::uint64_t su = 0, sp = 0, sps = 0, sme = 0, ssr = 0;
    for (const SweepRow* r : rows) {
      su += r->search_units;
      sp += r->search_units_pruned;
      sps += r->search_units_pruned_sterile;
      sme += r->search_move_evaluations;
      ssr += r->search_states_recorded;
    }
    json::Value search = json::Value::object();
    search.set("units", json::Value(su));
    search.set("units_pruned", json::Value(sp));
    search.set("units_pruned_sterile", json::Value(sps));
    search.set("move_evaluations", json::Value(sme));
    search.set("states_recorded", json::Value(ssr));
    doc.set("search", search);
    json::Value walk_doc = json::Value::object();
    walk_doc.set("devices_skipped_infeasible",
                 json::Value(static_cast<std::uint64_t>(
                     walk.devices_skipped_infeasible)));
    walk_doc.set("searches_skipped_no_fit",
                 json::Value(static_cast<std::uint64_t>(
                     walk.searches_skipped_no_fit)));
    walk_doc.set("proofs_inconclusive",
                 json::Value(static_cast<std::uint64_t>(
                     walk.proofs_inconclusive)));
    walk_doc.set("searches_run",
                 json::Value(static_cast<std::uint64_t>(walk.searches_run)));
    doc.set("walk", walk_doc);
    doc.set("walk_identity_agreement", json::Value(agreement));
    doc.set("wall_seconds", json::Value(sweep.seconds));
    doc.set("ms_per_design",
            json::Value(sweep.seconds * 1e3 /
                        static_cast<double>(sweep.designs)));
    std::ofstream bench_json("BENCH_sweep.json");
    bench_json << doc.dump() << "\n";
    std::cout << "wrote BENCH_sweep.json\n";
  }
  // A walk that disagrees with the reference is a bug, not a slowdown.
  return agree == sweep.designs ? 0 : 1;
}
