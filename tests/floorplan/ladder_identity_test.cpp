// Identity of the placement ladder against the reference oracle: every rung
// and the full ladder (stage, verdict, diagnostics, fix-it) must return
// exactly what the column-by-column reference returns, on every device of
// both libraries and on requirement sets built to hit each rung's edges.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "floorplan/annealing.hpp"
#include "floorplan/floorplanner.hpp"
#include "floorplan/placement.hpp"
#include "oracle/floorplan_reference.hpp"
#include "util/rng.hpp"

namespace prpart {
namespace {

/// A synthetic evaluated scheme over `tiles` (floorplan_scheme reads only
/// the tiles and the static resources).
SchemeEvaluation eval_of(const std::vector<TileCount>& tiles,
                         const ResourceVec& static_resources) {
  SchemeEvaluation e;
  e.valid = true;
  e.fits = true;
  e.static_resources = static_resources;
  for (const TileCount& t : tiles) {
    RegionReport r;
    r.tiles = t;
    r.frames = t.frames();
    r.reconfig_pairs = 1;
    r.active = {0, 1};
    e.regions.push_back(std::move(r));
    e.total_frames += t.frames();
  }
  e.worst_frames = e.total_frames;
  return e;
}

/// Every device of extended() and virtex5_full(), each name once.
std::vector<Device> all_devices() {
  std::map<std::string, Device> by_name;
  for (const DeviceLibrary& lib :
       {DeviceLibrary::extended(), DeviceLibrary::virtex5_full()})
    for (const Device& d : lib.devices()) by_name.emplace(d.name(), d);
  std::vector<Device> out;
  for (auto& [name, d] : by_name) out.push_back(d);
  return out;
}

enum class Kind { Mixed, ZeroArea, BramOnly, DspOnly, Unplaceable, Fragmented };
constexpr Kind kKinds[] = {Kind::Mixed,   Kind::ZeroArea,    Kind::BramOnly,
                           Kind::DspOnly, Kind::Unplaceable, Kind::Fragmented};

/// Parts on which every kind runs. The reference greedy grows each window
/// column by column, so a window that must reach a sparse BRAM or DSP
/// column, or never covers at all, costs it up to O(rows^2 * cols^3), and
/// this suite runs unoptimised under ASan in CI. Larger parts get CLB-only
/// sets, whose windows close within a few columns. bench_floorplan's
/// identity leg runs the full ladder on every candidate of its suite.
bool small_part(const Device& d) {
  return d.columns().size() <= 64 && d.rows() <= 6;
}

std::uint32_t draw(Rng& rng, std::uint32_t hi) {
  return static_cast<std::uint32_t>(rng.uniform(0, hi));
}

/// A random requirement set of `kind` for `d`. Mixed and zero-area sets ask
/// for a few full-height columns of CLBs, plus at most one of BRAM and one
/// of DSP on small parts; the other kinds are sized against the whole tile
/// stock.
std::vector<TileCount> requirements(Rng& rng, const Device& d, Kind kind) {
  const std::uint32_t clb = d.tiles_of(BlockType::Clb);
  const std::uint32_t bram = d.tiles_of(BlockType::Bram);
  const std::uint32_t dsp = d.tiles_of(BlockType::Dsp);
  const std::uint32_t rows = d.rows();
  const std::uint32_t column_bram = small_part(d) ? std::min(bram, rows) : 0;
  const std::uint32_t column_dsp = small_part(d) ? std::min(dsp, rows) : 0;
  const auto regions = static_cast<std::uint32_t>(rng.uniform(1, 4));
  std::vector<TileCount> needs(regions);
  for (TileCount& n : needs) {
    switch (kind) {
      case Kind::Mixed:
        n = {draw(rng, std::min(clb, 4 * rows)), draw(rng, column_bram),
             draw(rng, column_dsp)};
        break;
      case Kind::ZeroArea:
        if (rng.chance(0.5))
          n = {draw(rng, std::min(clb, 2 * rows)), draw(rng, column_bram), 0};
        break;
      case Kind::BramOnly:
        n = {0, 1 + draw(rng, std::max(bram / regions, 1u) - 1), 0};
        break;
      case Kind::DspOnly:
        n = {0, 0, 1 + draw(rng, std::max(dsp / regions, 1u) - 1)};
        break;
      case Kind::Unplaceable:
      case Kind::Fragmented:
        // Together the regions ask for 40-100% of every type's tiles:
        // packable by count, near the top often not by rectangles.
        n = {clb * (40 + draw(rng, 60)) / (100 * regions),
             bram * (40 + draw(rng, 60)) / (100 * regions),
             dsp * (40 + draw(rng, 60)) / (100 * regions)};
        break;
    }
  }
  if (kind == Kind::Unplaceable) {
    // One region alone exceeds the device's stock of one type.
    TileCount& n = needs[rng.below(needs.size())];
    switch (rng.below(3)) {
      case 0: n.clb_tiles = clb + 1 + draw(rng, 8); break;
      case 1: n.bram_tiles = bram + 1 + draw(rng, 8); break;
      default: n.dsp_tiles = dsp + 1 + draw(rng, 8); break;
    }
  }
  return needs;
}

/// The kinds a part gets: every kind on small parts, one CLB-only set on
/// the others.
std::vector<Kind> kinds_for(const Device& d, Rng& rng) {
  if (small_part(d)) return {std::begin(kKinds), std::end(kKinds)};
  return {rng.chance(0.5) ? Kind::Mixed : Kind::ZeroArea};
}

/// A random 1-3 row grid of 3-10 columns (60% CLB, 20% BRAM, 20% DSP)
/// with 2-4 regions asking for up to half of each type's tiles each: tight
/// enough that every rung of the ladder, and every verdict, decides some of
/// them.
std::pair<Device, std::vector<TileCount>> random_grid(Rng& rng, int index) {
  const auto rows = static_cast<std::uint32_t>(rng.uniform(1, 3));
  std::vector<BlockType> columns(rng.uniform(3, 10));
  for (BlockType& c : columns) {
    const std::uint64_t roll = rng.below(10);
    c = roll < 6 ? BlockType::Clb : roll < 8 ? BlockType::Bram : BlockType::Dsp;
  }
  Device d("grid" + std::to_string(index), rows, std::move(columns));
  std::vector<TileCount> needs(rng.uniform(2, 4));
  for (TileCount& n : needs)
    n = {draw(rng, d.tiles_of(BlockType::Clb) / 2),
         draw(rng, d.tiles_of(BlockType::Bram) / 2),
         draw(rng, d.tiles_of(BlockType::Dsp) / 2)};
  return {std::move(d), std::move(needs)};
}

/// Short annealing runs keep the reference rung's O(cols^2) samples cheap;
/// three seeds cover the RNG-driven paths.
AnnealingOptions annealing(std::uint64_t seed) {
  AnnealingOptions opt;
  opt.seed = seed;
  opt.iterations = 300;
  return opt;
}

TEST(LadderIdentity, RungsMatchReferenceOnEveryLibraryDevice) {
  const std::vector<Device> devices = all_devices();
  ASSERT_GE(devices.size(), 30u);
  Rng rng(20130520);
  std::size_t cases = 0, placed = 0, partial_warm_starts = 0;
  for (const Device& d : devices) {
    for (Kind kind : kinds_for(d, rng)) {
      const std::vector<TileCount> needs = requirements(rng, d, kind);
      const std::string ctx =
          d.name() + " kind " + std::to_string(static_cast<int>(kind));
      ++cases;

      const FloorplanResult sky = skyline_place(d, needs);
      EXPECT_EQ(oracle::describe(sky),
                oracle::describe(oracle::skyline_place_reference(d, needs)))
          << ctx;
      if (sky.success) ++placed;

      std::vector<RegionPlacement> warm;
      for (PlacementStrategy s :
           {PlacementStrategy::FirstFit, PlacementStrategy::BestFit}) {
        const FloorplanResult greedy = Floorplanner(d, {s}).place(needs);
        EXPECT_EQ(
            oracle::describe(greedy),
            oracle::describe(oracle::greedy_place_reference(d, needs, {s})))
            << ctx << " strategy " << static_cast<int>(s);
        warm = greedy.placements;
        if (!greedy.success && !warm.empty()) ++partial_warm_starts;
      }

      for (std::uint64_t seed : {1u, 7u, 42u}) {
        const AnnealingOptions opt = annealing(seed);
        EXPECT_EQ(
            oracle::describe(anneal_place(d, needs, opt)),
            oracle::describe(oracle::anneal_place_reference(d, needs, opt)))
            << ctx << " seed " << seed;
        // Warm starts: the greedy rung's placement (partial when it
        // failed, complete when it placed), and none at all.
        for (const std::vector<RegionPlacement>& start :
             {warm, std::vector<RegionPlacement>{}})
          EXPECT_EQ(oracle::describe(anneal_refine(d, needs, start, opt)),
                    oracle::describe(oracle::anneal_refine_reference(
                        d, needs, start, opt)))
              << ctx << " seed " << seed << " warm " << start.size();
      }
    }
  }
  // Both outcomes of the fast rung, and partial warm starts, occur.
  EXPECT_GT(placed, cases / 2);
  EXPECT_LT(placed, cases);
  EXPECT_GT(partial_warm_starts, 0u);
}

TEST(AnnealIdentity, EveryExtendedDeviceMatchesReference) {
  // The annealer's precomputed draws, width memo and overlap rows against
  // the reference annealer on every extended() part: tight sets of up to
  // eight regions, so runs go the distance and accept, reject and cool,
  // warm-started from the greedy rung's placement and from nothing.
  const DeviceLibrary library = DeviceLibrary::extended();
  Rng rng(1311);
  std::size_t runs = 0, unsolved = 0;
  for (const Device& d : library.devices()) {
    for (const std::uint32_t regions : {3u, 8u}) {
      // Together the regions ask for 70-100% of the CLB tiles and a share
      // of the BRAM and DSP tiles.
      const std::uint32_t clb = d.tiles_of(BlockType::Clb);
      std::vector<TileCount> needs(regions);
      for (TileCount& n : needs)
        n = {clb * (70 + draw(rng, 30)) / (100 * regions),
             draw(rng, d.tiles_of(BlockType::Bram) / (4 * regions)),
             draw(rng, d.tiles_of(BlockType::Dsp) / (4 * regions))};
      const std::vector<RegionPlacement> warm =
          Floorplanner(d, {PlacementStrategy::BestFit}).place(needs).placements;
      for (std::uint64_t seed : {3u, 11u, 2024u}) {
        AnnealingOptions opt = annealing(seed);
        opt.iterations = 3000;
        const std::string ctx = d.name() + " regions " +
                                std::to_string(regions) + " seed " +
                                std::to_string(seed);
        const FloorplanResult placed = anneal_place(d, needs, opt);
        EXPECT_EQ(oracle::describe(placed),
                  oracle::describe(oracle::anneal_place_reference(d, needs, opt)))
            << ctx;
        EXPECT_EQ(oracle::describe(anneal_refine(d, needs, warm, opt)),
                  oracle::describe(
                      oracle::anneal_refine_reference(d, needs, warm, opt)))
            << ctx << " warm";
        ++runs;
        if (!placed.success) ++unsolved;
      }
    }
  }
  // Some runs end with overlaps left, so failed_region is compared too.
  EXPECT_GT(unsolved, 0u);
  EXPECT_LT(unsolved, runs);
}

TEST(LadderIdentity, LadderVerdictsAndFixItsMatchReference) {
  // Library parts walk the extended() catalogue for their fix-it; the small
  // grids walk a catalogue of small grids, which some of them outgrow.
  const DeviceLibrary extended = DeviceLibrary::extended();
  DeviceLibrary grids;
  {
    using B = BlockType;
    grids.add(Device("fix-s", 2, {B::Clb, B::Bram, B::Clb, B::Dsp, B::Clb}));
    grids.add(Device("fix-m", 3, {B::Clb, B::Clb, B::Bram, B::Clb, B::Dsp,
                                  B::Clb, B::Bram, B::Clb}));
    grids.add(Device("fix-l", 3, {B::Clb, B::Clb, B::Bram, B::Clb, B::Dsp,
                                  B::Clb, B::Clb, B::Bram, B::Clb, B::Dsp,
                                  B::Clb, B::Clb}));
  }
  Rng rng(1904);
  std::map<std::string, int> outcomes;
  int combo = 0;
  const auto check = [&](const Device& d, const std::vector<TileCount>& needs,
                         const DeviceLibrary& fixit,
                         std::uint64_t max_static_share,
                         const std::string& ctx) {
    // Static logic up to `max_static_share` percent of the device, so
    // feasible and static-overflow verdicts both occur.
    const ResourceVec cap = d.capacity();
    const auto share =
        static_cast<std::uint32_t>(rng.uniform(0, max_static_share));
    const SchemeEvaluation eval =
        eval_of(needs, {cap.clbs * share / 100, cap.brams * share / 200,
                        cap.dsps * share / 200});
    // Rotate through both greedy strategies, annealer on and off.
    PlacementOptions opt;
    opt.strategy = combo % 2 == 0 ? PlacementStrategy::BestFit
                                  : PlacementStrategy::FirstFit;
    opt.use_annealer = combo / 2 % 2 == 0;
    opt.annealing = annealing(rng.uniform(1, 1000));
    ++combo;
    const PlacedFloorplan plan = floorplan_scheme(d, eval, opt, &fixit);
    EXPECT_EQ(oracle::describe(plan),
              oracle::describe(
                  oracle::floorplan_scheme_reference(d, eval, opt, &fixit)))
        << ctx;
    if (!plan.feasible) {
      EXPECT_EQ(
          oracle::describe(floorplan_scheme(d, eval, opt)),
          oracle::describe(oracle::floorplan_scheme_reference(d, eval, opt)))
          << ctx << " (no library)";
    }
    const FloorplanVerdict& v = plan.verdict;
    ++outcomes[plan.feasible ? to_string(plan.stage)
                             : v.diagnostics.front().code +
                                   (v.smallest_feasible_device.empty()
                                        ? ""
                                        : "+fixit")];
  };
  for (const Device& d : all_devices())
    for (Kind kind : kinds_for(d, rng))
      check(d, requirements(rng, d, kind), extended, 130,
            d.name() + " kind " + std::to_string(static_cast<int>(kind)));
  for (int i = 0; i < 300; ++i) {
    const auto [d, needs] = random_grid(rng, i);
    check(d, needs, grids, 10, d.name());
  }
  // Every ladder outcome the verdict can take shows up in the sample.
  for (const char* outcome :
       {"skyline", "greedy", "annealed", "floorplan-region-unplaceable",
        "floorplan-region-unplaceable+fixit", "floorplan-static-overflow",
        "floorplan-static-overflow+fixit"})
    EXPECT_GT(outcomes[outcome], 0) << outcome;
}

TEST(LadderIdentity, DefaultAnnealerMatchesReferenceWhereItRunsToTheEnd) {
  // The full 30,000-iteration schedule, on small grids where both
  // deterministic rungs fail and the annealer decides.
  Rng rng(1803);
  int checked = 0;
  for (int i = 0; checked < 12 && i < 1000; ++i) {
    const auto [d, needs] = random_grid(rng, i);
    if (skyline_place(d, needs).success ||
        Floorplanner(d, {PlacementStrategy::BestFit}).place(needs).success)
      continue;
    const SchemeEvaluation eval = eval_of(needs, {});
    EXPECT_EQ(oracle::describe(floorplan_scheme(d, eval)),
              oracle::describe(oracle::floorplan_scheme_reference(d, eval)))
        << d.name();
    ++checked;
  }
  EXPECT_EQ(checked, 12);
}

}  // namespace
}  // namespace prpart
