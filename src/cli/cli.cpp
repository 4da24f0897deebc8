#include "cli/cli.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <type_traits>

#include <sys/wait.h>
#include <unistd.h>

#include "analysis/frontend.hpp"
#include "bitstream/bitstream.hpp"
#include "core/clustering.hpp"
#include "core/compatibility.hpp"
#include "core/connectivity.hpp"
#include "core/optimal.hpp"
#include "core/partitioner.hpp"
#include "core/report.hpp"
#include "core/result_io.hpp"
#include "core/schemes.hpp"
#include "design/io_xml.hpp"
#include "design/synthetic.hpp"
#include "floorplan/floorplanner.hpp"
#include "floorplan/placement.hpp"
#include "floorplan/rerank.hpp"
#include "flow/flow.hpp"
#include "reconfig/markov.hpp"
#include "server/client.hpp"
#include "server/job.hpp"
#include "server/protocol.hpp"
#include "server/router.hpp"
#include "server/server.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "synth/estimator.hpp"
#include "util/args.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace prpart::cli {

namespace {

constexpr const char* kUsage = R"(prpart - automated partitioning for partial reconfiguration designs

usage:
  prpart version
  prpart devices
  prpart analyze <design.xml> [--device NAME | --budget C,B,D] [--json]
  prpart estimate [--luts N] [--ffs N] [--mults N] [--kbits N] [--distbits N]
  prpart generate [--seed S] [--class logic|memory|dsp|dspmem] [--out FILE]
  prpart partition <design.xml> [--device NAME | --budget C,B,D]
                   [--candidate-sets N] [--evals N] [--threads N]
                   [--floorplan] [--ucf FILE] [--save FILE]
                   [--search-stats] [--json]
  prpart floorplan <design.xml> [--device NAME | --budget C,B,D]
                   [--candidate-sets N] [--evals N] [--threads N]
                   [--top-k N] [--first-fit] [--no-anneal]
                   [--anneal-seed S] [--ucf FILE] [--json]
  prpart simulate <design.xml> [--device NAME | --budget C,B,D]
                  [--candidate-sets N] [--evals N]
                  [--steps N] [--seed S] [--trace FILE | --uniform]
                  [--prefetch] [--arrival-ns N] [--idle-frames N]
                  [--floorplan] [--load FILE] [--rank] [--threads N] [--json]
  prpart bitstreams <design.xml> [--device NAME | --budget C,B,D]
                    [--candidate-sets N] [--evals N] [--threads N] [--out DIR]
  prpart flow <design.xml> [--device NAME] [--candidate-sets N] [--evals N]
              [--threads N] [--out DIR]
  prpart optimal <design.xml> [--device NAME | --budget C,B,D] [--states N]
  prpart serve [--port N] [--workers K] [--max-queue N] [--timeout MS]
               [--cache N] [--store DIR] [--store-entries N]
               [--high-watermark N] [--max-inflight N] [--io-workers K]
               [--job-threads N] [--log-interval MS] [--shards N]
  prpart submit <design.xml> [--host H] [--port N]
                [--device NAME | --budget C,B,D] [--candidate-sets N]
                [--evals N] [--threads N] [--timeout MS] [--id ID] [--json]
  prpart stats [--host H] [--port N] [--json]

With neither --device nor --budget, partitioning walks the device library
(the paper's Virtex-5 parts plus reference parts with distinct column
layouts; see `prpart devices`) from the smallest device up (the paper's
device-selection mode). `analyze`
(alias: `lint`) runs the static diagnostics engine: structural checks with
source spans, design hygiene warnings and a resource lower-bound
infeasibility proof; it exits 0 when clean, 4 when an error-severity
diagnostic fires. `flow`
runs the complete pipeline (partition, the `floorplan` stage below, UCF,
bitstreams) and writes the artefacts into --out; when every enumerated
scheme is vetoed it shrinks the budget by 10% and re-partitions, at most 6
times, and exits 2 if none places. --threads N runs the
region-allocation search on N worker threads (default: hardware
concurrency; results are byte-identical for every N, and N=1 runs inline).
--search-stats prints the branch-and-bound search counters (work units,
pruned units, move/full evaluations, move-table rescores and lower-bound
tightness) after the partitioning; --json always carries the deterministic
subset in the `stats` object.

`floorplan` is the partition-floorplan co-optimization stage: it
partitions the design, places the search's top K enumerated schemes as
rectangles on the device's column grid (skyline packer, then greedy, then
simulated-annealing refinement), replaces the Eq. 10 frame estimates with
the frames of the placed rectangles, vetoes schemes with no legal
floorplan and re-ranks the rest by placement-true cost. The re-rank only
reorders within the enumerated candidate set and is byte-identical at any
--threads value. --top-k bounds how many schemes are floorplanned,
--first-fit switches the greedy rung's strategy, --no-anneal disables the
refinement rung and --anneal-seed pins its RNG. `partition --floorplan`
places just the proposed scheme through the same ladder; `simulate
--floorplan` replays the workload against placement-true ICAP costs.
Exit code 2 means every candidate was vetoed (the diagnostics name the
binding resource column and the smallest feasible library device).

`simulate` replays a transition workload against the proposed scheme
through the ICAP datapath model and reports served reconfiguration
latency (p50/p95/p99/max), frame and prefetch counters: a Markov-sampled
trace of --steps transitions by default, --uniform for the Eulerian
all-pairs circuit behind the paper's Eq. 10 proxy, or --trace FILE for a
recorded trace (whitespace-separated configuration ids, `#` comments).
--rank additionally replays the search's runner-up schemes; --arrival-ns
switches from closed-loop to fixed-period arrivals (queueing shows up in
the latency). Without --prefetch a transition i -> j pays the memoryless
Eq. 8 cost: the regions both configurations use with different members.
--prefetch switches to the stateful controller, whose regions keep their
contents between transitions (so a region left stale by a configuration
that does not use it reloads when next needed), and prefetches idle
regions for the Markov-predicted successor within --idle-frames per idle
period (needs --prefetch). The stateful model never loads fewer frames
than the memoryless one; compare --prefetch runs with each other, not
with plain ones. Results are byte-deterministic for a given seed at any
--threads value.

`optimal` runs the exact search over the mode-level candidate set: every
grouping of its partitions into regions or the static logic, on the
smallest device the design's single region fits unless --device or
--budget says otherwise. `states` counts the assignment nodes visited; a
node whose partial assignment no longer fits, or already costs the best
total found, is not expanded. --states caps them (default 2,000,000; the
answer is then best effort).
)";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw ParseError("cannot write '" + path + "'");
  f << content;
}

/// Reads declared request fields from their CLI flags and checks their
/// rules, as the wire's reader does. A field without a flag, or whose flag
/// was not given, keeps its value.
class FlagReader {
 public:
  explicit FlagReader(const Args& args) : args_(args) {}

  void operator()(const server::Field& f, std::string& s) const {
    if (const auto v = value(f)) {
      s = *v;
      server::check_rule(f, dashed(f), s);
    }
  }
  template <server::Count T>
  void operator()(const server::Field& f, T& n) const {
    if (const auto v = value(f)) {
      n = static_cast<T>(parse_u64(*v));
      server::check_rule(f, dashed(f), n);
    }
  }
  void operator()(const server::Field& f, bool& b) const {
    if (given(f.flag)) b = !b;
  }
  void operator()(const server::Field& f, std::optional<ResourceVec>& r) const {
    const auto spec = value(f);
    if (!spec) return;
    const std::vector<std::string> parts = split(*spec, ',');
    if (parts.size() != 3)
      throw ParseError(dashed(f) + " expects CLBS,BRAMS,DSPS, got '" + *spec +
                       "'");
    r = ResourceVec{parse_u32(parts[0]), parse_u32(parts[1]),
                    parse_u32(parts[2])};
    server::check_excludes(f, "--", given(f.excludes));
  }

 private:
  bool given(std::string_view flag) const {
    return !flag.empty() && args_.has(std::string(flag));
  }
  std::optional<std::string> value(const server::Field& f) const {
    if (f.flag.empty()) return std::nullopt;
    return args_.value(std::string(f.flag));
  }
  static std::string dashed(const server::Field& f) {
    return "--" + std::string(f.flag);
  }

  const Args& args_;
};

using RequestType = server::Request::Type;

/// The request of `type` the flags describe; a field whose flag is absent
/// keeps its request_defaults() value.
server::Request request_from(const Args& args, RequestType type) {
  server::Request request = server::request_defaults();
  request.type = type;
  const FlagReader read(args);
  server::request_fields(type, read, request);
  return request;
}

/// The design file named by the first positional. A problem in it is
/// reported at its position, as `analyze` reports it.
Design read_design_arg(const Args& args) {
  const std::string& path = args.positionals().at(1);
  const std::string text = read_file(path);
  try {
    return design_from_xml(text);
  } catch (const ParseError& e) {
    const xml::Span at{e.line(), e.column()};
    if (!at.known()) throw;
    throw ParseError(path + ":" + at.to_string() + ": " + e.what(), at.line,
                     at.column);
  }
}

int cmd_devices(const Args&, std::ostream& out, std::ostream&) {
  const DeviceLibrary v5 = DeviceLibrary::virtex5();
  out << "Virtex-5 device library (smallest to largest):\n";
  for (const Device& d : v5.devices())
    out << "  " << d.name() << ": " << d.capacity().to_string() << ", "
        << d.rows() << " rows, " << d.columns().size() << " columns\n";
  out << "Reference parts (distinct column layouts, for floorplanning):\n";
  const DeviceLibrary ref = DeviceLibrary::reference_parts();
  for (const Device& d : ref.devices())
    out << "  " << d.name() << ": " << d.capacity().to_string() << ", "
        << d.rows() << " rows, " << d.columns().size() << " columns\n";
  return 0;
}

/// Builds analyzer options from --device/--budget. An unknown device or a
/// conflicting pair is a usage error (exit 1), reported before any
/// analysis runs.
analysis::AnalysisOptions analysis_options_from(const Args& args) {
  const server::PartitionRequest target =
      request_from(args, RequestType::Analyze).partition;
  analysis::AnalysisOptions opt;
  opt.budget = target.budget;
  if (!target.device.empty()) {
    opt.library.by_name(target.device);  // throws DeviceError when unknown
    opt.device = target.device;
  }
  return opt;
}

int cmd_analyze(const Args& args, std::ostream& out, std::ostream&) {
  const std::string& path = args.positionals().at(1);
  const analysis::SourceAnalysis sa =
      analysis::analyze_design_source(read_file(path),
                                      analysis_options_from(args));
  if (args.has("json")) {
    // Same encoder as the server's `analyze` result payload, byte for byte.
    out << analysis::analysis_json(sa.result).dump() << "\n";
  } else if (sa.result.diagnostics.empty()) {
    out << "no issues found\n";
  } else {
    out << analysis::render_text(sa.result.diagnostics, path);
  }
  return sa.has_errors() ? 4 : 0;
}

int cmd_estimate(const Args& args, std::ostream& out, std::ostream&) {
  synth::BehavioralSpec spec;
  spec.luts = static_cast<std::uint32_t>(args.u64_or("luts", 0));
  spec.ffs = static_cast<std::uint32_t>(args.u64_or("ffs", 0));
  spec.mult18s = static_cast<std::uint32_t>(args.u64_or("mults", 0));
  spec.mem_kbits = static_cast<std::uint32_t>(args.u64_or("kbits", 0));
  spec.dist_mem_bits = static_cast<std::uint32_t>(args.u64_or("distbits", 0));
  out << synth::estimate(spec).to_string() << "\n";
  return 0;
}

int cmd_generate(const Args& args, std::ostream& out, std::ostream&) {
  const std::uint64_t seed = args.u64_or("seed", 1);
  const std::string cls = args.value_or("class", "logic");
  CircuitClass circuit_class;
  if (cls == "logic") circuit_class = CircuitClass::Logic;
  else if (cls == "memory") circuit_class = CircuitClass::Memory;
  else if (cls == "dsp") circuit_class = CircuitClass::Dsp;
  else if (cls == "dspmem") circuit_class = CircuitClass::DspAndMemory;
  else throw ParseError("unknown --class '" + cls + "'");

  Rng rng(seed);
  const SyntheticDesign s = generate_synthetic(rng, circuit_class);
  const std::string xml = design_to_xml(s.design);
  if (const auto path = args.value("out")) {
    write_file(*path, xml);
    out << "wrote " << *path << "\n";
  } else {
    out << xml;
  }
  return 0;
}

/// Prints a feasible floorplan under `heading`: the ladder rung that placed
/// it and one line per placed rectangle.
void print_rectangles(std::ostream& out, const std::string& heading,
                      const Device& device, const PlacedFloorplan& plan) {
  out << "\n" << heading << " on " << device.name() << " ("
      << to_string(plan.stage) << "):\n";
  for (const RegionPlacement& p : plan.placements) {
    if (p.width == 0) continue;
    out << "  PRR" << p.region + 1 << ": rows [" << p.row << ","
        << p.row + p.height << ") cols [" << p.col << "," << p.col + p.width
        << "), " << with_commas(plan.placed_frames[p.region]) << " frames\n";
  }
}

/// print_rectangles plus the placement-true Eq. 10/11 costs of `placed` (the
/// scheme's evaluation patched by with_placement_frames) next to the Eq. 10
/// estimate from its regions' tile requirements.
void print_floorplan(std::ostream& out, const Device& device,
                     const PlacedFloorplan& plan,
                     const SchemeEvaluation& placed) {
  print_rectangles(out, "Floorplan", device, plan);
  std::uint64_t estimate = 0;
  for (const RegionReport& region : placed.regions)
    estimate += region.reconfig_pairs * region.tiles.frames();
  out << "  placement-true: " << with_commas(placed.total_frames)
      << " total frames (estimate " << with_commas(estimate) << "), worst "
      << with_commas(placed.worst_frames) << "\n";
}

/// Writes each bitstream into `dir` as <name>.bit, with the `{`, `}` and `,`
/// of configuration-set names turned into `_`. Returns the paths in order.
std::vector<std::filesystem::path> write_bitstreams(
    const std::filesystem::path& dir, const std::vector<Bitstream>& set) {
  std::vector<std::filesystem::path> paths;
  paths.reserve(set.size());
  for (const Bitstream& b : set) {
    std::string fname = b.name;
    for (char& c : fname)
      if (c == '{' || c == '}' || c == ',') c = '_';
    const std::filesystem::path path = dir / (fname + ".bit");
    std::ofstream f(path, std::ios::binary);
    if (!f) throw ParseError("cannot write '" + path.string() + "'");
    f.write(reinterpret_cast<const char*>(b.words.data()),
            static_cast<std::streamsize>(b.words.size() * 4));
    paths.push_back(path);
  }
  return paths;
}

int cmd_partition(const Args& args, std::ostream& out, std::ostream& err) {
  const bool json_out = args.has("json");
  if (json_out && (args.has("floorplan") || args.has("ucf")))
    throw ParseError("--json cannot be combined with --floorplan/--ucf");
  const Design design = read_design_arg(args);
  const DeviceLibrary lib = DeviceLibrary::extended();
  const server::PartitionRequest target =
      request_from(args, RequestType::Partition).partition;
  // The server's admission pre-check: a provably hopeless explicit target
  // is rejected with the proof before any search runs. --json skips it and
  // prints the engine's `feasible: false` payload instead, where the server
  // answers `infeasible` (docs/protocol.md).
  if (!json_out) {
    if (const auto proof = server::precheck_target(design, target, lib)) {
      err << server::does_not_fit(design, proof->capacity) << "\n"
          << "  " << proof->to_string() << "\n";
      if (!proof->smallest_fitting_device.empty())
        err << "  smallest fitting library device: "
            << proof->smallest_fitting_device << "\n";
      return 2;
    }
  }
  const server::TargetRun t = server::run_target(design, target, lib);
  if (json_out) {
    // Same encoder as the server's `result` payload, so scripted callers
    // and the integration tests can diff the two byte for byte.
    out << server::partition_result_json(design, t.result, t.device_name,
                                         t.budget)
               .dump()
        << "\n";
  } else if (!t.result.feasible) {
    err << server::does_not_fit(design, t.budget) << "\n";
    return 2;
  } else {
    if (!t.device_name.empty())
      out << "target device: " << t.device_name << "\n";
    out << "budget: " << t.budget.to_string() << "\n\n";
    out << render_scheme_comparison(t.result);
    out << "\nProposed partitioning:\n"
        << render_scheme_partitions(design, t.result.base_partitions,
                                    t.result.proposed.scheme);
  }

  if (args.has("search-stats") && !json_out) {
    const SearchStats& s = t.result.stats;
    out << "\nSearch statistics:\n"
        << "  work units:       " << s.units << " (" << s.units_pruned
        << " pruned by the lower bound, " << s.units_pruned_sterile
        << " of them with no fitting completion)\n"
        << "  move evaluations: " << s.move_evaluations
        << (s.budget_exhausted ? " (budget exhausted)" : "") << "\n"
        << "  full evaluations: " << s.full_evaluations << " fresh, "
        << s.moves_rescored << " rescored from the move table\n"
        << "  greedy descents:  " << s.greedy_runs << " over "
        << s.candidate_sets << " candidate sets, " << s.states_recorded
        << " states recorded\n";
    if (s.bound_best_sum > 0) {
      // Mean lb/best over accepted units: 100% means the bound was exact.
      out << "  bound tightness:  " << (100 * s.bound_lb_sum) / s.bound_best_sum
          << "% (lb sum " << s.bound_lb_sum << " / best sum "
          << s.bound_best_sum << ")\n";
    }
    out << "  kernel evals:     " << s.kernel_evaluations << " ("
        << s.signature_collapsed_configs << " configs signature-collapsed)\n";
  }

  if (const auto save = args.value("save")) {
    if (!t.result.feasible) throw ParseError("--save needs a feasible result");
    write_file(*save, partitioning_to_xml(design, t.result.base_partitions,
                                          t.result.proposed.scheme,
                                          t.result.proposed.eval));
    (json_out ? err : out) << "saved partitioning to " << *save << "\n";
  }
  if (!t.result.feasible) return 2;

  if (args.has("floorplan") || args.has("ucf")) {
    const Device& device = t.placement_device();
    const PlacedFloorplan plan =
        floorplan_scheme(device, t.result.proposed.eval, {}, &lib);
    if (!plan.feasible) {
      err << "floorplanning failed on " << device.name() << ":\n";
      for (const analysis::Diagnostic& d : plan.verdict.diagnostics) {
        err << "  " << d.message << "\n";
        if (!d.fixit.empty()) err << "    fix: " << d.fixit << "\n";
      }
      return 2;
    }
    print_floorplan(out, device, plan,
                    with_placement_frames(t.result.proposed.eval, plan));
    if (const auto ucf_path = args.value("ucf")) {
      write_file(*ucf_path, to_ucf(device, plan.placements));
      out << "wrote " << *ucf_path << "\n";
    }
  }
  return 0;
}

int cmd_floorplan(const Args& args, std::ostream& out, std::ostream& err) {
  const bool json_out = args.has("json");
  const Design design = read_design_arg(args);
  const DeviceLibrary lib = DeviceLibrary::extended();
  const server::FloorplanRequest job =
      request_from(args, RequestType::Floorplan).floorplan;
  const server::FloorplanParams& params = job.params;
  const server::TargetRun t = server::run_target(design, job.partition, lib);
  if (!t.result.feasible) {
    if (json_out) {
      out << server::floorplan_result_json(design, t.result, {}, t.device_name,
                                           t.budget)
                 .dump()
          << "\n";
    } else {
      err << server::does_not_fit(design, t.budget) << "\n";
    }
    return 2;
  }

  const Device& device = t.placement_device();
  const FloorplanRerank rerank = floorplan_rerank(
      design, t.result, device, t.budget, params.rerank_options(), &lib);
  if (json_out) {
    // Same encoder as the server's `floorplan` result payload, byte for
    // byte (the same contract as `partition --json`).
    out << server::floorplan_result_json(design, t.result, rerank,
                                         t.device_name, t.budget)
               .dump()
        << "\n";
    return rerank.any_feasible ? 0 : 2;
  }

  out << "placement device: " << device.name() << "\n";
  out << "budget: " << t.budget.to_string() << "\n\n";
  out << "Placement-true re-ranking (" << rerank.ranked.size()
      << " enumerated schemes, " << rerank.vetoed_count << " vetoed):\n";
  for (std::size_t rank = 0; rank < rerank.ranked.size(); ++rank) {
    const FloorplanCandidate& c = rerank.ranked[rank];
    out << "  #" << rank + 1 << " scheme " << c.source_index + 1;
    if (c.vetoed) {
      out << ": VETOED (estimate " << with_commas(c.estimated_total)
          << " frames)\n";
      for (const analysis::Diagnostic& d : c.plan.verdict.diagnostics) {
        out << "       " << d.message << "\n";
        if (!d.fixit.empty()) out << "       fix: " << d.fixit << "\n";
      }
    } else {
      out << " [" << to_string(c.plan.stage)
          << "]: " << with_commas(c.placement_total)
          << " frames placement-true (estimate "
          << with_commas(c.estimated_total) << ", worst "
          << with_commas(c.placement_worst) << ", waste "
          << with_commas(c.plan.stats.waste_frames) << ")\n";
    }
  }
  if (!rerank.any_feasible) {
    err << "no enumerated scheme has a legal floorplan on " << device.name()
        << "\n";
    return 2;
  }

  const FloorplanCandidate& winner = rerank.ranked.front();
  if (rerank.overturned) {
    const auto eq10 = std::find_if(
        rerank.ranked.begin(), rerank.ranked.end(),
        [](const FloorplanCandidate& c) { return c.source_index == 0; });
    out << "\nplacement-true cost overturns the Eq. 10 ranking: scheme "
        << rerank.winner_source + 1 << " replaces scheme 1"
        << (eq10 != rerank.ranked.end() && eq10->vetoed ? " (vetoed)"
                                                        : " (re-ranked)")
        << "\n";
  } else {
    out << "\nthe Eq. 10 winner survives placement\n";
  }

  print_rectangles(out, "Winner floorplan", device, winner.plan);
  out << "\nWinning partitioning:\n"
      << render_scheme_partitions(design, t.result.base_partitions,
                                  winner.scheme);
  if (const auto ucf_path = args.value("ucf")) {
    write_file(*ucf_path, to_ucf(device, winner.plan.placements));
    out << "wrote " << *ucf_path << "\n";
  }
  return 0;
}

int cmd_simulate(const Args& args, std::ostream& out, std::ostream& err) {
  const bool json_out = args.has("json");
  const Design design = read_design_arg(args);
  const DeviceLibrary lib = DeviceLibrary::extended();
  const std::size_t n = design.configurations().size();
  if (n < 2) throw ParseError("simulation needs at least two configurations");

  const server::SimulateRequest job =
      request_from(args, RequestType::Simulate).simulate;
  const server::SimulateParams& params = job.params;
  if (args.has("idle-frames") && !params.prefetch)
    throw ParseError("--idle-frames needs --prefetch");
  if (params.floorplan && args.value("load"))
    throw ParseError("--floorplan cannot be combined with --load");

  // Schemes to replay: the saved partitioning, or the search's proposal
  // (plus its ranked runners-up with --rank).
  std::vector<PartitionScheme> schemes;
  std::vector<SchemeEvaluation> evals;
  std::string device_name;
  ResourceVec budget;
  if (const auto load = args.value("load")) {
    // Re-derive the base partitions and evaluate the saved scheme instead
    // of re-running the search. The budget only gates fit; use an
    // unconstrained one for simulation.
    const ConnectivityMatrix matrix(design);
    const auto partitions = enumerate_base_partitions(design, matrix);
    PartitionScheme scheme =
        partitioning_from_xml(design, partitions, read_file(*load));
    SchemeEvaluation eval =
        evaluate_scheme(design, matrix, partitions, scheme, {~0u, ~0u, ~0u});
    if (!eval.valid) {
      err << "loaded partitioning is invalid: " << eval.invalid_reason << "\n";
      return 2;
    }
    if (scheme.label.empty()) scheme.label = "loaded";
    schemes.push_back(std::move(scheme));
    evals.push_back(std::move(eval));
  } else {
    const server::TargetRun t = server::run_target(design, job.partition, lib);
    if (!t.result.feasible) {
      err << server::does_not_fit(design, t.budget) << "\n";
      return 2;
    }
    device_name = t.device_name;
    budget = t.budget;
    schemes.push_back(t.result.proposed.scheme);
    schemes.back().label = "proposed";  // as the served payload labels it
    evals.push_back(t.result.proposed.eval);
    if (args.has("rank")) {
      // Replay the runners-up too; the output then ranks the candidates by
      // what the workload actually pays instead of the Eq. 10 proxy.
      const ConnectivityMatrix matrix(design);
      const auto partitions = enumerate_base_partitions(design, matrix);
      for (std::size_t i = 1; i < t.result.alternatives.size(); ++i) {
        PartitionScheme alt = t.result.alternatives[i].scheme;
        SchemeEvaluation eval =
            evaluate_scheme(design, matrix, partitions, alt, t.budget);
        if (!eval.valid || !eval.fits) continue;
        if (alt.label.empty()) alt.label = "alt" + std::to_string(i);
        schemes.push_back(std::move(alt));
        evals.push_back(std::move(eval));
      }
    }
    if (params.floorplan) {
      // Replay against placement-true ICAP costs: floorplan every scheme
      // through the ladder and patch its frame counts. A vetoed proposal is
      // fatal; vetoed runners-up just drop out of the --rank replay.
      const Device& device = t.placement_device();
      std::vector<PartitionScheme> kept_schemes;
      std::vector<SchemeEvaluation> kept_evals;
      for (std::size_t i = 0; i < schemes.size(); ++i) {
        std::optional<SchemeEvaluation> placed =
            server::placement_true(device, std::move(evals[i]));
        if (!placed && i == 0) {
          err << "the proposed scheme has no legal floorplan on "
              << device.name() << "\n";
          return 2;
        }
        if (!placed) continue;
        kept_schemes.push_back(std::move(schemes[i]));
        kept_evals.push_back(std::move(*placed));
      }
      schemes = std::move(kept_schemes);
      evals = std::move(kept_evals);
    }
  }

  // The workload: a trace file, the Eulerian all-pairs circuit, or a
  // Markov-sampled trace (the default). The environment chain doubles as
  // the prefetch predictor in every mode.
  sim::TransitionTrace trace;
  std::string source;
  std::optional<MarkovChain> env;
  if (const auto trace_path = args.value("trace")) {
    const sim::TraceParse parsed =
        sim::parse_trace(read_file(*trace_path), n);
    if (!parsed.diagnostics.empty())
      err << analysis::render_text(parsed.diagnostics, *trace_path);
    if (!parsed.ok()) return 4;
    if (parsed.trace.transitions() == 0) {
      err << "trace '" << *trace_path << "' has no transitions\n";
      return 4;
    }
    trace = parsed.trace;
    source = "file";
    Rng rng(params.seed);
    env = MarkovChain::random(rng, n);
  } else {
    server::SimulateSetup setup = server::simulate_setup(n, params);
    trace = std::move(setup.trace);
    source = std::move(setup.source);
    env = std::move(setup.env);
  }

  sim::SimulationOptions sopt = server::simulation_options(params, *env);
  sopt.idle_frames_budget = args.u64_or("idle-frames", ~std::uint64_t{0});

  std::vector<sim::SchemeRef> refs;
  refs.reserve(schemes.size());
  for (std::size_t i = 0; i < schemes.size(); ++i)
    refs.push_back(sim::SchemeRef{&schemes[i], &evals[i]});
  const std::vector<sim::SimulationResult> results = sim::simulate_schemes(
      design, refs, trace, sopt, job.partition.options.search.threads);

  std::vector<server::SimulatedScheme> rows;
  rows.reserve(schemes.size());
  for (std::size_t i = 0; i < schemes.size(); ++i)
    rows.push_back(server::SimulatedScheme{schemes[i].label,
                                           evals[i].total_frames,
                                           evals[i].worst_frames, results[i]});
  if (json_out) {
    // Same encoder as the server's `simulate` result payload, byte for byte.
    out << server::simulate_result_json(design, device_name, budget, params,
                                        source, trace.transitions(), rows)
               .dump()
        << "\n";
    return 0;
  }

  if (!device_name.empty()) out << "target device: " << device_name << "\n";
  out << "trace: " << source << ", " << with_commas(trace.transitions())
      << " transitions (seed " << params.seed << ")\n";
  for (const server::SimulatedScheme& row : rows) {
    const sim::SimulationResult& r = row.result;
    out << "\n" << row.label << ": " << with_commas(row.total_frames)
        << " total frames (Eq. 10), worst " << with_commas(row.worst_frames)
        << "\n";
    out << "  frames loaded: " << with_commas(r.frames_loaded) << " over "
        << with_commas(r.region_loads) << " region loads\n";
    out << "  latency p50/p95/p99/max: " << with_commas(r.p50_latency_ns)
        << " / " << with_commas(r.p95_latency_ns) << " / "
        << with_commas(r.p99_latency_ns) << " / "
        << with_commas(r.max_latency_ns) << " ns\n";
    out << "  total latency: " << with_commas(r.total_latency_ns / 1000)
        << " us over " << with_commas(r.makespan_ns / 1000)
        << " us of simulated time\n";
    if (params.prefetch)
      out << "  prefetched: " << with_commas(r.prefetched_frames)
          << " frames (useful " << r.useful_prefetches << ", wasted "
          << r.wasted_prefetches << ")\n";
  }
  return 0;
}

int cmd_bitstreams(const Args& args, std::ostream& out, std::ostream& err) {
  const Design design = read_design_arg(args);
  const DeviceLibrary lib = DeviceLibrary::extended();
  const server::TargetRun t = server::run_target(
      design, request_from(args, RequestType::Partition).partition, lib);
  if (!t.result.feasible) {
    err << server::does_not_fit(design, t.budget) << "\n";
    return 2;
  }
  const auto set =
      generate_bitstreams(design, t.result.base_partitions,
                          t.result.proposed.scheme, t.result.proposed.eval);
  out << set.size() << " partial bitstreams, " << with_commas(total_bytes(set))
      << " bytes total\n";
  if (const auto dir = args.value("out")) {
    std::filesystem::create_directories(*dir);
    const std::vector<std::filesystem::path> paths =
        write_bitstreams(*dir, set);
    for (std::size_t i = 0; i < set.size(); ++i)
      out << "  " << paths[i].string() << " (" << with_commas(set[i].bytes())
          << " bytes)\n";
  } else {
    for (const Bitstream& b : set)
      out << "  " << b.name << ": " << with_commas(b.bytes()) << " bytes ("
          << b.frames << " frames)\n";
  }
  return 0;
}

int cmd_flow(const Args& args, std::ostream& out, std::ostream& err) {
  const Design design = read_design_arg(args);
  const DeviceLibrary lib = DeviceLibrary::extended();
  const server::PartitionRequest target =
      request_from(args, RequestType::Partition).partition;

  FlowResult r;
  if (!target.device.empty()) {
    r = run_flow(design, lib.by_name(target.device), target.options);
  } else {
    r = run_flow_auto_device(design, lib, target.options);
  }
  if (!r.success) {
    err << "flow failed: " << r.failure_reason << "\n";
    return 2;
  }
  out << "device: " << r.device->name() << "\n";
  out << "feedback iterations: " << r.iterations << "\n";
  out << render_scheme_comparison(r.partitioning);
  out << "placement winner: scheme " << r.winner_source + 1
      << " of the Eq. 10 ranking\n";
  print_floorplan(out, *r.device, r.floorplan, r.partitioning.proposed.eval);
  const std::vector<Bitstream> bitstreams = generate_bitstreams(
      design, r.partitioning.base_partitions, r.partitioning.proposed.scheme,
      r.partitioning.proposed.eval);
  out << "bitstreams: " << bitstreams.size() << " ("
      << with_commas(total_bytes(bitstreams)) << " bytes)\n";

  if (const auto dir = args.value("out")) {
    std::filesystem::create_directories(*dir);
    const std::filesystem::path base(*dir);
    {
      std::ofstream f(base / "design.ucf", std::ios::binary);
      if (!f) throw ParseError("cannot write UCF into '" + *dir + "'");
      f << r.ucf;
    }
    write_bitstreams(base, bitstreams);
    out << "wrote design.ucf and " << bitstreams.size()
        << " .bit files to " << *dir << "\n";
  }
  return 0;
}

int cmd_optimal(const Args& args, std::ostream& out, std::ostream& err) {
  const Design design = read_design_arg(args);
  const DeviceLibrary lib = DeviceLibrary::extended();
  const server::PartitionRequest target =
      request_from(args, RequestType::Analyze).partition;
  ResourceVec budget;
  if (target.budget) {
    budget = *target.budget;
  } else if (!target.device.empty()) {
    budget = lib.by_name(target.device).capacity();
  } else {
    // The tile-rounded single-region footprint, as the device walk uses:
    // a device below it admits no PR scheme.
    const Device* d = lib.smallest_fitting(single_region_footprint(design));
    if (!d) {
      err << "design fits no library device\n";
      return 2;
    }
    budget = d->capacity();
    out << "using " << d->name() << "\n";
  }

  const ConnectivityMatrix matrix(design);
  const auto partitions = enumerate_base_partitions(design, matrix);
  const CompatibilityTable compat(matrix, partitions);
  OptimalOptions opt;
  opt.max_states = args.u64_or("states", 2'000'000);
  const OptimalResult r = optimal_mode_level_partitioning(
      design, matrix, partitions, compat, budget, opt);
  if (!r.feasible) {
    err << "no feasible mode-level assignment"
        << (r.exhausted ? " found within the state cap" : "") << "\n";
    return 2;
  }
  out << "exact mode-level optimum (" << with_commas(r.states_explored)
      << " states" << (r.exhausted ? ", cap hit - best effort" : "")
      << "):\n";
  out << "total reconfiguration: " << with_commas(r.eval.total_frames)
      << " frames, worst " << with_commas(r.eval.worst_frames) << "\n";
  out << render_scheme_partitions(design, partitions, r.scheme);
  return 0;
}

// Lock-free atomic rather than volatile sig_atomic_t: the signal may be
// delivered on any thread while cmd_serve's wait loop polls from another,
// so the flag needs both async-signal safety and thread safety.
std::atomic<int> g_serve_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);
void on_serve_signal(int) { g_serve_signal.store(1); }

/// `prpart serve --shards N`: fork N single-shard server processes (each
/// with its own port, store segment and job queue), then run the
/// consistent-hash front router in this process. Forking happens before any
/// thread exists in the parent, so the children start from a clean
/// single-threaded image.
int serve_sharded(server::ServerOptions opt, std::size_t shards,
                  std::ostream& err) {
  struct Shard {
    pid_t pid = -1;
    std::uint16_t port = 0;
  };
  std::vector<Shard> spawned;
  spawned.reserve(shards);
  const std::string store_root = opt.store_dir;
  for (std::size_t i = 0; i < shards; ++i) {
    int port_pipe[2];
    if (::pipe(port_pipe) != 0) throw Error("pipe() failed for shard spawn");
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: one ordinary shard server on an ephemeral port, reported to
      // the parent through the pipe. The inherited SIGINT/SIGTERM handler
      // flips the same flag, so a signal to the process group (Ctrl-C) and
      // the parent's explicit SIGTERM both drain gracefully.
      ::close(port_pipe[0]);
      int code = 0;
      try {
        server::ServerOptions copt = opt;
        copt.port = 0;
        if (!store_root.empty())
          copt.store_dir = store_root + "/shard-" + std::to_string(i);
        server::Server srv(copt);
        srv.start();
        const std::uint16_t port = srv.port();
        (void)!::write(port_pipe[1], &port, sizeof port);
        ::close(port_pipe[1]);
        while (g_serve_signal.load() == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        srv.stop();
      } catch (const std::exception& e) {
        err << "error: shard " << i << ": " << e.what() << "\n";
        ::close(port_pipe[1]);
        code = 1;
      }
      // _exit: never unwind the parent's CLI state from a forked child.
      ::_exit(code);
    }
    ::close(port_pipe[1]);
    std::uint16_t port = 0;
    const ssize_t got = ::read(port_pipe[0], &port, sizeof port);
    ::close(port_pipe[0]);
    if (pid < 0 || got != static_cast<ssize_t>(sizeof port)) {
      for (const Shard& s : spawned) ::kill(s.pid, SIGTERM);
      for (const Shard& s : spawned) ::waitpid(s.pid, nullptr, 0);
      throw Error("failed to spawn shard " + std::to_string(i));
    }
    spawned.push_back(Shard{pid, port});
  }

  server::RouterOptions ropt;
  ropt.port = opt.port;
  for (const Shard& s : spawned) ropt.shard_ports.push_back(s.port);
  ropt.log = &err;
  int code = 0;
  try {
    server::ShardRouter router(ropt);
    router.start();
    while (g_serve_signal.load() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    router.stop();
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    code = 1;
  }
  for (const Shard& s : spawned) ::kill(s.pid, SIGTERM);
  for (const Shard& s : spawned) {
    int status = 0;
    ::waitpid(s.pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) code = 1;
  }
  return code;
}

int cmd_serve(const Args& args, std::ostream&, std::ostream& err) {
  server::ServerOptions opt;
  opt.port = static_cast<std::uint16_t>(args.u64_or("port", 9797));
  opt.workers = static_cast<unsigned>(args.u64_or("workers", 2));
  opt.max_queue = args.u64_or("max-queue", 16);
  opt.high_watermark = args.u64_or("high-watermark", 0);
  opt.default_timeout_ms = args.u64_or("timeout", 0);
  opt.cache_entries = args.u64_or("cache", 256);
  opt.store_dir = args.value_or("store", "");
  opt.store_entries = args.u64_or("store-entries", 4096);
  opt.job_threads = static_cast<unsigned>(args.u64_or("job-threads", 1));
  opt.io_workers = static_cast<unsigned>(args.u64_or("io-workers", 2));
  opt.max_inflight_per_conn = args.u64_or("max-inflight", 64);
  opt.log = &err;
  opt.log_interval_ms = args.u64_or("log-interval", 10'000);

  // SIGTERM/SIGINT flip a flag the wait loop polls; the actual drain runs
  // on this thread, outside signal context. Installed before the listener
  // binds so a signal can never arrive with the default (fatal) disposition
  // while the server looks up.
  g_serve_signal.store(0);
  struct sigaction sa = {};
  sa.sa_handler = on_serve_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  if (const std::uint64_t shards = args.u64_or("shards", 0); shards >= 2)
    return serve_sharded(std::move(opt), static_cast<std::size_t>(shards),
                         err);

  server::Server srv(opt);
  srv.start();

  while (g_serve_signal.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  srv.stop();
  return 0;
}

/// Maps a server response onto the subcommand exit code: ok 0, client error
/// 1, infeasible 2, transient conditions (timeout, overloaded) 3.
int response_exit_code(const server::ClientResponse& resp) {
  if (resp.ok) return 0;
  if (resp.error_code == "infeasible") return 2;
  if (resp.error_code == "timeout" || resp.error_code == "overloaded") return 3;
  return 1;
}

server::Client connect_client(const Args& args) {
  return server::Client(args.value_or("host", "127.0.0.1"),
                        static_cast<std::uint16_t>(args.u64_or("port", 9797)));
}

std::string error_json(const server::ClientResponse& resp) {
  json::Value v = json::Value::object();
  v.set("code", json::Value(resp.error_code));
  v.set("message", json::Value(resp.error_message));
  return v.dump();
}

int cmd_submit(const Args& args, std::ostream& out, std::ostream& err) {
  server::PartitionRequest req =
      request_from(args, RequestType::Partition).partition;
  req.id = args.value_or("id", "cli");
  req.design_xml = read_file(args.positionals().at(1));

  server::Client client = connect_client(args);
  const server::ClientResponse resp = client.submit(req);
  if (args.has("json")) {
    (resp.ok ? out : err) << (resp.ok ? resp.raw_result : error_json(resp))
                          << "\n";
    return response_exit_code(resp);
  }
  if (!resp.ok) {
    err << "error [" << resp.error_code << "]: " << resp.error_message << "\n";
    return response_exit_code(resp);
  }
  const json::Value& r = resp.result;
  out << "design: " << r.at("design").as_string() << "\n";
  if (const json::Value* device = r.find("device"); device && device->is_string())
    out << "device: " << device->as_string() << "\n";
  const json::Value& proposed = r.at("proposed");
  out << "proposed: " << with_commas(proposed.at("total_frames").as_u64())
      << " total frames, worst "
      << with_commas(proposed.at("worst_frames").as_u64()) << " ("
      << proposed.at("regions").items().size() << " regions)\n";
  const json::Value& baselines = r.at("baselines");
  for (const char* name : {"modular", "single_region", "static"})
    out << name << ": "
        << with_commas(baselines.at(name).at("total_frames").as_u64())
        << " total frames\n";
  return 0;
}

int cmd_client_stats(const Args& args, std::ostream& out, std::ostream& err) {
  server::Client client = connect_client(args);
  const server::ClientResponse resp = client.stats();
  if (args.has("json")) {
    (resp.ok ? out : err) << (resp.ok ? resp.raw_result : error_json(resp))
                          << "\n";
    return response_exit_code(resp);
  }
  if (!resp.ok) {
    err << "error [" << resp.error_code << "]: " << resp.error_message << "\n";
    return response_exit_code(resp);
  }
  for (const auto& [key, value] : resp.result.members())
    out << key << ": " << value.dump() << "\n";
  return 0;
}

struct Command {
  std::string name;
  /// The request type whose declared fields it takes flags for, if any.
  std::optional<RequestType> request;
  std::vector<std::string> extras;  ///< its CLI-only flags
  bool needs_design = false;
  int (*run)(const Args&, std::ostream&, std::ostream&) = nullptr;
  bool served = false;       ///< it also takes the served-only fields' flags
  std::string without = {};  ///< a declared flag it refuses
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"devices", {}, {}, false, cmd_devices},
      {"analyze", RequestType::Analyze, {"json"}, true, cmd_analyze},
      {"lint", RequestType::Analyze, {"json"}, true, cmd_analyze},
      {"estimate", {}, {"luts", "ffs", "mults", "kbits", "distbits"}, false,
       cmd_estimate},
      {"generate", {}, {"seed", "class", "out"}, false, cmd_generate},
      {"partition", RequestType::Partition,
       {"floorplan", "ucf", "save", "search-stats", "json"}, true,
       cmd_partition},
      {"floorplan", RequestType::Floorplan, {"ucf", "json"}, true,
       cmd_floorplan},
      {"simulate", RequestType::Simulate,
       {"load", "trace", "rank", "idle-frames", "json"}, true, cmd_simulate},
      {"bitstreams", RequestType::Partition, {"out"}, true, cmd_bitstreams},
      // run_flow takes a device or walks the library; it has no budget mode.
      {"flow", RequestType::Partition, {"out"}, true, cmd_flow, false,
       "budget"},
      // The exact search takes a target but none of the greedy's effort.
      {"optimal", RequestType::Analyze, {"states"}, true, cmd_optimal},
      {"serve", {},
       {"port", "workers", "max-queue", "high-watermark", "timeout", "cache",
        "store", "store-entries", "job-threads", "io-workers", "max-inflight",
        "log-interval", "shards"},
       false, cmd_serve},
      {"submit", RequestType::Partition, {"host", "port", "id", "json"}, true,
       cmd_submit, true},
      {"stats", {}, {"host", "port", "json"}, false, cmd_client_stats},
  };
  return table;
}

const Command* find_command(const std::string& name) {
  for (const Command& c : commands())
    if (c.name == name) return &c;
  return nullptr;
}

std::vector<std::string> flags_of(const Command& command) {
  std::vector<std::string> flags;
  auto add = [&](const server::Field& f) {
    if (!f.flag.empty() && f.flag != command.without &&
        (command.served || !f.served))
      flags.emplace_back(f.flag);
  };
  if (command.request) server::request_fields(*command.request, add);
  flags.insert(flags.end(), command.extras.begin(), command.extras.end());
  return flags;
}

/// Every flag that takes no value: the declared bool fields' switches and
/// the CLI-only ones.
std::vector<std::string> switch_flags() {
  std::vector<std::string> switches = {"json", "search-stats", "rank",
                                       "floorplan"};
  auto add = [&](const server::Field& f, const auto& member) {
    if constexpr (std::is_same_v<std::decay_t<decltype(member)>, bool>)
      if (!f.flag.empty()) switches.emplace_back(f.flag);
  };
  for (const Command& c : commands())
    if (c.request)
      server::request_fields(*c.request, add, server::request_defaults());
  return switches;
}

}  // namespace

std::optional<std::vector<std::string>> command_flags(
    const std::string& command) {
  const Command* c = find_command(command);
  if (!c) return std::nullopt;
  return flags_of(*c);
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  try {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
      out << kUsage;
      return 0;
    }
    if (args[0] == "version" || args[0] == "--version") {
      out << "prpart 1.0.0\n";
      return 0;
    }
    const Args parsed(args, switch_flags());
    if (parsed.positionals().empty()) {
      err << "error: missing command\n" << kUsage;
      return 1;
    }
    const std::string& name = parsed.positionals().front();
    const Command* command = find_command(name);
    if (!command) {
      err << "unknown command '" << name << "'\n" << kUsage;
      return 1;
    }
    parsed.check_known(flags_of(*command));
    if (command->needs_design && parsed.positionals().size() < 2)
      throw ParseError("command '" + name + "' expects a design file");
    return command->run(parsed, out, err);
  } catch (const std::exception& e) {
    // Every Error, and anything below it (std::out_of_range from a missing
    // positional, bad_alloc, ...), exits non-zero instead of aborting.
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace prpart::cli
