#include "server/protocol.hpp"

#include <algorithm>
#include <vector>

#include "util/status.hpp"

namespace prpart::server {

namespace {

json::Value resources_json(const ResourceVec& r) {
  json::Value v = json::Value::object();
  v.set("clbs", json::Value(static_cast<std::uint64_t>(r.clbs)));
  v.set("brams", json::Value(static_cast<std::uint64_t>(r.brams)));
  v.set("dsps", json::Value(static_cast<std::uint64_t>(r.dsps)));
  return v;
}

/// "Module:Mode" qualified label — mode names alone need not be unique
/// across modules.
std::string qualified_label(const Design& design, std::size_t global_id) {
  const ModeRef ref = design.mode_ref(global_id);
  return design.modules()[ref.module].name + ":" +
         design.mode_label(global_id);
}

/// A base partition as a sorted list of qualified mode labels. Label order
/// (not mode-id order) keeps the encoding identical for designs that differ
/// only in module/mode declaration order.
std::vector<std::string> partition_labels(const Design& design,
                                          const BasePartition& partition) {
  std::vector<std::string> labels;
  for (const std::size_t id : partition.modes.bits())
    labels.push_back(qualified_label(design, id));
  std::sort(labels.begin(), labels.end());
  return labels;
}

json::Value labels_json(const std::vector<std::string>& labels) {
  json::Value arr = json::Value::array();
  for (const std::string& l : labels) arr.push_back(json::Value(l));
  return arr;
}

json::Value scheme_json(const Design& design,
                        const std::vector<BasePartition>& partitions,
                        const PartitionScheme& scheme,
                        const SchemeEvaluation& eval) {
  json::Value v = json::Value::object();
  v.set("fits", json::Value(eval.fits));
  v.set("total_frames", json::Value(eval.total_frames));
  v.set("worst_frames", json::Value(eval.worst_frames));
  v.set("resources", resources_json(eval.total_resources));

  // Regions sorted by their member-label lists (with frames as tie-break),
  // so the rendering has one canonical form per semantic scheme.
  struct RegionRow {
    std::vector<std::vector<std::string>> members;
    std::uint64_t frames = 0;
  };
  std::vector<RegionRow> rows;
  for (std::size_t r = 0; r < scheme.regions.size(); ++r) {
    RegionRow row;
    for (const std::size_t member : scheme.regions[r].members)
      row.members.push_back(partition_labels(design, partitions[member]));
    std::sort(row.members.begin(), row.members.end());
    if (r < eval.regions.size()) row.frames = eval.regions[r].frames;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const RegionRow& a,
                                         const RegionRow& b) {
    if (a.members != b.members) return a.members < b.members;
    return a.frames < b.frames;
  });
  json::Value regions = json::Value::array();
  for (const RegionRow& row : rows) {
    json::Value region = json::Value::object();
    region.set("frames", json::Value(row.frames));
    json::Value members = json::Value::array();
    for (const auto& labels : row.members) members.push_back(labels_json(labels));
    region.set("partitions", members);
    regions.push_back(std::move(region));
  }
  v.set("regions", regions);

  std::vector<std::vector<std::string>> static_rows;
  for (const std::size_t member : scheme.static_members)
    static_rows.push_back(partition_labels(design, partitions[member]));
  std::sort(static_rows.begin(), static_rows.end());
  json::Value statics = json::Value::array();
  for (const auto& labels : static_rows) statics.push_back(labels_json(labels));
  v.set("static", statics);
  return v;
}

json::Value baseline_json(const SchemeSummary& summary) {
  json::Value v = json::Value::object();
  v.set("fits", json::Value(summary.eval.fits));
  v.set("total_frames", json::Value(summary.eval.total_frames));
  v.set("worst_frames", json::Value(summary.eval.worst_frames));
  v.set("resources", resources_json(summary.eval.total_resources));
  return v;
}

std::uint32_t parse_res_component(const json::Value& v) {
  const std::uint64_t raw = v.as_u64();
  if (raw > UINT32_MAX) throw ParseError("budget component out of range");
  return static_cast<std::uint32_t>(raw);
}

/// Rejects request fields outside `known`, mirroring Args::check_known on
/// the CLI.
template <std::size_t N>
void check_known_fields(const json::Value& doc, const char* (&known)[N]) {
  for (const auto& [key, value] : doc.members()) {
    (void)value;
    if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
          return key == k;
        }) == std::end(known))
      throw ParseError("unknown request field '" + key + "'");
  }
}

/// The design/target/effort/timeout core shared by partition and simulate
/// requests (the known-field check stays with each request type).
void parse_partition_fields(const json::Value& doc, PartitionRequest& p) {
  p.options = default_partitioner_options();
  p.design_xml = doc.at("design_xml").as_string();
  if (p.design_xml.empty()) throw ParseError("design_xml must not be empty");
  if (const json::Value* device = doc.find("device")) {
    p.device = device->as_string();
    if (p.device.empty()) throw ParseError("device must not be empty");
  }
  if (const json::Value* budget = doc.find("budget")) {
    const auto& items = budget->items();
    if (items.size() != 3)
      throw ParseError("budget must be a [clbs, brams, dsps] triple");
    p.budget = ResourceVec{parse_res_component(items[0]),
                           parse_res_component(items[1]),
                           parse_res_component(items[2])};
  }
  if (!p.device.empty() && p.budget)
    throw ParseError("device and budget are mutually exclusive");
  if (const json::Value* v = doc.find("candidate_sets"))
    p.options.search.max_candidate_sets = v->as_u64();
  if (const json::Value* v = doc.find("evals"))
    p.options.search.max_move_evaluations = v->as_u64();
  if (const json::Value* v = doc.find("threads"))
    p.options.search.threads = static_cast<unsigned>(v->as_u64());
  if (const json::Value* v = doc.find("timeout_ms")) p.timeout_ms = v->as_u64();
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::Infeasible: return "infeasible";
    case ErrorCode::Timeout: return "timeout";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::Internal: return "internal";
  }
  return "internal";
}

std::string PartitionRequest::target_string() const {
  if (!device.empty()) return "device " + device;
  if (budget)
    return "budget " + std::to_string(budget->clbs) + "," +
           std::to_string(budget->brams) + "," + std::to_string(budget->dsps);
  return "auto";
}

std::string SimulateParams::cache_string() const {
  return "simulate steps=" + std::to_string(steps) +
         " seed=" + std::to_string(seed) +
         " prefetch=" + (prefetch ? "1" : "0") +
         " uniform=" + (uniform ? "1" : "0") +
         " arrival=" + std::to_string(inter_arrival_ns) +
         " floorplan=" + (floorplan ? "1" : "0");
}

std::string FloorplanParams::cache_string() const {
  return "floorplan top_k=" + std::to_string(top_k) +
         " strategy=" + (first_fit ? "first-fit" : "best-fit") +
         " anneal=" + (anneal ? "1" : "0") +
         " anneal_seed=" + std::to_string(anneal_seed);
}

FloorplanRerankOptions FloorplanParams::rerank_options() const {
  FloorplanRerankOptions opt;
  opt.top_k = top_k;
  opt.placement.strategy =
      first_fit ? PlacementStrategy::FirstFit : PlacementStrategy::BestFit;
  opt.placement.use_annealer = anneal;
  opt.placement.annealing.seed = anneal_seed;
  return opt;
}

PartitionerOptions default_partitioner_options() {
  PartitionerOptions opt;
  opt.search.max_candidate_sets = 48;
  opt.search.max_move_evaluations = 2'000'000;
  return opt;
}

Request parse_request(const std::string& line) {
  const json::Value doc = json::parse(line);
  if (!doc.is_object()) throw ParseError("request must be a JSON object");

  Request req;
  if (const json::Value* id = doc.find("id")) req.id = id->as_string();

  const std::string& type = doc.at("type").as_string();
  if (type == "stats") {
    req.type = Request::Type::Stats;
    return req;
  }
  if (type == "ping") {
    req.type = Request::Type::Ping;
    return req;
  }
  if (type == "metrics") {
    req.type = Request::Type::Metrics;
    static const char* known[] = {"type", "id", "format"};
    check_known_fields(doc, known);
    if (const json::Value* format = doc.find("format")) {
      const std::string& f = format->as_string();
      if (f == "text")
        req.metrics_text = true;
      else if (f != "json")
        throw ParseError("format must be 'json' or 'text'");
    }
    return req;
  }
  if (type == "analyze") {
    req.type = Request::Type::Analyze;
    AnalyzeRequest& a = req.analyze;
    a.id = req.id;
    static const char* known[] = {"type", "id", "design_xml", "device",
                                  "budget"};
    for (const auto& [key, value] : doc.members()) {
      (void)value;
      if (std::find_if(std::begin(known), std::end(known), [&](const char* k) {
            return key == k;
          }) == std::end(known))
        throw ParseError("unknown request field '" + key + "'");
    }
    a.design_xml = doc.at("design_xml").as_string();
    if (a.design_xml.empty()) throw ParseError("design_xml must not be empty");
    if (const json::Value* device = doc.find("device")) {
      a.device = device->as_string();
      if (a.device.empty()) throw ParseError("device must not be empty");
    }
    if (const json::Value* budget = doc.find("budget")) {
      const auto& items = budget->items();
      if (items.size() != 3)
        throw ParseError("budget must be a [clbs, brams, dsps] triple");
      a.budget = ResourceVec{parse_res_component(items[0]),
                             parse_res_component(items[1]),
                             parse_res_component(items[2])};
    }
    if (!a.device.empty() && a.budget)
      throw ParseError("device and budget are mutually exclusive");
    return req;
  }
  if (type == "simulate") {
    req.type = Request::Type::Simulate;
    SimulateRequest& s = req.simulate;
    s.partition.id = req.id;
    static const char* known[] = {
        "type",    "id",         "design_xml", "device",
        "budget",  "candidate_sets", "evals",  "threads",
        "timeout_ms", "steps",   "seed",       "prefetch",
        "uniform", "inter_arrival_ns", "floorplan"};
    check_known_fields(doc, known);
    parse_partition_fields(doc, s.partition);
    if (const json::Value* v = doc.find("steps")) {
      s.params.steps = v->as_u64();
      if (s.params.steps == 0) throw ParseError("steps must be positive");
    }
    if (const json::Value* v = doc.find("seed")) s.params.seed = v->as_u64();
    if (const json::Value* v = doc.find("prefetch"))
      s.params.prefetch = v->as_bool();
    if (const json::Value* v = doc.find("uniform"))
      s.params.uniform = v->as_bool();
    if (const json::Value* v = doc.find("inter_arrival_ns"))
      s.params.inter_arrival_ns = v->as_u64();
    if (const json::Value* v = doc.find("floorplan"))
      s.params.floorplan = v->as_bool();
    return req;
  }
  if (type == "floorplan") {
    req.type = Request::Type::Floorplan;
    FloorplanRequest& f = req.floorplan;
    f.partition.id = req.id;
    static const char* known[] = {
        "type",   "id",     "design_xml",     "device",
        "budget", "candidate_sets", "evals",  "threads",
        "timeout_ms", "top_k", "strategy", "anneal", "anneal_seed"};
    check_known_fields(doc, known);
    parse_partition_fields(doc, f.partition);
    if (const json::Value* v = doc.find("top_k")) {
      f.params.top_k = v->as_u64();
      if (f.params.top_k == 0) throw ParseError("top_k must be positive");
    }
    if (const json::Value* v = doc.find("strategy")) {
      const std::string& s = v->as_string();
      if (s == "first-fit")
        f.params.first_fit = true;
      else if (s == "best-fit")
        f.params.first_fit = false;
      else
        throw ParseError("strategy must be 'first-fit' or 'best-fit'");
    }
    if (const json::Value* v = doc.find("anneal"))
      f.params.anneal = v->as_bool();
    if (const json::Value* v = doc.find("anneal_seed"))
      f.params.anneal_seed = v->as_u64();
    return req;
  }
  if (type != "partition") throw ParseError("unknown request type '" + type + "'");

  req.type = Request::Type::Partition;
  PartitionRequest& p = req.partition;
  p.id = req.id;

  // Unknown fields fail loudly, mirroring Args::check_known on the CLI.
  static const char* known[] = {"type",    "id",      "design_xml",
                                "device",  "budget",  "candidate_sets",
                                "evals",   "threads", "timeout_ms"};
  check_known_fields(doc, known);
  parse_partition_fields(doc, p);
  return req;
}

json::Value partition_result_json(const Design& design,
                                  const PartitionerResult& result,
                                  const std::string& device_name,
                                  const ResourceVec& budget) {
  json::Value v = json::Value::object();
  v.set("design", json::Value(design.name()));
  v.set("feasible", json::Value(result.feasible));
  v.set("device",
        device_name.empty() ? json::Value() : json::Value(device_name));
  v.set("budget", resources_json(budget));
  if (result.feasible) {
    json::Value proposed = scheme_json(design, result.base_partitions,
                                       result.proposed.scheme,
                                       result.proposed.eval);
    proposed.set("from_search", json::Value(result.proposed_from_search));
    v.set("proposed", std::move(proposed));
  } else {
    v.set("proposed", json::Value());
    v.set("lower_bound",
          resources_json(design.largest_configuration_area() +
                         design.static_base()));
  }
  json::Value baselines = json::Value::object();
  baselines.set("modular", baseline_json(result.modular));
  baselines.set("single_region", baseline_json(result.single_region));
  baselines.set("static", baseline_json(result.static_impl));
  v.set("baselines", baselines);

  // Deterministic core of the stats only: units_replayed and the cache
  // numbers vary with thread interleaving and would break the byte-identity
  // contract between runs with different --threads.
  json::Value stats = json::Value::object();
  stats.set("move_evaluations", json::Value(result.stats.move_evaluations));
  stats.set("candidate_sets",
            json::Value(static_cast<std::uint64_t>(result.stats.candidate_sets)));
  stats.set("greedy_runs",
            json::Value(static_cast<std::uint64_t>(result.stats.greedy_runs)));
  stats.set("states_recorded", json::Value(result.stats.states_recorded));
  stats.set("units",
            json::Value(static_cast<std::uint64_t>(result.stats.units)));
  stats.set("units_pruned",
            json::Value(static_cast<std::uint64_t>(result.stats.units_pruned)));
  stats.set("units_pruned_sterile",
            json::Value(static_cast<std::uint64_t>(
                result.stats.units_pruned_sterile)));
  stats.set("bound_gap_sum", json::Value(result.stats.bound_gap_sum));
  stats.set("bound_lb_sum", json::Value(result.stats.bound_lb_sum));
  stats.set("bound_best_sum", json::Value(result.stats.bound_best_sum));
  stats.set("kernel_evaluations",
            json::Value(result.stats.kernel_evaluations));
  stats.set("signature_collapsed_configs",
            json::Value(result.stats.signature_collapsed_configs));
  stats.set("budget_exhausted", json::Value(result.stats.budget_exhausted));
  v.set("stats", stats);
  return v;
}

json::Value floorplan_result_json(const Design& design,
                                  const PartitionerResult& result,
                                  const FloorplanRerank& rerank,
                                  const std::string& device_name,
                                  const ResourceVec& budget) {
  json::Value v = json::Value::object();
  v.set("design", json::Value(design.name()));
  v.set("feasible", json::Value(rerank.any_feasible));
  v.set("device",
        device_name.empty() ? json::Value() : json::Value(device_name));
  v.set("budget", resources_json(budget));
  v.set("candidates",
        json::Value(static_cast<std::uint64_t>(rerank.ranked.size())));
  v.set("vetoed", json::Value(static_cast<std::uint64_t>(rerank.vetoed_count)));
  v.set("overturned", json::Value(rerank.overturned));
  v.set("winner_source",
        rerank.any_feasible
            ? json::Value(static_cast<std::uint64_t>(rerank.winner_source))
            : json::Value());

  // Candidates in placement-true rank order (vetoed candidates trail).
  // Rectangles are listed in scheme-region order; region indices, rows and
  // columns are all deterministic, so the rendering is byte-identical for
  // every thread count the search ran with.
  json::Value ranked = json::Value::array();
  for (const FloorplanCandidate& cand : rerank.ranked) {
    json::Value row = json::Value::object();
    row.set("source_index",
            json::Value(static_cast<std::uint64_t>(cand.source_index)));
    row.set("vetoed", json::Value(cand.vetoed));
    row.set("stage", json::Value(std::string(to_string(cand.plan.stage))));
    row.set("estimated_total", json::Value(cand.estimated_total));
    if (!cand.vetoed) {
      row.set("placement_total", json::Value(cand.placement_total));
      row.set("placement_worst", json::Value(cand.placement_worst));
      row.set("waste_frames", json::Value(cand.plan.stats.waste_frames));
      json::Value rects = json::Value::array();
      for (std::size_t r = 0; r < cand.plan.placements.size(); ++r) {
        const RegionPlacement& p = cand.plan.placements[r];
        json::Value rect = json::Value::object();
        rect.set("region", json::Value(static_cast<std::uint64_t>(r)));
        rect.set("row", json::Value(static_cast<std::uint64_t>(p.row)));
        rect.set("height", json::Value(static_cast<std::uint64_t>(p.height)));
        rect.set("col", json::Value(static_cast<std::uint64_t>(p.col)));
        rect.set("width", json::Value(static_cast<std::uint64_t>(p.width)));
        rect.set("frames", json::Value(cand.plan.placed_frames[r]));
        rects.push_back(std::move(rect));
      }
      row.set("placements", std::move(rects));
    } else {
      json::Value diags = json::Value::array();
      for (const analysis::Diagnostic& d : cand.plan.verdict.diagnostics) {
        json::Value item = json::Value::object();
        item.set("severity",
                 json::Value(std::string(analysis::to_string(d.severity))));
        item.set("code", json::Value(d.code));
        item.set("message", json::Value(d.message));
        if (!d.fixit.empty()) item.set("fixit", json::Value(d.fixit));
        diags.push_back(std::move(item));
      }
      row.set("diagnostics", std::move(diags));
    }
    ranked.push_back(std::move(row));
  }
  v.set("ranked", std::move(ranked));

  if (rerank.any_feasible) {
    // The canonical scheme rendering of the placement-true winner; its
    // region/total/worst frame counts are the placed values.
    const FloorplanCandidate& winner = rerank.ranked.front();
    json::Value scheme = scheme_json(design, result.base_partitions,
                                     winner.scheme, winner.eval);
    scheme.set("from_search", json::Value(result.proposed_from_search));
    v.set("winner", std::move(scheme));
  } else {
    v.set("winner", json::Value());
  }
  return v;
}

SimulateSetup simulate_setup(std::size_t configs, const SimulateParams& params) {
  require(configs >= 2, "simulation needs at least two configurations");
  // The chain is sampled before the trace so the trace consumes the Rng
  // stream after it: one seed pins both.
  Rng rng(params.seed);
  MarkovChain env = MarkovChain::random(rng, configs);
  if (params.uniform)
    return SimulateSetup{std::move(env), sim::uniform_pair_trace(configs),
                         "uniform"};
  sim::TransitionTrace trace = sim::markov_trace(env, rng, params.steps);
  return SimulateSetup{std::move(env), std::move(trace), "markov"};
}

json::Value simulate_result_json(const Design& design,
                                 const std::string& device_name,
                                 const ResourceVec& budget,
                                 const SimulateParams& params,
                                 const std::string& trace_source,
                                 std::uint64_t trace_transitions,
                                 const std::vector<SimulatedScheme>& schemes) {
  json::Value v = json::Value::object();
  v.set("design", json::Value(design.name()));
  v.set("device",
        device_name.empty() ? json::Value() : json::Value(device_name));
  v.set("budget", resources_json(budget));

  json::Value trace = json::Value::object();
  trace.set("source", json::Value(trace_source));
  trace.set("transitions", json::Value(trace_transitions));
  trace.set("seed", json::Value(params.seed));
  v.set("trace", trace);

  json::Value options = json::Value::object();
  options.set("prefetch", json::Value(params.prefetch));
  options.set("inter_arrival_ns", json::Value(params.inter_arrival_ns));
  options.set("floorplan", json::Value(params.floorplan));
  v.set("options", options);

  json::Value rows = json::Value::array();
  for (const SimulatedScheme& s : schemes) {
    const sim::SimulationResult& r = s.result;
    json::Value row = json::Value::object();
    row.set("label", json::Value(s.label));
    row.set("total_frames", json::Value(s.total_frames));
    row.set("worst_frames", json::Value(s.worst_frames));
    row.set("transitions", json::Value(r.transitions));
    row.set("frames_loaded", json::Value(r.frames_loaded));
    row.set("region_loads", json::Value(r.region_loads));
    row.set("prefetched_frames", json::Value(r.prefetched_frames));
    row.set("useful_prefetches", json::Value(r.useful_prefetches));
    row.set("wasted_prefetches", json::Value(r.wasted_prefetches));
    row.set("total_latency_ns", json::Value(r.total_latency_ns));
    row.set("p50_latency_ns", json::Value(r.p50_latency_ns));
    row.set("p95_latency_ns", json::Value(r.p95_latency_ns));
    row.set("p99_latency_ns", json::Value(r.p99_latency_ns));
    row.set("max_latency_ns", json::Value(r.max_latency_ns));
    row.set("makespan_ns", json::Value(r.makespan_ns));
    // Deterministic despite being a double: simulated time over simulated
    // transitions, fixed %.17g rendering.
    row.set("transitions_per_second", json::Value(r.transitions_per_second));
    rows.push_back(std::move(row));
  }
  v.set("schemes", rows);
  return v;
}

std::string ok_response(const std::string& id, const std::string& result_json) {
  return "{\"id\":" + json::escape(id) + ",\"ok\":true,\"result\":" +
         result_json + "}";
}

std::string error_response(const std::string& id, ErrorCode code,
                           const std::string& message) {
  json::Value err = json::Value::object();
  err.set("code", json::Value(std::string(error_code_name(code))));
  err.set("message", json::Value(message));
  return "{\"id\":" + json::escape(id) + ",\"ok\":false,\"error\":" +
         err.dump() + "}";
}

std::string queued_response(const std::string& id, std::size_t position,
                            std::uint64_t eta_ms) {
  json::Value q = json::Value::object();
  q.set("position", json::Value(static_cast<std::uint64_t>(position)));
  q.set("eta_ms", json::Value(eta_ms));
  return "{\"id\":" + json::escape(id) + ",\"queued\":" + q.dump() + "}";
}

json::Value metrics_json(const StatsSnapshot& snapshot,
                         const MetricsExtra& extra) {
  json::Value v = json::Value::object();
  json::Value srv = json::Value::object();
  srv.set("connections", json::Value(extra.connections));
  srv.set("connections_total", json::Value(extra.connections_total));
  srv.set("admission_depth", json::Value(extra.admission_depth));
  v.set("server", srv);
  v.set("jobs", snapshot.to_json());
  json::Value store = json::Value::object();
  store.set("ram_entries", json::Value(extra.ram_entries));
  store.set("ram_evictions", json::Value(extra.ram_evictions));
  store.set("disk_enabled", json::Value(extra.disk_enabled));
  store.set("disk_entries", json::Value(extra.disk_entries));
  store.set("disk_bytes", json::Value(extra.disk_bytes));
  store.set("disk_hits", json::Value(extra.disk_hits));
  store.set("disk_writes", json::Value(extra.disk_writes));
  store.set("disk_evictions", json::Value(extra.disk_evictions));
  v.set("store", store);
  return v;
}

namespace {

/// Flattens the numeric/boolean leaves of the metrics document into
/// exposition lines.
void append_metric_lines(const json::Value& node, const std::string& prefix,
                         std::string& out) {
  for (const auto& [key, value] : node.members()) {
    const std::string path = prefix.empty() ? key : prefix + "_" + key;
    if (value.is_object()) {
      append_metric_lines(value, path, out);
    } else if (value.is_bool()) {
      out += "prpart_" + path + " " + (value.as_bool() ? "1" : "0") + "\n";
    } else if (value.is_number()) {
      out += "prpart_" + path + " " + value.dump() + "\n";
    }
  }
}

}  // namespace

std::string metrics_text(const StatsSnapshot& snapshot,
                         const MetricsExtra& extra) {
  std::string out;
  append_metric_lines(metrics_json(snapshot, extra), "", out);
  return out;
}

}  // namespace prpart::server
