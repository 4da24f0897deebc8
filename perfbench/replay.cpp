// In-process replay of the server's request path, on the same request lines
// the server received. Untraced it produces the expected answer of every
// request (the correctness gate); traced it also times every layer from
// outside, by wrapping the layers' public functions in spans.

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "core/clustering.hpp"
#include "core/compatibility.hpp"
#include "core/connectivity.hpp"
#include "core/eval_kernel.hpp"
#include "core/partitioner.hpp"
#include "core/schemes.hpp"
#include "design/io_xml.hpp"
#include "floorplan/rerank.hpp"
#include "perfbench.hpp"
#include "server/cache.hpp"
#include "server/hash.hpp"
#include "server/protocol.hpp"
#include "server/store.hpp"
#include "sim/simulator.hpp"
#include "util/clock.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace perfbench {

namespace srv = prpart::server;
using prpart::Design;

void ReplayCounters::add(const ReplayCounters& o) {
  requests += o.requests;
  line_cache_hits += o.line_cache_hits;
  partitions += o.partitions;
  escalated += o.escalated;
  move_evaluations += o.move_evaluations;
  kernel_evaluations += o.kernel_evaluations;
  units += o.units;
  units_pruned += o.units_pruned;
  moves_rescored += o.moves_rescored;
  full_evaluations += o.full_evaluations;
  budget_exhausted += o.budget_exhausted;
  searches += o.searches;
  floorplan_candidates += o.floorplan_candidates;
  floorplan_vetoes += o.floorplan_vetoes;
  floorplan_overturns += o.floorplan_overturns;
  transitions += o.transitions;
}

namespace {

/// The server's device library (Server::library_).
const prpart::DeviceLibrary& library() {
  static const prpart::DeviceLibrary lib = prpart::DeviceLibrary::extended();
  return lib;
}

/// What the server keeps across requests, sized as `prpart serve --cache N
/// [--store DIR]` sizes it.
struct LocalServer {
  LocalServer(std::size_t cache, const std::string& dir)
      : store(cache, dir, dir.empty() ? 0 : 4096), line_cache(cache) {}
  srv::ResultStore store;
  srv::ResultCache line_cache;
};

/// The final partition_design of a request again, stage by stage, with the
/// same calls partition_design makes: connectivity, clustering,
/// compatibility, the evaluation kernel (context plus baseline batch) and
/// the search. Its spans form a layer of their own ("stages"), so the
/// re-run is not counted as core work the server did.
void run_stages(const Design& design, const prpart::ResourceVec& budget,
                const prpart::PartitionerOptions& options, SpanLog* log,
                std::uint64_t rq, ReplayCounters& c) {
  const Span stages(log, "stages", rq);
  std::optional<prpart::ConnectivityMatrix> matrix;
  {
    const Span s(log, "stages.connectivity", rq);
    matrix.emplace(design);
  }
  std::vector<prpart::BasePartition> parts;
  {
    const Span s(log, "stages.clustering", rq);
    parts = prpart::enumerate_base_partitions(design, *matrix,
                                              options.max_partition_modes);
  }
  std::optional<prpart::CompatibilityTable> compat;
  {
    const Span s(log, "stages.compatibility", rq);
    compat.emplace(*matrix, parts);
  }
  std::optional<prpart::EvalContext> context;
  bool fits = false;
  {
    const Span s(log, "stages.eval_kernel", rq);
    context.emplace(design, *matrix, parts);
    prpart::EvalScratch scratch;
    const prpart::PartitionScheme modular =
        prpart::make_modular_scheme(design, *matrix, parts);
    const prpart::PartitionScheme fixed =
        prpart::make_static_scheme(design, *matrix, parts);
    const prpart::PartitionScheme* baselines[2] = {&modular, &fixed};
    prpart::SchemeEvaluation evals[2];
    context->evaluate_batch_into(baselines, 2, budget, scratch, evals);
    fits = prpart::single_region_scheme(design, *matrix, parts, budget)
               .second.fits;
  }
  if (!fits) return;
  prpart::SearchOptions so = options.search;
  so.eval_context = &*context;
  prpart::SearchResult sr;
  {
    const Span s(log, "stages.search", rq);
    sr = prpart::search_partitioning(design, *matrix, parts, *compat, budget,
                                     so);
  }
  ++c.searches;
  c.move_evaluations += sr.stats.move_evaluations;
  c.kernel_evaluations += sr.stats.kernel_evaluations;
  c.units += sr.stats.units;
  c.units_pruned += sr.stats.units_pruned;
  c.moves_rescored += sr.stats.moves_rescored;
  c.full_evaluations += sr.stats.full_evaluations;
  c.budget_exhausted += sr.stats.budget_exhausted ? 1 : 0;
}

/// One request through the server path (Server::handle_line, admit_job and
/// execute_job), returning its final answer in strip_id form. An ok
/// simulate answer also leaves the scheme it simulated in `simulated`.
std::string serve_one(const Template& t, const std::string& id,
                      LocalServer& ls, SpanLog* log, std::uint64_t rq,
                      bool stages, ReplayCounters& c,
                      std::optional<SimulateProposal>& simulated) {
  const Span root(log, "request", rq);
  ++c.requests;
  const std::string line_key = t.line_key();
  std::optional<std::string> hit;
  {
    const Span s(log, "store.line_cache", rq);
    hit = ls.line_cache.lookup(line_key);
  }
  if (hit) {
    ++c.line_cache_hits;
    const Span s(log, "protocol.encode", rq);
    return strip_id(srv::ok_response(id, *hit));
  }

  srv::Request req;
  {
    const Span s(log, "protocol.parse_request", rq);
    req = srv::parse_request(t.line(id));
  }
  const srv::PartitionRequest* pr = &req.partition;
  std::optional<srv::SimulateParams> sim;
  std::optional<srv::FloorplanParams> fp;
  if (req.type == srv::Request::Type::Simulate) {
    pr = &req.simulate.partition;
    sim = req.simulate.params;
  } else if (req.type == srv::Request::Type::Floorplan) {
    pr = &req.floorplan.partition;
    fp = req.floorplan.params;
  }
  prpart::require(pr->device.empty() && !pr->budget && !(sim && sim->floorplan),
                  "the benchmark only sends auto-device requests");
  Design design = [&] {
    const Span s(log, "design.from_xml", rq);
    return prpart::design_from_xml(pr->design_xml);
  }();
  prpart::PartitionerOptions options = pr->options;
  if (options.search.threads == 0) options.search.threads = 1;
  std::string target = pr->target_string();
  if (sim) target += ";" + sim->cache_string();
  if (fp) target += ";" + fp->cache_string();
  std::string key;
  {
    const Span s(log, "hash.job_cache_key", rq);
    key = srv::job_cache_key(design, target, options);
  }
  std::optional<std::string> stored;
  {
    const Span s(log, "store.lookup", rq);
    stored = ls.store.lookup(key);
  }
  if (stored) {
    ls.line_cache.store(line_key, *stored);
    const Span s(log, "protocol.encode", rq);
    return strip_id(srv::ok_response(id, *stored));
  }

  std::string response;
  std::string payload;
  try {
    prpart::DevicePartitionResult dp;
    {
      const Span s(log, "core.partitioner", rq);
      dp = prpart::partition_on_smallest_device(design, library(), options);
    }
    ++c.partitions;
    if (dp.escalated) ++c.escalated;
    const prpart::Device& device = *dp.device;
    const prpart::ResourceVec budget = device.capacity();
    if (stages) run_stages(design, budget, options, log, rq, c);
    const prpart::PartitionerResult& result = dp.result;
    if (!result.feasible)
      return strip_id(srv::error_response(
          id, srv::ErrorCode::Infeasible,
          "design does not fit the target (lower bound " +
              (design.largest_configuration_area() + design.static_base())
                  .to_string() +
              ", budget " + budget.to_string() + ")"));
    if (fp) {
      prpart::FloorplanRerank rerank;
      {
        const Span s(log, "floorplan.rerank", rq);
        rerank = prpart::floorplan_rerank(design, result, device, budget,
                                          fp->rerank_options(), &library());
      }
      c.floorplan_candidates += rerank.ranked.size();
      c.floorplan_vetoes += rerank.vetoed_count;
      c.floorplan_overturns += rerank.overturned ? 1 : 0;
      if (!rerank.any_feasible)
        return strip_id(srv::error_response(
            id, srv::ErrorCode::Infeasible,
            "no enumerated scheme has a legal floorplan on " + device.name()));
      const Span s(log, "protocol.encode", rq);
      payload = srv::floorplan_result_json(design, result, rerank,
                                           device.name(), budget)
                    .dump();
      response = srv::ok_response(id, payload);
    } else if (sim) {
      const prpart::SchemeEvaluation& eval = result.proposed.eval;
      std::optional<srv::SimulateSetup> setup;
      {
        const Span s(log, "sim.setup", rq);
        setup.emplace(
            srv::simulate_setup(design.configurations().size(), *sim));
      }
      prpart::sim::SimulationOptions sopt;
      sopt.prefetch = sim->prefetch;
      sopt.predictor = &setup->env;
      sopt.inter_arrival_ns = sim->inter_arrival_ns;
      prpart::sim::SimulationResult sr;
      {
        const Span s(log, "sim.replay", rq);
        sr = prpart::sim::simulate_scheme(design, result.proposed.scheme, eval,
                                          setup->trace, sopt);
      }
      c.transitions += sr.transitions;
      simulated = SimulateProposal{result.proposed.scheme,
                                   result.proposed_from_search};
      const Span s(log, "protocol.encode", rq);
      payload = srv::simulate_result_json(
                    design, device.name(), budget, *sim, setup->source,
                    setup->trace.transitions(),
                    {srv::SimulatedScheme{"proposed", eval.total_frames,
                                          eval.worst_frames, sr}})
                    .dump();
      response = srv::ok_response(id, payload);
    } else {
      const Span s(log, "protocol.encode", rq);
      payload =
          srv::partition_result_json(design, result, device.name(), budget)
              .dump();
      response = srv::ok_response(id, payload);
    }
  } catch (const prpart::DeviceError& e) {
    return strip_id(
        srv::error_response(id, srv::ErrorCode::Infeasible, e.what()));
  }
  {
    const Span s(log, "store.store", rq);
    ls.store.store(key, payload);
    ls.line_cache.store(line_key, payload);
  }
  return strip_id(response);
}

}  // namespace

ReplayResult replay(const Stream& stream,
                    const std::vector<std::size_t>& requests,
                    const ReplayOptions& options) {
  ReplayResult out;
  out.answers.resize(requests.size());
  out.simulated.resize(requests.size());
  const std::int64_t start_ns = prpart::monotonic_now_ns();
  library();  // built before the store is timed
  const std::int64_t ctor_ns = prpart::monotonic_now_ns();
  LocalServer ls(options.cache, options.store_dir);
  out.warm_start_ms =
      static_cast<double>(prpart::monotonic_now_ns() - ctor_ns) / 1e6;

  const unsigned threads = std::max(1u, options.threads);
  std::vector<ReplayCounters> counters(threads);
  if (options.traced)
    for (unsigned i = 0; i < threads; ++i)
      out.logs.push_back(std::make_unique<SpanLog>());
  std::atomic<std::size_t> next{0};
  const auto work = [&](unsigned w) {
    SpanLog* log = options.traced ? out.logs[w].get() : nullptr;
    for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
      try {
        out.answers[i] =
            serve_one(stream.tmpl(requests[i]), stream.id(i), ls, log, i + 1,
                      options.stages, counters[w], out.simulated[i]);
      } catch (const std::exception& e) {
        out.answers[i] = std::string("replay failed: ") + e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned w = 1; w < threads; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();
  for (const ReplayCounters& c : counters) out.counters.add(c);
  out.wall_s =
      static_cast<double>(prpart::monotonic_now_ns() - start_ns) / 1e9;
  return out;
}

// ------------------------------------------------------------ certification

namespace {

std::string labels_key(const std::vector<std::string>& labels) {
  std::string key;
  for (const std::string& l : labels) key += l + '\x1f';
  return key;
}

std::string partition_key(const Design& design,
                          const prpart::BasePartition& part) {
  std::vector<std::string> labels;
  for (const std::size_t id : part.modes.bits()) {
    const prpart::ModeRef ref = design.mode_ref(id);
    labels.push_back(design.modules()[ref.module].name + ":" +
                     design.mode_label(id));
  }
  std::sort(labels.begin(), labels.end());
  return labels_key(labels);
}

std::vector<std::string> string_list(const prpart::json::Value& v) {
  std::vector<std::string> out;
  for (const prpart::json::Value& item : v.items())
    out.push_back(item.as_string());
  return out;
}

/// Rebuilds the PartitionScheme a rendered scheme object describes.
prpart::PartitionScheme scheme_from_json(
    const prpart::json::Value& v, const std::map<std::string, std::size_t>& ids) {
  const auto id_of = [&](const prpart::json::Value& labels) {
    const auto it = ids.find(labels_key(string_list(labels)));
    if (it == ids.end())
      throw prpart::Error("answer names a partition the design does not have");
    return it->second;
  };
  prpart::PartitionScheme scheme;
  for (const prpart::json::Value& region : v.at("regions").items()) {
    prpart::Region r;
    for (const prpart::json::Value& labels : region.at("partitions").items())
      r.members.push_back(id_of(labels));
    scheme.regions.push_back(std::move(r));
  }
  for (const prpart::json::Value& labels : v.at("static").items())
    scheme.static_members.push_back(id_of(labels));
  return scheme;
}

}  // namespace

std::string certify(const Stream& stream, std::size_t tmpl,
                    const std::string& answer,
                    const std::optional<SimulateProposal>& simulated,
                    std::uint64_t& frames) {
  frames = 0;
  static const std::string kOk = ",\"ok\":true,\"result\":";
  if (answer.compare(0, kOk.size(), kOk) != 0) return "";  // infeasible
  try {
    const prpart::json::Value doc = prpart::json::parse(
        std::string_view(answer).substr(kOk.size(),
                                        answer.size() - kOk.size() - 1));
    const Template& t = stream.tmpl(tmpl);
    const Design& design = stream.design(t.design);
    const prpart::json::Value& b = doc.at("budget");
    const prpart::ResourceVec budget{
        static_cast<std::uint32_t>(b.at("clbs").as_u64()),
        static_cast<std::uint32_t>(b.at("brams").as_u64()),
        static_cast<std::uint32_t>(b.at("dsps").as_u64())};
    if (!(library().by_name(doc.at("device").as_string()).capacity() ==
          budget))
      return "budget is not the named device's capacity";

    const prpart::ConnectivityMatrix matrix(design);
    const std::vector<prpart::BasePartition> parts =
        prpart::enumerate_base_partitions(
            design, matrix,
            srv::default_partitioner_options().max_partition_modes);
    std::map<std::string, std::size_t> ids;
    for (std::size_t p = 0; p < parts.size(); ++p)
      ids.emplace(partition_key(design, parts[p]), p);
    const prpart::SchemeEvaluation single =
        prpart::single_region_scheme(design, matrix, parts, budget).second;

    // Re-evaluates a proposed scheme with the scalar reference; the
    // single-region fallback is not an evaluate_scheme input (see
    // single_region_scheme), so it is checked against that baseline.
    const auto reference = [&](const prpart::PartitionScheme& scheme,
                               bool from_search,
                               prpart::SchemeEvaluation& ref) -> std::string {
      if (!from_search) {
        ref = single;
        return "";
      }
      ref = prpart::evaluate_scheme_reference(design, matrix, parts, scheme,
                                              budget);
      if (!ref.valid) return "scheme invalid: " + ref.invalid_reason;
      if (!ref.fits) return "scheme does not fit its budget";
      return "";
    };
    // The same for a rendered scheme object.
    const auto rendered = [&](const prpart::json::Value& s,
                              prpart::SchemeEvaluation& ref) {
      const bool from_search = s.at("from_search").as_bool();
      return reference(
          from_search ? scheme_from_json(s, ids) : prpart::PartitionScheme{},
          from_search, ref);
    };
    // A served total/worst pair must be the reference's.
    const auto same_frames = [&](const prpart::json::Value& row,
                                 const prpart::SchemeEvaluation& ref) {
      if (row.at("total_frames").as_u64() != ref.total_frames)
        return std::string("reference total frames differ");
      if (row.at("worst_frames").as_u64() != ref.worst_frames)
        return std::string("reference worst-case frames differ");
      return std::string();
    };

    prpart::SchemeEvaluation ref;
    switch (t.kind) {
      case JobKind::Partition: {
        const prpart::json::Value& p = doc.at("proposed");
        if (std::string why = rendered(p, ref); !why.empty()) return why;
        if (std::string why = same_frames(p, ref); !why.empty()) return why;
        frames = ref.total_frames;
        break;
      }
      case JobKind::Floorplan: {
        const prpart::json::Value& w = doc.at("winner");
        const prpart::json::Value& top = doc.at("ranked").items().front();
        if (std::string why = rendered(w, ref); !why.empty()) return why;
        if (w.at("from_search").as_bool() &&
            top.at("estimated_total").as_u64() != ref.total_frames)
          return "reference total differs from the winner's estimate";
        frames = w.at("total_frames").as_u64();
        if (frames != top.at("placement_total").as_u64())
          return "winner frames are not its placement-true total";
        return "";
      }
      case JobKind::Simulate: {
        if (!simulated) return "no in-process scheme behind the simulate answer";
        const prpart::json::Value& row = doc.at("schemes").items().front();
        if (std::string why =
                reference(simulated->scheme, simulated->from_search, ref);
            !why.empty())
          return why;
        if (std::string why = same_frames(row, ref); !why.empty()) return why;
        if (row.at("transitions").as_u64() !=
            doc.at("trace").at("transitions").as_u64())
          return "replayed transitions differ from the trace";
        frames = ref.total_frames;
        break;
      }
    }
    if (frames > single.total_frames)
      return "proposed total frames exceed the single-region scheme's";
    return "";
  } catch (const std::exception& e) {
    return std::string("cannot certify the answer: ") + e.what();
  }
}

}  // namespace perfbench
