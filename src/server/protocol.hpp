#pragma once

#include <concepts>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/partitioner.hpp"
#include "design/design.hpp"
#include "floorplan/rerank.hpp"
#include "server/stats.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"

namespace prpart::server {

/// Typed protocol error codes (docs/protocol.md). The wire form is the
/// snake_case name.
enum class ErrorCode {
  BadRequest,   ///< malformed JSON, unknown type, invalid design/arguments
  Infeasible,   ///< the design fits no target (partitioner lower bound)
  Timeout,      ///< the job's deadline fired before the search finished
  Overloaded,   ///< admission control rejected the job (queue full/draining)
  Internal,     ///< unexpected server-side failure
};

const char* error_code_name(ErrorCode code);

/// How a declared request field is checked. The wire and the CLI raise the
/// same error text, spelled with the field's wire name or its `--flag`.
enum class Rule {
  kNone,
  kRequired,  ///< a string that must be present and non-empty (the CLI
              ///< takes these as positionals, not flags)
  kNonEmpty,  ///< a string that may be absent but not empty
  kPositive,  ///< a count that must be at least 1
};

/// One word a bool field is spelled as on the wire and in the cache key.
struct Choice {
  std::string_view name;
  bool value = false;
};

inline constexpr Choice kStrategyChoices[] = {{"first-fit", true},
                                              {"best-fit", false}};
inline constexpr Choice kFormatChoices[] = {{"json", false}, {"text", true}};

/// One request field, declared once. The wire parser, the Client encoder,
/// the CLI's flags and the cache strings all derive from these entries
/// (DESIGN.md, "One request schema").
///
/// A group of fields is a `static void *fields(V& v, R&... r)` template
/// whose entries each call `v(field, r.member...)`, so a visitor sees the
/// members of no request (names only), one (parse, cache string) or two
/// (encode against the defaults, compare). A member is a std::string, a
/// Count, a bool or a std::optional<ResourceVec>. A bool field's CLI flag
/// is a switch that turns its default over.
struct Field {
  std::string_view wire = {};  ///< JSON member name
  std::string_view flag = {};  ///< CLI flag without "--"; empty = wire only
  /// Name in the job's cache key; empty = the field does not change the
  /// answer. cache_string() prints `cache=value` for the params halves; the
  /// partition half reaches the key through target_string() and
  /// job_cache_key, whose pinned formats are their own.
  std::string_view cache = {};
  Rule rule = Rule::kNone;
  /// A bool sent as one of these words, listed as its error lists them.
  std::span<const Choice> choices = {};
  /// A field this one cannot be given with (its wire name and its flag).
  std::string_view excludes = {};
  bool served = false;  ///< read by served jobs only: `submit` alone takes
                        ///< its flag
};

/// An unsigned count member of a request (a bool is not one).
template <class T>
concept Count = std::unsigned_integral<T> &&
                !std::same_as<std::remove_cv_t<T>, bool>;

/// The checks both sides share, so both raise the same text: `name` spells
/// the field ("steps" on the wire, "--steps" on the CLI). check_excludes
/// throws when `other_given`; `prefix` is "" or "--".
void check_rule(const Field& field, std::string_view name,
                std::string_view value);
void check_rule(const Field& field, std::string_view name,
                std::uint64_t value);
void check_excludes(const Field& field, std::string_view prefix,
                    bool other_given);

/// One `partition` job as received on the wire. `analyze` jobs use its
/// target half alone.
struct PartitionRequest {
  std::string id;          ///< client-chosen correlation id, echoed back
  std::string design_xml;  ///< the design in the tool's XML input format
  std::string device;      ///< named target device; empty = none
  std::optional<ResourceVec> budget;  ///< explicit budget; overrides nothing:
                                      ///< device and budget are exclusive
  PartitionerOptions options;         ///< effort knobs (defaults as the CLI)
  std::uint64_t timeout_ms = 0;       ///< per-job deadline; 0 = server default

  /// Target identity for the cache key: "device <name>", "budget c,b,d" or
  /// "auto" (smallest-device walk).
  std::string target_string() const;

  /// The target half: the design and what it must fit.
  template <class V, class... R>
  static void target_fields(V& v, R&... r) {
    v(Field{.wire = "design_xml", .cache = "design", .rule = Rule::kRequired},
      r.design_xml...);
    v(Field{.wire = "device", .flag = "device", .cache = "device",
            .rule = Rule::kNonEmpty},
      r.device...);
    v(Field{.wire = "budget", .flag = "budget", .cache = "budget",
            .excludes = "device"},
      r.budget...);
  }

  /// The effort half: the search's knobs and the job's deadline. Any
  /// thread count returns byte-identical schemes, so `threads` stays out
  /// of the key.
  template <class V, class... R>
  static void effort_fields(V& v, R&... r) {
    v(Field{.wire = "candidate_sets", .flag = "candidate-sets",
            .cache = "candidate_sets"},
      r.options.search.max_candidate_sets...);
    v(Field{.wire = "evals", .flag = "evals", .cache = "evals"},
      r.options.search.max_move_evaluations...);
    v(Field{.wire = "threads", .flag = "threads"}, r.options.search.threads...);
    v(Field{.wire = "timeout_ms", .flag = "timeout", .served = true},
      r.timeout_ms...);
  }
};

/// Simulation knobs of a `simulate` job, shared verbatim between the server
/// request and `prpart simulate`. The replay is a pure function of these
/// plus the design and target, which is what makes simulate jobs cacheable.
struct SimulateParams {
  std::uint64_t steps = 100'000;  ///< Markov-trace transitions to replay
  std::uint64_t seed = 1;         ///< environment-chain + trace seed
  bool prefetch = false;          ///< Markov-predicted prefetching on
  bool uniform = false;  ///< replay the Eulerian all-pairs trace instead
  std::uint64_t inter_arrival_ns = 0;  ///< 0 = closed loop (see sim)
  /// Floorplan the proposed scheme first and replay against placement-true
  /// frame counts (vetoed schemes make the job infeasible).
  bool floorplan = false;

  /// Canonical form folded into the job cache key next to the target.
  std::string cache_string() const;

  template <class V, class... P>
  static void fields(V& v, P&... p) {
    v(Field{.wire = "steps", .flag = "steps", .cache = "steps",
            .rule = Rule::kPositive},
      p.steps...);
    v(Field{.wire = "seed", .flag = "seed", .cache = "seed"}, p.seed...);
    v(Field{.wire = "prefetch", .flag = "prefetch", .cache = "prefetch"},
      p.prefetch...);
    v(Field{.wire = "uniform", .flag = "uniform", .cache = "uniform"},
      p.uniform...);
    v(Field{.wire = "inter_arrival_ns", .flag = "arrival-ns",
            .cache = "arrival"},
      p.inter_arrival_ns...);
    v(Field{.wire = "floorplan", .flag = "floorplan", .cache = "floorplan"},
      p.floorplan...);
  }
};

/// One `simulate` job: partition the design (exactly as a `partition` job
/// would), then replay a transition workload against the proposed scheme.
struct SimulateRequest {
  PartitionRequest partition;  ///< design/target/effort/timeout core
  SimulateParams params;
};

/// Floorplan knobs of a `floorplan` job, shared verbatim between the server
/// request and `prpart floorplan`. Like SimulateParams, the veto/re-rank
/// stage is a pure function of these plus the design and target, which is
/// what makes floorplan jobs cacheable.
struct FloorplanParams {
  std::size_t top_k = 5;  ///< enumerated schemes to floorplan (>= 1)
  bool first_fit = false;  ///< greedy rung strategy: first-fit, not best-fit
  bool anneal = true;      ///< run the annealing refinement rung
  std::uint64_t anneal_seed = 1;  ///< RNG seed of that rung

  /// Canonical form folded into the job cache key next to the target.
  std::string cache_string() const;
  /// The same knobs in the floorplan subsystem's vocabulary.
  FloorplanRerankOptions rerank_options() const;

  template <class V, class... P>
  static void fields(V& v, P&... p) {
    v(Field{.wire = "top_k", .flag = "top-k", .cache = "top_k",
            .rule = Rule::kPositive},
      p.top_k...);
    v(Field{.wire = "strategy", .flag = "first-fit", .cache = "strategy",
            .choices = kStrategyChoices},
      p.first_fit...);
    v(Field{.wire = "anneal", .flag = "no-anneal", .cache = "anneal"},
      p.anneal...);
    v(Field{.wire = "anneal_seed", .flag = "anneal-seed",
            .cache = "anneal_seed"},
      p.anneal_seed...);
  }
};

/// One `floorplan` job: partition the design (exactly as a `partition` job
/// would), then floorplan the top-K enumerated schemes and re-rank them by
/// placement-true Eq. 10 cost.
struct FloorplanRequest {
  PartitionRequest partition;  ///< design/target/effort/timeout core
  FloorplanParams params;
};

struct Request {
  enum class Type {
    Partition,
    Analyze,
    Simulate,
    Floorplan,
    Stats,
    Ping,
    Metrics,
  };
  Type type = Type::Ping;
  std::string id;
  /// Partition: the whole job. Analyze: its target half.
  PartitionRequest partition;
  SimulateRequest simulate;    ///< meaningful when type == Simulate
  FloorplanRequest floorplan;  ///< meaningful when type == Floorplan
  bool metrics_text = false;   ///< Metrics: text exposition format requested

  template <class V, class... R>
  static void metrics_fields(V& v, R&... r) {
    v(Field{.wire = "format", .choices = kFormatChoices}, r.metrics_text...);
  }
};

/// Visits every field a request of `type` declares, in wire order, with
/// its member in each of `q` (none: names only).
template <class V, class... Q>
void request_fields(Request::Type type, V& v, Q&... q) {
  switch (type) {
    case Request::Type::Stats:
    case Request::Type::Ping:
      return;
    case Request::Type::Metrics:
      return Request::metrics_fields(v, q...);
    case Request::Type::Analyze:
      return PartitionRequest::target_fields(v, q.partition...);
    case Request::Type::Partition:
      PartitionRequest::target_fields(v, q.partition...);
      return PartitionRequest::effort_fields(v, q.partition...);
    case Request::Type::Simulate:
      PartitionRequest::target_fields(v, q.simulate.partition...);
      PartitionRequest::effort_fields(v, q.simulate.partition...);
      return SimulateParams::fields(v, q.simulate.params...);
    case Request::Type::Floorplan:
      PartitionRequest::target_fields(v, q.floorplan.partition...);
      PartitionRequest::effort_fields(v, q.floorplan.partition...);
      return FloorplanParams::fields(v, q.floorplan.params...);
  }
}

/// Every field at its default, with default_partitioner_options() as each
/// job's effort: what a request assumes for a field it leaves out.
const Request& request_defaults();

/// The target part of a job's cache key: target_string(), then the
/// cache_string() of the job's params half, if it has one, after a ';'.
std::string job_target(const PartitionRequest& request,
                       const std::optional<SimulateParams>& simulate,
                       const std::optional<FloorplanParams>& floorplan);

/// Parses one newline-delimited request. Throws ParseError on malformed
/// JSON, an unknown `type`, conflicting target fields or bad option values;
/// the server maps that to a `bad_request` response.
Request parse_request(const std::string& line);

/// The wire form of `request`: `type`, `id`, then every declared field that
/// differs from request_defaults() (a required one always).
json::Value request_json(const Request& request);

/// Effort defaults shared by `prpart partition`, `prpart submit` and the
/// server, so the same submission produces the same work everywhere.
PartitionerOptions default_partitioner_options();

/// The single scheme/stats encoder shared by the server and the CLI's
/// `--json` output (the byte-identity contract of the integration tests).
///
/// Regions and partitions are rendered as sorted mode-name lists and only
/// the deterministic core of SearchStats is included, so the encoding is
/// identical for every thread count and for designs that differ only in
/// module/mode/configuration declaration order.
json::Value partition_result_json(const Design& design,
                                  const PartitionerResult& result,
                                  const std::string& device_name,
                                  const ResourceVec& budget);

/// The single floorplan-result encoder shared by the server's `floorplan`
/// response and the CLI's `prpart floorplan --json` output, byte for byte —
/// the same contract as partition_result_json. Candidates are rendered in
/// placement-true rank order with their rectangles in scheme-region order;
/// vetoed candidates carry their verdict diagnostics. The winner additionally
/// gets the canonical scheme rendering with placement-true frame counts.
json::Value floorplan_result_json(const Design& design,
                                  const PartitionerResult& result,
                                  const FloorplanRerank& rerank,
                                  const std::string& device_name,
                                  const ResourceVec& budget);

/// The workload a SimulateParams describes, materialised: the environment
/// chain (also the prefetch predictor) and the transition trace. Shared by
/// the server worker and `prpart simulate` so both replay the exact same
/// transitions for the same params — the byte-identity contract again.
struct SimulateSetup {
  MarkovChain env;
  sim::TransitionTrace trace;
  std::string source;  ///< "markov" or "uniform"
};

/// Builds the chain/trace for `configs` configurations (requires >= 2).
SimulateSetup simulate_setup(std::size_t configs, const SimulateParams& params);

/// One simulated scheme row for the shared simulate encoder.
struct SimulatedScheme {
  std::string label;
  std::uint64_t total_frames = 0;  ///< the scheme's Eq. 10 sum
  std::uint64_t worst_frames = 0;  ///< the scheme's Eq. 11 worst pair
  sim::SimulationResult result;
};

/// The single simulate-result encoder shared by the server's `simulate`
/// response and the CLI's `prpart simulate --json` output, byte for byte —
/// the same contract as partition_result_json. `trace_source` names where
/// the transitions came from ("markov", "uniform" or "file").
json::Value simulate_result_json(const Design& design,
                                 const std::string& device_name,
                                 const ResourceVec& budget,
                                 const SimulateParams& params,
                                 const std::string& trace_source,
                                 std::uint64_t trace_transitions,
                                 const std::vector<SimulatedScheme>& schemes);

/// Response envelopes. `result_json` is spliced verbatim so a cache hit
/// reproduces the cold response byte for byte.
std::string ok_response(const std::string& id, const std::string& result_json);
std::string error_response(const std::string& id, ErrorCode code,
                           const std::string& message);

/// Interim backpressure notice (not a final response; it has no `ok`
/// field): the job was admitted into the soft band above `max_queue`, at
/// `position` in the queue with a rough completion estimate. The final
/// response for the same `id` follows later on the same connection.
std::string queued_response(const std::string& id, std::size_t position,
                            std::uint64_t eta_ms);

/// Everything the `metrics` request reports beyond the StatsSnapshot:
/// event-loop and store gauges owned by the server, not by ServerStats.
struct MetricsExtra {
  std::uint64_t connections = 0;       ///< currently open
  std::uint64_t connections_total = 0; ///< accepted over the lifetime
  std::uint64_t admission_depth = 0;   ///< framed lines awaiting admission
  std::uint64_t ram_entries = 0;
  std::uint64_t ram_evictions = 0;     ///< RAM entries spilled/discarded
  bool disk_enabled = false;
  std::uint64_t disk_entries = 0;
  std::uint64_t disk_bytes = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t disk_evictions = 0;
};

/// The scrapeable metrics document (docs/protocol.md, `metrics`): the full
/// stats snapshot under "jobs" plus server/store gauges. Keys are stable —
/// check_invariants.py ties every one of them to the protocol docs.
json::Value metrics_json(const StatsSnapshot& snapshot,
                         const MetricsExtra& extra);

/// Text exposition of the same document: one `prpart_<path> <value>` line
/// per numeric leaf, flattened with underscores, in document order.
/// Derived from metrics_json so the two formats can never diverge.
std::string metrics_text(const StatsSnapshot& snapshot,
                         const MetricsExtra& extra);

}  // namespace prpart::server
