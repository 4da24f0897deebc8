#pragma once

#include <optional>
#include <string>

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

/// One `partition` job as received on the wire.
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
};

/// One `analyze` job: run the static diagnostics engine over a design
/// without partitioning it. Served inline (no queue slot): analysis is
/// orders of magnitude cheaper than a search.
struct AnalyzeRequest {
  std::string id;
  std::string design_xml;
  std::string device;                 ///< named target device; "" = none
  std::optional<ResourceVec> budget;  ///< explicit budget; excludes device
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
  PartitionRequest partition;  ///< meaningful when type == Partition
  AnalyzeRequest analyze;      ///< meaningful when type == Analyze
  SimulateRequest simulate;    ///< meaningful when type == Simulate
  FloorplanRequest floorplan;  ///< meaningful when type == Floorplan
  bool metrics_text = false;   ///< Metrics: text exposition format requested
};

/// Parses one newline-delimited request. Throws ParseError on malformed
/// JSON, an unknown `type`, conflicting target fields or bad option values;
/// the server maps that to a `bad_request` response.
Request parse_request(const std::string& line);

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
