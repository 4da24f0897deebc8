#pragma once

#include <cstdint>
#include <vector>

#include "core/scheme.hpp"
#include "design/design.hpp"
#include "reconfig/icap.hpp"
#include "reconfig/markov.hpp"
#include "sim/trace.hpp"

namespace prpart::sim {

/// Knobs of one simulation run.
struct SimulationOptions {
  /// Timing of the reconfiguration datapath (fetch + ICAP streaming).
  IcapModel icap;
  /// Fixed request inter-arrival period in ns. 0 (the default) runs closed
  /// loop: each transition is requested the instant the previous one
  /// completes, so the ICAP port never queues and the served latency of a
  /// transition is exactly the ICAP model applied to its frame count. A
  /// positive period models an environment that adapts on its own clock:
  /// requests arriving while the port is busy queue up, and the served
  /// latency grows by the queueing delay.
  std::uint64_t inter_arrival_ns = 0;
  /// Markov-predicted configuration prefetching (a PrefetchPolicy on the
  /// reconfig/controller). Also switches the cost model from the memoryless
  /// pair rule to the stateful controller (see simulate_scheme). When
  /// enabled, `predictor` must be non-null and match the design.
  bool prefetch = false;
  const MarkovChain* predictor = nullptr;
  /// Frames the prefetcher may stream per idle period (default unlimited).
  std::uint64_t idle_frames_budget = ~std::uint64_t{0};
};

/// Everything one replay reports. All fields are deterministic functions of
/// (evaluation, trace, options): two runs — at any thread count — produce
/// identical bytes.
struct SimulationResult {
  std::uint64_t transitions = 0;
  /// Frames loaded on the critical path of transitions (what the
  /// application waits for). Prefetched frames are not included.
  std::uint64_t frames_loaded = 0;
  /// Region reconfigurations on the critical path.
  std::uint64_t region_loads = 0;

  // Prefetch accounting (zero when prefetch is off).
  std::uint64_t prefetched_frames = 0;
  std::uint64_t useful_prefetches = 0;
  std::uint64_t wasted_prefetches = 0;

  /// Served reconfiguration latency: submit -> last frame written,
  /// including any queueing delay behind earlier commands.
  std::uint64_t total_latency_ns = 0;
  std::uint64_t p50_latency_ns = 0;
  std::uint64_t p95_latency_ns = 0;
  std::uint64_t p99_latency_ns = 0;
  std::uint64_t max_latency_ns = 0;
  /// Time at which the datapath finished the last transfer (0 when every
  /// transition was free).
  std::uint64_t makespan_ns = 0;
  /// Transitions per second of simulated time (over the makespan).
  double transitions_per_second = 0.0;

  /// Exact latency distribution: (latency_ns, count) ascending. Distinct
  /// latencies are bounded by the distinct per-transition frame counts (at
  /// most C^2), so this stays tiny even for multi-million-step traces; the
  /// percentiles above are nearest-rank reads of this table.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> latency_counts;
};

/// The most (controller state, configuration) edges a prefetching replay
/// memoises at once. A full memo is folded into the result and started
/// afresh from the current state, so the replay's memory does not grow
/// with the trace.
inline constexpr std::size_t kPrefetchMemoEdges = 4096;

/// Replays `trace` against one scheme.
///
/// Cost model: without prefetch, a transition i -> j loads exactly the
/// regions whose active members differ between i and j (Eq. 8 applied per
/// transition — the memoryless cost the paper's Eq. 10 sums over all pairs;
/// per-transition latency is the ICAP model applied to the kernel's
/// active-frame counts, which the property suite pins). With prefetch, the
/// run goes through the stateful ReconfigurationController with a
/// PrefetchPolicy: region contents persist between transitions (a region
/// left blank or stale by a configuration that does not use it is reloaded
/// when next needed, which the memoryless rule never charges), regions idle
/// in the current configuration are speculatively loaded for the
/// Markov-predicted successor, and only the residual loads hit the critical
/// path. The stateful model charges every load the memoryless rule charges,
/// so on the same trace it never loads fewer frames. Each distinct
/// (controller state, configuration) step runs the controller once and
/// repeats read the memo, which is exact: the step depends on nothing else.
/// The memo keeps at most kPrefetchMemoEdges edges.
///
/// `evaluation` must be a valid evaluation of `scheme` for the design;
/// every trace entry must be a valid configuration id (the trace reader
/// guarantees this for file traces; programmatic traces are re-checked).
SimulationResult simulate_scheme(const Design& design,
                                 const PartitionScheme& scheme,
                                 const SchemeEvaluation& evaluation,
                                 const TransitionTrace& trace,
                                 const SimulationOptions& options = {});

/// One (scheme, evaluation) pair to simulate; both must outlive the call.
struct SchemeRef {
  const PartitionScheme* scheme = nullptr;
  const SchemeEvaluation* evaluation = nullptr;
};

/// Replays the same trace against many candidate schemes, fanned out by
/// parallel_for over `threads` workers (0 = default_thread_count(), 1 =
/// inline). Results are index-addressed and each scheme's replay is
/// single-threaded, so the output is byte-identical for every thread count
/// — the same determinism discipline as the parallel allocation search.
std::vector<SimulationResult> simulate_schemes(
    const Design& design, const std::vector<SchemeRef>& schemes,
    const TransitionTrace& trace, const SimulationOptions& options = {},
    unsigned threads = 1);

}  // namespace prpart::sim
