#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <unordered_map>
#include <utility>

#include "reconfig/controller.hpp"
#include "reconfig/icap_datapath.hpp"
#include "util/parallel_for.hpp"
#include "util/status.hpp"

namespace prpart::sim {

namespace {

/// Nearest-rank percentile over an ascending (value, count) table.
std::uint64_t percentile(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& counts,
    std::uint64_t total, double q) {
  if (total == 0) return 0;
  // Nearest-rank: the smallest value whose cumulative count reaches
  // ceil(q * total).
  const double exact = q * static_cast<double>(total);
  std::uint64_t rank = static_cast<std::uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (const auto& [value, count] : counts) {
    cumulative += count;
    if (cumulative >= rank) return value;
  }
  return counts.back().first;
}

void finalize(SimulationResult& result,
              const std::map<std::uint64_t, std::uint64_t>& latencies,
              std::uint64_t makespan_ns) {
  result.latency_counts.assign(latencies.begin(), latencies.end());
  result.makespan_ns = makespan_ns;
  result.p50_latency_ns = percentile(result.latency_counts, result.transitions, 0.50);
  result.p95_latency_ns = percentile(result.latency_counts, result.transitions, 0.95);
  result.p99_latency_ns = percentile(result.latency_counts, result.transitions, 0.99);
  if (!result.latency_counts.empty())
    result.max_latency_ns = result.latency_counts.back().first;
  if (makespan_ns > 0)
    result.transitions_per_second = static_cast<double>(result.transitions) *
                                    1e9 / static_cast<double>(makespan_ns);
}

/// Fibonacci hashing: the top bits of a golden-ratio product index a
/// power-of-two table of 2^(64 - shift) slots.
std::size_t home_slot(std::uint64_t hash, unsigned shift) {
  return static_cast<std::size_t>((hash * 0x9e3779b97f4a7c15ull) >> shift);
}

/// Open-addressed map from a nonzero 64-bit key to a 64-bit value; 0 marks
/// an empty slot. Linear probing over a power-of-two table kept at most
/// half full.
class EdgeIndex {
 public:
  static constexpr std::uint64_t kAbsent = ~std::uint64_t{0};

  /// The value stored for `key`, inserted as kAbsent when new. The
  /// reference is valid until the next call.
  std::uint64_t& slot(std::uint64_t key) {
    if (2 * (size_ + 1) > keys_.size()) grow();
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = home_slot(key, shift_);; i = (i + 1) & mask) {
      if (keys_[i] == key) return values_[i];
      if (keys_[i] == 0) {
        keys_[i] = key;
        ++size_;
        return values_[i] = kAbsent;
      }
    }
  }

 private:
  void grow() {
    std::vector<std::uint64_t> keys(
        std::max<std::size_t>(64, 2 * keys_.size()));
    std::vector<std::uint64_t> values(keys.size());
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(keys.size()));
    keys.swap(keys_);
    values.swap(values_);
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == 0) continue;
      std::size_t j = home_slot(keys[i], shift_);
      while (keys_[j] != 0) j = (j + 1) & mask;
      keys_[j] = keys[i];
      values_[j] = values[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> values_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

/// Hash of a controller state: one word per region,
/// (member + 1) << 1 | speculative, folded after the current configuration.
struct ControllerStateHash {
  std::size_t operator()(const ControllerState& state) const {
    std::uint64_t hash = state.current;
    for (std::size_t r = 0; r < state.loaded.size(); ++r)
      hash = (hash ^ (static_cast<std::uint64_t>(state.loaded[r] + 1) << 1 |
                      static_cast<std::uint64_t>(state.speculative[r] != 0))) *
             0xff51afd7ed558ccdull;
    return static_cast<std::size_t>(hash ^ (hash >> 32));
  }
};

/// One memoised step of the prefetch replay: from an interned controller
/// state, a transition to one configuration.
struct PrefetchEdge {
  std::uint64_t frames = 0;  ///< loaded on the critical path
  std::uint64_t region_loads = 0;
  std::uint64_t prefetched_frames = 0;
  std::uint64_t useful_prefetches = 0;
  std::uint64_t wasted_prefetches = 0;
  std::uint64_t taken = 0;  ///< steps of the trace that took it
};

/// The prefetch replay as a walk over controller states. A transition's
/// work and the state it leaves depend only on the controller's state and
/// the requested configuration (ControllerState), so each distinct
/// (state, configuration) edge is computed once by the controller's own
/// transition() and every later step reads the memo. The memo holds at
/// most kPrefetchMemoEdges edges: the caller folds and restarts it when
/// full.
class PrefetchWalk {
 public:
  PrefetchWalk(ReconfigurationController& controller, std::size_t boot)
      : controller_(controller) {
    controller_.boot(boot);
    boot_stats_ = controller_.stats();
    at_ = state_ = intern(controller_.snapshot());
  }

  /// Boot's statistics: its prefetch, counted once.
  const RuntimeStats& boot_stats() const { return boot_stats_; }

  bool full() const { return edges_.size() >= kPrefetchMemoEdges; }

  /// Moves to `config`; returns the frames the step loads.
  std::uint64_t step(std::uint32_t config) {
    // The index holds (next state << 32 | edge id), so the walk's next
    // position is one load away from its current one.
    std::uint64_t& entry =
        index_.slot(std::uint64_t{state_} << 32 | (config + std::uint64_t{1}));
    if (entry == EdgeIndex::kAbsent) entry = compute(config);
    state_ = static_cast<std::uint32_t>(entry >> 32);
    PrefetchEdge& edge = edges_[static_cast<std::uint32_t>(entry)];
    ++edge.taken;
    return edge.frames;
  }

  /// Hands every edge taken since the last restart to `fold`.
  template <class Fold>
  void fold_edges(Fold&& fold) const {
    for (const PrefetchEdge& edge : edges_)
      if (edge.taken > 0) fold(edge);
  }

  /// Forgets the memo; the walk stays where it is. The memo fills only as
  /// a step computes an edge, which leaves the controller where the walk
  /// is, so a full memo's position is the controller's own state.
  void restart() {
    edges_.clear();
    index_ = EdgeIndex{};
    ids_.clear();
    states_.clear();
    at_ = state_ = intern(controller_.snapshot());
  }

 private:
  std::uint32_t intern(ControllerState state) {
    const auto [it, added] = ids_.try_emplace(
        std::move(state), static_cast<std::uint32_t>(states_.size()));
    if (added) states_.push_back(&it->first);
    return it->second;
  }

  /// Runs the edge from `state_` to `config` on the controller; returns its
  /// index entry.
  std::uint64_t compute(std::size_t config) {
    if (at_ != state_) controller_.restore(*states_[state_]);
    const RuntimeStats before = controller_.stats();
    PrefetchEdge edge;
    for (const ReconfigEvent& ev : controller_.transition(config))
      edge.frames += ev.frames;
    const RuntimeStats& after = controller_.stats();
    edge.region_loads = after.region_loads - before.region_loads;
    edge.prefetched_frames = after.prefetched_frames - before.prefetched_frames;
    edge.useful_prefetches = after.useful_prefetches - before.useful_prefetches;
    edge.wasted_prefetches = after.wasted_prefetches - before.wasted_prefetches;
    at_ = intern(controller_.snapshot());
    edges_.push_back(edge);
    return std::uint64_t{at_} << 32 | (edges_.size() - 1);
  }

  ReconfigurationController& controller_;
  RuntimeStats boot_stats_;
  std::unordered_map<ControllerState, std::uint32_t, ControllerStateHash>
      ids_;
  std::vector<const ControllerState*> states_;  // by id, keys of ids_
  std::vector<PrefetchEdge> edges_;
  EdgeIndex index_;
  std::uint32_t state_ = 0;  // where the walk is
  std::uint32_t at_ = 0;     // where the controller is
};

}  // namespace

SimulationResult simulate_scheme(const Design& design,
                                 const PartitionScheme& scheme,
                                 const SchemeEvaluation& evaluation,
                                 const TransitionTrace& trace,
                                 const SimulationOptions& options) {
  const std::size_t nconf = design.configurations().size();
  require(evaluation.valid, "cannot simulate an invalid scheme");
  require(evaluation.regions.size() == scheme.regions.size(),
          "evaluation does not match scheme");
  require(trace.configs.size() >= 2,
          "a trace needs a boot configuration and at least one transition");
  for (const std::uint32_t c : trace.configs)
    require(c < nconf, "trace configuration id out of range");

  SimulationResult result;
  std::map<std::uint64_t, std::uint64_t> latencies;
  IcapDatapath datapath(options.icap);

  const auto serve = [&](std::uint64_t frames, std::uint64_t index) {
    // A fixed arrival period submits on the environment's clock and eats
    // queueing delay.
    const std::uint64_t submit_ns = index * options.inter_arrival_ns;
    const IcapCompletion done =
        datapath.submit(IcapRequest{submit_ns, frames});
    const std::uint64_t latency = done.done_ns - submit_ns;
    ++result.transitions;
    result.frames_loaded += frames;
    result.total_latency_ns += latency;
    ++latencies[latency];
  };
  // Closed loop: each transition is submitted the instant the port goes
  // idle, so it never queues. Its latency is its own transfer time, a
  // function of its frame count, and the port streams back to back, so the
  // makespan is the sum of the latencies. The replay therefore needs only
  // how often each distinct step occurs.
  const auto fold = [&](std::uint64_t n, std::uint64_t frames) {
    const std::uint64_t latency = options.icap.reconfiguration_ns(frames);
    result.transitions += n;
    result.frames_loaded += n * frames;
    result.total_latency_ns += n * latency;
    latencies[latency] += n;
  };
  const bool closed_loop = options.inter_arrival_ns == 0;

  if (!options.prefetch) {
    // Memoryless pairwise cost: transition i -> j loads exactly the regions
    // whose active members differ (Eq. 8 per transition), a function of the
    // pair alone, precomputed as C x C matrices.
    const TransitionMatrices cost = transition_matrices(evaluation, nconf);
    if (closed_loop) {
      std::vector<std::uint64_t> pair_count(nconf * nconf, 0);
      for (std::size_t k = 1; k < trace.configs.size(); ++k)
        ++pair_count[trace.configs[k - 1] * nconf + trace.configs[k]];
      for (std::size_t from = 0; from < nconf; ++from)
        for (std::size_t to = 0; to < nconf; ++to) {
          const std::uint64_t n = pair_count[from * nconf + to];
          if (n == 0) continue;
          fold(n, cost.frames[from][to]);
          result.region_loads += n * cost.loads[from][to];
        }
      finalize(result, latencies, result.total_latency_ns);
      return result;
    }
    // Open loop: a request that arrives while the port is busy queues
    // behind the earlier ones, so a step's latency depends on the history
    // and the replay stays step by step.
    for (std::size_t k = 1; k < trace.configs.size(); ++k) {
      const std::uint32_t from = trace.configs[k - 1];
      const std::uint32_t to = trace.configs[k];
      result.region_loads += cost.loads[from][to];
      serve(cost.frames[from][to], k - 1);
    }
    finalize(result, latencies, datapath.stats().last_done_ns);
    return result;
  }

  // Stateful stale-content replay: region contents persist across
  // transitions and idle regions are prefetched for the predicted
  // successor, so only the residual loads hit the critical path. The frames
  // a step loads depend on what earlier steps left behind, which the walk
  // carries as an interned controller state.
  require(options.predictor != nullptr,
          "prefetching simulation needs a predictor chain");
  ReconfigurationController controller(
      design, evaluation, options.icap,
      PrefetchPolicy{*options.predictor, options.idle_frames_budget});
  PrefetchWalk walk(controller, trace.configs.front());
  const RuntimeStats& boot = walk.boot_stats();
  result.region_loads = boot.region_loads;
  result.prefetched_frames = boot.prefetched_frames;
  result.useful_prefetches = boot.useful_prefetches;
  result.wasted_prefetches = boot.wasted_prefetches;
  const auto fold_edge = [&](const PrefetchEdge& edge) {
    result.region_loads += edge.taken * edge.region_loads;
    result.prefetched_frames += edge.taken * edge.prefetched_frames;
    result.useful_prefetches += edge.taken * edge.useful_prefetches;
    result.wasted_prefetches += edge.taken * edge.wasted_prefetches;
    if (closed_loop) fold(edge.taken, edge.frames);
  };
  for (std::size_t k = 1; k < trace.configs.size(); ++k) {
    if (walk.full()) {
      walk.fold_edges(fold_edge);
      walk.restart();
    }
    const std::uint64_t frames = walk.step(trace.configs[k]);
    if (!closed_loop) serve(frames, k - 1);
  }
  walk.fold_edges(fold_edge);
  finalize(result, latencies,
           closed_loop ? result.total_latency_ns
                       : datapath.stats().last_done_ns);
  return result;
}

std::vector<SimulationResult> simulate_schemes(
    const Design& design, const std::vector<SchemeRef>& schemes,
    const TransitionTrace& trace, const SimulationOptions& options,
    unsigned threads) {
  std::vector<SimulationResult> results(schemes.size());
  parallel_for(schemes.size(), threads, [&](std::size_t i) {
    require(schemes[i].scheme != nullptr && schemes[i].evaluation != nullptr,
            "simulate_schemes got a null scheme reference");
    results[i] = simulate_scheme(design, *schemes[i].scheme,
                                 *schemes[i].evaluation, trace, options);
  });
  return results;
}

}  // namespace prpart::sim
