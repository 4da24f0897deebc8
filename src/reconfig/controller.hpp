#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/scheme.hpp"
#include "design/design.hpp"
#include "reconfig/icap.hpp"
#include "reconfig/markov.hpp"

namespace prpart {

/// One executed reconfiguration of one region.
struct ReconfigEvent {
  std::size_t region = 0;
  std::size_t from_config = 0;
  std::size_t to_config = 0;
  std::uint64_t frames = 0;
  std::uint64_t ns = 0;
};

/// Cumulative runtime statistics of a simulation run. Loads, frames and
/// nanoseconds count reconfiguration work on the critical path of
/// transitions (what the application waits for); prefetched frames are
/// streamed during idle periods and are counted apart.
struct RuntimeStats {
  std::uint64_t transitions = 0;
  std::uint64_t region_loads = 0;
  std::uint64_t total_frames = 0;
  std::uint64_t total_ns = 0;  ///< sum of the loaded regions' ICAP times
  std::uint64_t worst_transition_frames = 0;
  std::uint64_t worst_transition_ns = 0;

  // Prefetch accounting (zero without a PrefetchPolicy).
  std::uint64_t prefetched_frames = 0;
  std::uint64_t useful_prefetches = 0;  ///< prefetched region later needed as-is
  std::uint64_t wasted_prefetches = 0;  ///< overwritten before being used
};

/// Everything a transition reads of a controller besides its tables: what
/// each region holds, whether that came from a prefetch not yet used, and
/// the current configuration. Two controllers of one design and scheme in
/// equal states do the same work on every later transition.
struct ControllerState {
  std::vector<int> loaded;  ///< member per region, -1 for blank
  std::vector<char> speculative;
  std::size_t current = 0;

  bool operator==(const ControllerState&) const = default;
};

/// Configuration prefetching (the technique of the paper's related work
/// [4], adapted to the adaptive-systems setting): while the system sits in
/// configuration c, regions that c does not use are idle and may be
/// speculatively loaded with the partitions the *predicted* next
/// configuration needs. If the prediction holds, those loads vanish from
/// the transition's critical path.
struct PrefetchPolicy {
  /// Markov model of the environment; the most likely successor of the
  /// current configuration is the prediction (ties go to the lowest id).
  MarkovChain predictor;
  /// Frames the ICAP may stream per idle period (before the next
  /// adaptation arrives). 0 disables prefetching.
  std::uint64_t idle_frames_budget = ~std::uint64_t{0};
};

/// Simulates the runtime configuration manager of a PR system (the software
/// on the embedded processor in Fig. 1): it owns the region states, decides
/// which regions must be rewritten for each configuration transition, and
/// accounts frames and nanoseconds through the ICAP model.
///
/// The controller implements the stale-content rule of the cost model: a
/// region whose active partition is not needed by the target configuration
/// keeps its contents, and a region is rewritten only when the target needs
/// a partition different from what is currently loaded. This makes the
/// simulator the ground truth that the closed-form Eq. 10 approximates; the
/// tests cross-check the two.
///
/// With a PrefetchPolicy, every boot and transition ends by preloading the
/// current configuration's idle regions for the predicted successor,
/// largest region first, within the idle budget.
///
/// Cold-start surcharge: boot(c) loads only the regions configuration c
/// uses; regions c does not use stay blank, so the first transition that
/// needs them pays for their initial load. Eq. 10 models *warm* operation
/// (every region loaded at least once), which the controller matches after
/// each region has been visited; use reset_stats() after a warm-up walk to
/// measure steady-state costs.
class ReconfigurationController {
 public:
  /// `evaluation` must be a valid evaluation of a scheme for `design`; a
  /// policy's predictor must have one state per configuration.
  ReconfigurationController(const Design& design,
                            const SchemeEvaluation& evaluation,
                            IcapModel icap = {},
                            std::optional<PrefetchPolicy> prefetch = {});

  /// Loads `config` from power-up (full configuration); resets statistics.
  void boot(std::size_t config);

  std::size_t current_config() const { return current_; }

  /// Switches to `config`, reconfiguring exactly the regions whose needed
  /// partition differs from their current contents. Returns the events,
  /// valid until the next call (the buffer is reused).
  const std::vector<ReconfigEvent>& transition(std::size_t config);

  /// Frames that a transition to `config` would write, without doing it.
  std::uint64_t peek_frames(std::size_t config) const;

  const RuntimeStats& stats() const { return stats_; }

  /// Zeroes the statistics without touching region contents; used to
  /// measure steady-state (warm) costs after a warm-up walk.
  void reset_stats() { stats_ = {}; }

  /// The booted controller's region contents and configuration.
  ControllerState snapshot() const;

  /// Puts the booted controller back into `state`, a snapshot of a
  /// controller of the same design and scheme. Statistics are untouched.
  void restore(const ControllerState& state);

 private:
  static constexpr int kEmpty = -1;

  /// Member index region r needs in configuration c, or kEmpty.
  int needed(std::size_t c, std::size_t r) const {
    return active_[c * frames_.size() + r];
  }
  void prefetch_for_prediction();

  std::size_t nconf_ = 0;
  std::size_t current_ = 0;
  bool booted_ = false;
  // Configuration-major copy of the evaluation's region reports' active
  // tables, so a transition reads one contiguous row.
  std::vector<int> active_;
  std::vector<std::uint64_t> frames_;  // per region
  std::vector<std::uint64_t> ns_;      // ICAP time per region load
  std::vector<int> loaded_;            // current member per region
  std::vector<char> speculative_;      // loaded_[r] was a prefetch, not yet used
  std::vector<ReconfigEvent> events_;  // transition()'s reused result

  std::optional<PrefetchPolicy> prefetch_;
  std::vector<std::size_t> predicted_;  // predicted successor per config
  std::vector<std::size_t> by_size_;    // regions, largest first (stable)
  RuntimeStats stats_;
};

}  // namespace prpart
