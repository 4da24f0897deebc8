#include "reconfig/controller.hpp"

#include <algorithm>
#include <numeric>

#include "util/status.hpp"

namespace prpart {

ReconfigurationController::ReconfigurationController(
    const Design& design, const SchemeEvaluation& evaluation, IcapModel icap,
    std::optional<PrefetchPolicy> prefetch)
    : nconf_(design.configurations().size()), prefetch_(std::move(prefetch)) {
  require(evaluation.valid, "cannot simulate an invalid scheme");
  const std::size_t nregions = evaluation.regions.size();
  active_.resize(nconf_ * nregions);
  for (std::size_t r = 0; r < nregions; ++r) {
    const RegionReport& report = evaluation.regions[r];
    require(report.active.size() == nconf_,
            "evaluation active table has wrong arity");
    for (std::size_t c = 0; c < nconf_; ++c)
      active_[c * nregions + r] = report.active[c];
    frames_.push_back(report.frames);
    // A region's frame count is fixed, so is the time to load it.
    ns_.push_back(icap.reconfiguration_ns(report.frames));
  }
  loaded_.assign(nregions, kEmpty);
  speculative_.assign(nregions, 0);

  if (!prefetch_) return;
  const MarkovChain& chain = prefetch_->predictor;
  require(chain.states() == nconf_,
          "predictor does not match the design's configurations");
  // Predict the most likely successor; ties resolve to the lowest index,
  // keeping runs deterministic.
  predicted_.resize(nconf_);
  for (std::size_t c = 0; c < nconf_; ++c) {
    double best = -1.0;
    for (std::size_t j = 0; j < nconf_; ++j) {
      const double p = chain.probability(c, j);
      if (p > best) {
        best = p;
        predicted_[c] = j;
      }
    }
  }
  by_size_.resize(nregions);
  std::iota(by_size_.begin(), by_size_.end(), std::size_t{0});
  std::stable_sort(by_size_.begin(), by_size_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return frames_[a] > frames_[b];
                   });
}

void ReconfigurationController::boot(std::size_t config) {
  require(config < nconf_, "boot configuration out of range");
  // A full-device configuration loads every region's needed partition (and
  // leaves unneeded regions blank).
  for (std::size_t r = 0; r < frames_.size(); ++r) {
    loaded_[r] = needed(config, r);
    speculative_[r] = 0;
  }
  current_ = config;
  booted_ = true;
  stats_ = {};
  if (prefetch_) prefetch_for_prediction();
}

void ReconfigurationController::prefetch_for_prediction() {
  // Preload idle regions, largest first (they hurt most when they stall),
  // within the idle bandwidth budget.
  const std::size_t predicted = predicted_[current_];
  std::uint64_t budget = prefetch_->idle_frames_budget;
  for (const std::size_t r : by_size_) {
    const int want = needed(predicted, r);
    if (needed(current_, r) != kEmpty || want == kEmpty || want == loaded_[r] ||
        frames_[r] > budget)
      continue;
    budget -= frames_[r];
    if (speculative_[r]) ++stats_.wasted_prefetches;  // overwritten unused
    loaded_[r] = want;
    speculative_[r] = 1;
    stats_.prefetched_frames += frames_[r];
  }
}

ControllerState ReconfigurationController::snapshot() const {
  require(booted_, "controller not booted");
  return ControllerState{loaded_, speculative_, current_};
}

void ReconfigurationController::restore(const ControllerState& state) {
  require(booted_, "controller not booted");
  require(state.loaded.size() == loaded_.size() &&
              state.speculative.size() == speculative_.size() &&
              state.current < nconf_,
          "controller state does not match the scheme");
  loaded_ = state.loaded;
  speculative_ = state.speculative;
  current_ = state.current;
}

std::uint64_t ReconfigurationController::peek_frames(
    std::size_t config) const {
  require(booted_, "controller not booted");
  require(config < nconf_, "configuration out of range");
  std::uint64_t frames = 0;
  for (std::size_t r = 0; r < frames_.size(); ++r) {
    const int want = needed(config, r);
    if (want != kEmpty && want != loaded_[r]) frames += frames_[r];
  }
  return frames;
}

const std::vector<ReconfigEvent>& ReconfigurationController::transition(
    std::size_t config) {
  require(booted_, "controller not booted");
  require(config < nconf_, "configuration out of range");

  events_.clear();
  std::uint64_t transition_frames = 0;
  std::uint64_t transition_ns = 0;
  for (std::size_t r = 0; r < frames_.size(); ++r) {
    const int want = needed(config, r);
    if (want == kEmpty) continue;
    const bool hit = want == loaded_[r];
    if (speculative_[r]) {
      ++(hit ? stats_.useful_prefetches : stats_.wasted_prefetches);
      speculative_[r] = 0;
    }
    if (hit) continue;
    loaded_[r] = want;
    transition_frames += frames_[r];
    transition_ns += ns_[r];
    ++stats_.region_loads;
    events_.push_back(ReconfigEvent{r, current_, config, frames_[r], ns_[r]});
  }

  ++stats_.transitions;
  stats_.total_frames += transition_frames;
  stats_.total_ns += transition_ns;
  stats_.worst_transition_frames =
      std::max(stats_.worst_transition_frames, transition_frames);
  stats_.worst_transition_ns =
      std::max(stats_.worst_transition_ns, transition_ns);
  current_ = config;
  if (prefetch_) prefetch_for_prediction();
  return events_;
}

}  // namespace prpart
