#include "benchlib/pipeline.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace prpart {

StreamingPipeline::StreamingPipeline(std::vector<StageSpec> specs,
                                     std::uint32_t arrival_interval)
    : arrival_interval_(arrival_interval),
      arrival_countdown_(arrival_interval) {
  require(!specs.empty(), "pipeline needs at least one stage");
  require(arrival_interval >= 1, "arrival interval must be >= 1");
  stages_.reserve(specs.size());
  for (StageSpec& s : specs) {
    require(s.cycles_per_item >= 1, "stage service time must be >= 1");
    require(s.fifo_depth >= 1, "stage FIFO depth must be >= 1");
    stages_.push_back(Stage{std::move(s), 0, 0, false, false});
  }
}

void StreamingPipeline::set_offline(std::size_t stage, bool offline) {
  require(stage < stages_.size(), "stage index out of range");
  stages_[stage].offline = offline;
}

bool StreamingPipeline::offline(std::size_t stage) const {
  require(stage < stages_.size(), "stage index out of range");
  return stages_[stage].offline;
}

std::size_t StreamingPipeline::occupancy(std::size_t stage) const {
  require(stage < stages_.size(), "stage index out of range");
  return stages_[stage].fifo;
}

double StreamingPipeline::throughput_bound() const {
  double bound = 1.0 / arrival_interval_;
  for (const Stage& s : stages_)
    bound = std::min(bound, 1.0 / s.spec.cycles_per_item);
  return bound;
}

void StreamingPipeline::run(std::uint64_t cycles) {
  for (std::uint64_t c = 0; c < cycles; ++c) {
    ++stats_.cycles;

    // Source arrival.
    if (--arrival_countdown_ == 0) {
      arrival_countdown_ = arrival_interval_;
      ++stats_.arrived;
      if (stages_.front().fifo < stages_.front().spec.fifo_depth) {
        ++stages_.front().fifo;
        ++stats_.accepted;
      } else {
        ++stats_.dropped;
      }
    }

    // Sink-to-source pass: emissions first (freeing downstream slots this
    // cycle), then intake.
    for (std::size_t i = stages_.size(); i-- > 0;) {
      Stage& s = stages_[i];
      if (s.offline) continue;

      if (s.busy) {
        if (s.countdown > 0) --s.countdown;
        if (s.countdown == 0) {
          if (i + 1 == stages_.size()) {
            ++stats_.delivered;
            s.busy = false;
          } else if (stages_[i + 1].fifo < stages_[i + 1].spec.fifo_depth) {
            ++stages_[i + 1].fifo;
            s.busy = false;
          }
          // else: blocked by back-pressure; retry next cycle.
        }
      }
      if (!s.busy && s.fifo > 0) {
        --s.fifo;
        s.busy = true;
        s.countdown = s.spec.cycles_per_item;
      }
    }
  }
}

}  // namespace prpart
