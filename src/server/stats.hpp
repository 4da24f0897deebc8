#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "core/partitioner.hpp"
#include "core/search.hpp"
#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace prpart::server {

struct JobRun;  // server/job.hpp

/// Exact-count latency histogram with logarithmic buckets: every sample is
/// counted (no reservoir), and a percentile is an O(buckets) cumulative
/// scan — no sort, no allocation — so a metrics scrape stays cheap no
/// matter how many jobs the server has seen. Values are bucketed to a
/// power-of-two range split into 8 linear sub-buckets, bounding the
/// reported quantile's relative error at 1/8th of its magnitude.
///
/// Not synchronised: ServerStats guards it with its own mutex.
class LatencyHistogram {
 public:
  void record(std::uint64_t value_us) { ++counts_[index_of(value_us)]; }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t c : counts_) sum += c;
    return sum;
  }

  /// Value at quantile p in [0, 1]: the representative (midpoint) of the
  /// bucket holding the sample of rank ceil(p * total). 0 when empty.
  std::uint64_t percentile(double p) const;

 private:
  static constexpr unsigned kSubBits = 3;          ///< 8 sub-buckets/octave
  static constexpr unsigned kSub = 1u << kSubBits;
  /// Buckets 0..7 hold exact values 0..7; bucket (b*8 + s) for b >= 1
  /// covers [ (8+s) << (b-1), (8+s+1) << (b-1) ).
  static constexpr std::size_t kBuckets =
      kSub * (64 - kSubBits + 1);  // 496: covers the full uint64 range

  static std::size_t index_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    const std::uint64_t sub = (v >> shift) & (kSub - 1);
    return static_cast<std::size_t>((msb - kSubBits + 1) * kSub + sub);
  }

  static std::uint64_t lower_bound_of(std::size_t index) {
    if (index < kSub) return index;
    const std::uint64_t block = index / kSub;     // >= 1
    const std::uint64_t sub = index % kSub;
    return (kSub + sub) << (block - 1);
  }

  static std::uint64_t width_of(std::size_t index) {
    return index < kSub ? 1 : std::uint64_t{1} << (index / kSub - 1);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
};

/// One consistent view of the serving counters, taken under the stats lock.
struct StatsSnapshot {
  std::uint64_t accepted = 0;        ///< jobs admitted to the queue
  std::uint64_t rejected = 0;        ///< jobs refused by admission control
  std::uint64_t completed = 0;       ///< jobs finished with an ok response
  std::uint64_t infeasible = 0;      ///< jobs answered `infeasible`
  std::uint64_t timed_out = 0;       ///< jobs cancelled by their deadline
  std::uint64_t failed = 0;          ///< bad_request / internal failures
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t queued_notices = 0;  ///< interim `queued` responses sent
  std::size_t queue_depth = 0;       ///< jobs waiting at snapshot time
  std::size_t in_flight = 0;         ///< jobs executing at snapshot time
  std::uint64_t latency_count = 0;   ///< completed-job latency samples
  std::uint64_t p50_latency_us = 0;  ///< submit -> response, cache hits incl.
  std::uint64_t p99_latency_us = 0;
  // Cumulative search-effort counters over every executed (non-cached)
  // partitioning job: how much work the allocation search did and how much
  // the branch-and-bound pruning saved.
  std::uint64_t search_units = 0;
  std::uint64_t search_units_pruned = 0;
  std::uint64_t search_units_pruned_sterile = 0;  ///< part of the above
  std::uint64_t search_move_evaluations = 0;
  std::uint64_t search_full_evaluations = 0;
  std::uint64_t search_moves_rescored = 0;
  std::uint64_t search_kernel_evaluations = 0;
  std::uint64_t search_signature_collapsed_configs = 0;
  // Cumulative simulate-job counters: replays served, transitions replayed
  // and critical-path frames loaded across them.
  std::uint64_t simulations = 0;
  std::uint64_t simulated_transitions = 0;
  std::uint64_t simulated_frames = 0;
  // Cumulative floorplan-stage counters: veto/re-rank passes run (floorplan
  // jobs plus simulate jobs with floorplan=true), schemes floorplanned,
  // schemes vetoed, and passes where the placement-true winner differed
  // from the Eq. 10 winner.
  std::uint64_t floorplans = 0;
  std::uint64_t floorplan_candidates = 0;
  std::uint64_t floorplan_vetoes = 0;
  std::uint64_t floorplan_overturns = 0;
  // Cumulative device-walk counters over every auto-device job the server
  // executed (DESIGN.md §4f): what the walk decided without a search.
  WalkStats walk;

  json::Value to_json() const;
  /// One-line rendering for the periodic server log.
  std::string log_line() const;
};

/// Internally synchronised serving counters plus an exact latency histogram
/// feeding the p50/p99 estimates. Everything here is observability only: no
/// decision in the serving path reads it back.
class ServerStats {
 public:
  /// Runs `decide`, the queue's admission decision (true when the job got
  /// in), under the stats lock and counts the job accepted or rejected.
  /// A worker folds a job's completion through this lock too, so no
  /// snapshot shows a job completed before it shows it accepted.
  template <class Decide>
  bool admit(Decide&& decide) {
    const MutexLock lock(mutex_);
    const bool admitted = decide();
    ++(admitted ? counters_.accepted : counters_.rejected);
    return admitted;
  }
  void job_infeasible(std::uint64_t latency_us);
  void job_timed_out();
  void job_failed();
  void cache_hit(std::uint64_t latency_us);
  void cache_miss();
  /// One interim `queued` backpressure notice was sent to a client.
  void job_queued_notice();
  /// Folds one executed job: completed or infeasible with its latency,
  /// plus its walk, search, floorplan and replay counters.
  void job_ran(const JobRun& run, std::uint64_t latency_us);

  /// Queue depth and in-flight count are owned by the scheduler; it reports
  /// them at snapshot time.
  StatsSnapshot snapshot(std::size_t queue_depth, std::size_t in_flight) const;

 private:
  void record_latency(std::uint64_t latency_us) PRPART_REQUIRES(mutex_);

  /// Low in the lock hierarchy (lock_order.hpp): counters are folded in
  /// with no scheduler lock held, and admit() takes the queue lock only
  /// inside this one, so stats can never deadlock against the
  /// admission/dequeue critical sections.
  mutable Mutex mutex_{lock_order::Level::kServerStats, "server.stats"};
  /// The cumulative counters; the scheduler-owned depths and the latency
  /// percentiles are filled in at snapshot time.
  StatsSnapshot counters_ PRPART_GUARDED_BY(mutex_);
  LatencyHistogram latencies_ PRPART_GUARDED_BY(mutex_);
};

}  // namespace prpart::server
