#include "server/stats.hpp"

#include <algorithm>
#include <string>

#include "server/job.hpp"

namespace prpart::server {

std::uint64_t LatencyHistogram::percentile(double p) const {
  const std::uint64_t count = total();
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(p * static_cast<double>(count) + 0.5));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cumulative += counts_[i];
    if (cumulative >= rank) return lower_bound_of(i) + width_of(i) / 2;
  }
  return lower_bound_of(counts_.size() - 1);
}

json::Value StatsSnapshot::to_json() const {
  json::Value v = json::Value::object();
  v.set("accepted", json::Value(accepted));
  v.set("rejected", json::Value(rejected));
  v.set("completed", json::Value(completed));
  v.set("infeasible", json::Value(infeasible));
  v.set("timed_out", json::Value(timed_out));
  v.set("failed", json::Value(failed));
  v.set("cache_hits", json::Value(cache_hits));
  v.set("cache_misses", json::Value(cache_misses));
  v.set("queued_notices", json::Value(queued_notices));
  v.set("queue_depth", json::Value(static_cast<std::uint64_t>(queue_depth)));
  v.set("in_flight", json::Value(static_cast<std::uint64_t>(in_flight)));
  v.set("latency_count", json::Value(latency_count));
  v.set("p50_latency_us", json::Value(p50_latency_us));
  v.set("p99_latency_us", json::Value(p99_latency_us));
  json::Value search = json::Value::object();
  search.set("units", json::Value(search_units));
  search.set("units_pruned", json::Value(search_units_pruned));
  search.set("units_pruned_sterile", json::Value(search_units_pruned_sterile));
  search.set("move_evaluations", json::Value(search_move_evaluations));
  search.set("full_evaluations", json::Value(search_full_evaluations));
  search.set("moves_rescored", json::Value(search_moves_rescored));
  search.set("kernel_evaluations", json::Value(search_kernel_evaluations));
  search.set("signature_collapsed_configs",
             json::Value(search_signature_collapsed_configs));
  v.set("search", search);
  json::Value sim = json::Value::object();
  sim.set("simulations", json::Value(simulations));
  sim.set("transitions", json::Value(simulated_transitions));
  sim.set("frames_loaded", json::Value(simulated_frames));
  v.set("simulate", sim);
  json::Value fp = json::Value::object();
  fp.set("passes", json::Value(floorplans));
  fp.set("candidates", json::Value(floorplan_candidates));
  fp.set("vetoes", json::Value(floorplan_vetoes));
  fp.set("overturns", json::Value(floorplan_overturns));
  v.set("floorplan", fp);
  json::Value w = json::Value::object();
  w.set("devices_skipped_infeasible",
        json::Value(static_cast<std::uint64_t>(walk.devices_skipped_infeasible)));
  w.set("searches_skipped_no_fit",
        json::Value(static_cast<std::uint64_t>(walk.searches_skipped_no_fit)));
  w.set("proofs_inconclusive",
        json::Value(static_cast<std::uint64_t>(walk.proofs_inconclusive)));
  w.set("searches_run",
        json::Value(static_cast<std::uint64_t>(walk.searches_run)));
  v.set("walk", w);
  return v;
}

std::string StatsSnapshot::log_line() const {
  return "jobs accepted=" + std::to_string(accepted) +
         " rejected=" + std::to_string(rejected) +
         " completed=" + std::to_string(completed) +
         " infeasible=" + std::to_string(infeasible) +
         " timed_out=" + std::to_string(timed_out) +
         " failed=" + std::to_string(failed) +
         " queue=" + std::to_string(queue_depth) +
         " in_flight=" + std::to_string(in_flight) +
         " cache_hits=" + std::to_string(cache_hits) +
         " cache_misses=" + std::to_string(cache_misses) +
         " queued=" + std::to_string(queued_notices) +
         " p50_us=" + std::to_string(p50_latency_us) +
         " p99_us=" + std::to_string(p99_latency_us) +
         " search_units=" + std::to_string(search_units) +
         " search_pruned=" + std::to_string(search_units_pruned) +
         " search_pruned_sterile=" +
         std::to_string(search_units_pruned_sterile) +
         " simulations=" + std::to_string(simulations) +
         " floorplans=" + std::to_string(floorplans) +
         " floorplan_vetoes=" + std::to_string(floorplan_vetoes) +
         " floorplan_overturns=" + std::to_string(floorplan_overturns);
}

void ServerStats::job_infeasible(std::uint64_t latency_us) {
  const MutexLock lock(mutex_);
  ++counters_.infeasible;
  record_latency(latency_us);
}

void ServerStats::job_timed_out() {
  const MutexLock lock(mutex_);
  ++counters_.timed_out;
}

void ServerStats::job_failed() {
  const MutexLock lock(mutex_);
  ++counters_.failed;
}

void ServerStats::cache_hit(std::uint64_t latency_us) {
  const MutexLock lock(mutex_);
  ++counters_.cache_hits;
  record_latency(latency_us);
}

void ServerStats::cache_miss() {
  const MutexLock lock(mutex_);
  ++counters_.cache_misses;
}

void ServerStats::job_queued_notice() {
  const MutexLock lock(mutex_);
  ++counters_.queued_notices;
}

void ServerStats::job_ran(const JobRun& run, std::uint64_t latency_us) {
  const MutexLock lock(mutex_);
  StatsSnapshot& c = counters_;
  ++(run.infeasible.empty() ? c.completed : c.infeasible);
  record_latency(latency_us);
  if (run.walk) {
    c.walk.devices_skipped_infeasible += run.walk->devices_skipped_infeasible;
    c.walk.searches_skipped_no_fit += run.walk->searches_skipped_no_fit;
    c.walk.proofs_inconclusive += run.walk->proofs_inconclusive;
    c.walk.searches_run += run.walk->searches_run;
  }
  if (const std::optional<SearchStats>& s = run.search) {
    c.search_units += s->units;
    c.search_units_pruned += s->units_pruned;
    c.search_units_pruned_sterile += s->units_pruned_sterile;
    c.search_move_evaluations += s->move_evaluations;
    c.search_full_evaluations += s->full_evaluations;
    c.search_moves_rescored += s->moves_rescored;
    c.search_kernel_evaluations += s->kernel_evaluations;
    c.search_signature_collapsed_configs += s->signature_collapsed_configs;
  }
  if (run.floorplanned != 0) {
    ++c.floorplans;
    c.floorplan_candidates += run.floorplanned;
    c.floorplan_vetoes += run.vetoed;
    if (run.overturned) ++c.floorplan_overturns;
  }
  if (run.replay) {
    ++c.simulations;
    c.simulated_transitions += run.replay->transitions;
    c.simulated_frames += run.replay->frames_loaded;
  }
}

void ServerStats::record_latency(std::uint64_t latency_us) {
  ++counters_.latency_count;
  latencies_.record(latency_us);
}

StatsSnapshot ServerStats::snapshot(std::size_t queue_depth,
                                    std::size_t in_flight) const {
  const MutexLock lock(mutex_);
  StatsSnapshot s = counters_;
  s.queue_depth = queue_depth;
  s.in_flight = in_flight;
  s.p50_latency_us = latencies_.percentile(0.50);
  s.p99_latency_us = latencies_.percentile(0.99);
  return s;
}

}  // namespace prpart::server
