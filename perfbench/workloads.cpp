// Seeded request streams of the three workloads. The server only ever sees
// the lines built here; nothing in them names the workload.

#include <algorithm>

#include "design/io_xml.hpp"
#include "design/synthetic.hpp"
#include "perfbench.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit(std::uint64_t& state) {
  return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
}

/// Fisher-Yates over 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t& state) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(p[i - 1], p[splitmix(state) % i]);
  return p;
}

// Suite seeds of the fixed (seed-independent) design pools. scheme_frames_sum
// sums the served answers over a pool, so it reads the same for every seed.
constexpr std::uint64_t kColdPoolSuite = 1013;
constexpr std::uint64_t kWarmPoolSuite = 2013;
constexpr std::uint64_t kPlacementPoolSuite = 3013;

std::uint64_t pool_suite(const std::string& workload) {
  if (workload == "cold_sweep") return kColdPoolSuite;
  if (workload == "warm_hits") return kWarmPoolSuite;
  return kPlacementPoolSuite;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v(3);
    v[0].name = "cold_sweep";
    v[0].pool = 384;
    v[1].name = "warm_hits";
    v[1].cache = 64;
    v[1].store = true;
    v[1].window = 8;
    v[1].pool = 4 * v[1].cache;  // working set: 4x the RAM cache
    v[2].name = "placement_sim";
    v[2].workers = 4;
    v[2].pool = 128;
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

Stream::Stream(const WorkloadSpec& spec, std::uint64_t seed) : spec_(spec) {
  static constexpr prpart::CircuitClass kClasses[] = {
      prpart::CircuitClass::Logic, prpart::CircuitClass::Memory,
      prpart::CircuitClass::Dsp, prpart::CircuitClass::DspAndMemory};
  rng_state_ = seed * 0x2545f4914f6cdd1dull + 0x5eed;
  const std::uint64_t suite = pool_suite(spec.name);
  for (std::size_t j = 0; j < spec.pool; ++j) {
    // Design j of generate_synthetic_suite(suite, ...), generated in
    // isolation with the suite's per-design seeding.
    prpart::Rng rng(suite * 0x9e3779b97f4a7c15ull + j);
    const prpart::SyntheticDesign s =
        prpart::generate_synthetic(rng, kClasses[j % 4]);
    designs_.emplace_back("syn" + std::to_string(suite) + "-" +
                              std::to_string(j) + "-c0",
                          s.design.static_base(), s.design.modules(),
                          s.design.configurations());
    PoolJob job;
    if (spec.name == "placement_sim") {
      // Pool design j always gets the same job kind, so the pool's frame
      // sum does not depend on the seed.
      job.kind = j % 2 == 0 ? JobKind::Floorplan : JobKind::Simulate;
      job.prefetch = (j / 2) % 2 == 1;
    }
    job.trace_seed = 1 + splitmix(rng_state_) % 1'000'000;
    pool_jobs_.push_back(job);
  }
  for (std::size_t j = 0; j < spec.pool; ++j) add_template(j, 0);
  order_ = pass_order();
  if (spec.name == "warm_hits") {
    // Zipf(1) popularity over the working set; order_ maps rank -> design.
    double total = 0;
    for (std::size_t r = 0; r < spec.pool; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

std::vector<std::size_t> Stream::pass_order() {
  const std::vector<std::size_t> perm = permutation(spec_.pool, rng_state_);
  if (spec_.name != "placement_sim") return perm;
  // Strict floorplan / simulate alternation, each half in seeded order.
  std::vector<std::size_t> fp;
  std::vector<std::size_t> sim;
  for (const std::size_t j : perm)
    (pool_jobs_[j].kind == JobKind::Floorplan ? fp : sim).push_back(j);
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < std::max(fp.size(), sim.size()); ++i) {
    if (i < fp.size()) order.push_back(fp[i]);
    if (i < sim.size()) order.push_back(sim[i]);
  }
  return order;
}

std::size_t Stream::add_template(std::size_t pool_index, std::size_t cycle) {
  std::size_t design = pool_index;
  if (cycle > 0) {
    // The same design under a new name: a distinct cache key, same work.
    const prpart::Design& base = designs_[pool_index];
    std::string name = base.name();
    name.resize(name.size() - 1);  // drop the cycle number "0"
    designs_.emplace_back(name + std::to_string(cycle), base.static_base(),
                          base.modules(), base.configurations());
    design = designs_.size() - 1;
  }
  const PoolJob& job = pool_jobs_[pool_index];
  const char* type = job.kind == JobKind::Partition   ? "partition"
                     : job.kind == JobKind::Floorplan ? "floorplan"
                                                      : "simulate";
  Template t;
  t.design = design;
  t.pool_index = pool_index;
  t.cycle = cycle;
  t.kind = job.kind;
  t.head = std::string("{\"type\":\"") + type + "\",\"id\":\"";
  t.tail = "\",\"design_xml\":" +
           prpart::json::escape(prpart::design_to_xml(designs_[design]));
  if (job.kind == JobKind::Simulate) {
    t.tail += ",\"seed\":" + std::to_string(job.trace_seed);
    t.tail += std::string(",\"prefetch\":") + (job.prefetch ? "true" : "false");
  }
  t.tail += "}";
  templates_.push_back(std::move(t));
  return templates_.size() - 1;
}

std::size_t Stream::at(std::size_t k) {
  while (sequence_.size() <= k) {
    const std::size_t n = sequence_.size();
    if (!zipf_cdf_.empty()) {
      const double u = unit(rng_state_);
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
      sequence_.push_back(order_[std::min(rank, order_.size() - 1)]);
      continue;
    }
    const std::size_t cycle = n / spec_.pool;
    const std::size_t pos = n % spec_.pool;
    if (cycle > 0 && pos == 0) order_ = pass_order();
    const std::size_t j = order_[pos];
    sequence_.push_back(cycle == 0 ? j : add_template(j, cycle));
  }
  return sequence_[k];
}

std::vector<std::size_t> Stream::preparation() const {
  if (!spec_.store) return {};
  return order_;
}

std::string Stream::id(std::size_t seq) const {
  return "r" + std::to_string(seq);
}

}  // namespace perfbench
