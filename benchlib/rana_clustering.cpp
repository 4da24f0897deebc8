#include "benchlib/rana_clustering.hpp"

#include <algorithm>
#include <map>

#include "device/tiles.hpp"
#include "util/status.hpp"

namespace prpart {

CommunicationGraph::CommunicationGraph(std::size_t modules)
    : bandwidth_(modules, std::vector<double>(modules, 0.0)) {
  require(modules > 0, "communication graph needs at least one module");
}

void CommunicationGraph::set(std::size_t a, std::size_t b, double bandwidth) {
  require(a < modules() && b < modules(), "module index out of range");
  require(bandwidth >= 0.0, "bandwidth must be non-negative");
  require(a != b, "self communication is not modelled");
  bandwidth_[a][b] = bandwidth;
  bandwidth_[b][a] = bandwidth;
}

double CommunicationGraph::at(std::size_t a, std::size_t b) const {
  require(a < modules() && b < modules(), "module index out of range");
  return bandwidth_[a][b];
}

CommunicationGraph CommunicationGraph::random(Rng& rng, std::size_t modules,
                                              double density) {
  CommunicationGraph g(modules);
  for (std::size_t a = 0; a < modules; ++a)
    for (std::size_t b = a + 1; b < modules; ++b)
      if (rng.chance(density)) g.set(a, b, rng.uniform01() + 1e-6);
  return g;
}

ModuleGrouping communication_clustering(const CommunicationGraph& comm,
                                        std::size_t target_regions) {
  const std::size_t n = comm.modules();
  require(target_regions >= 1 && target_regions <= n,
          "target region count must be in [1, modules]");

  ModuleGrouping grouping;
  grouping.groups.resize(n);
  for (std::size_t m = 0; m < n; ++m) grouping.groups[m] = {m};

  auto inter = [&](const std::vector<std::size_t>& a,
                   const std::vector<std::size_t>& b) {
    double sum = 0.0;
    for (std::size_t x : a)
      for (std::size_t y : b) sum += comm.at(x, y);
    return sum;
  };

  while (grouping.groups.size() > target_regions) {
    std::size_t best_a = 0, best_b = 1;
    double best = -1.0;
    for (std::size_t a = 0; a < grouping.groups.size(); ++a)
      for (std::size_t b = a + 1; b < grouping.groups.size(); ++b) {
        const double w = inter(grouping.groups[a], grouping.groups[b]);
        if (w > best) {
          best = w;
          best_a = a;
          best_b = b;
        }
      }
    auto& ga = grouping.groups[best_a];
    auto& gb = grouping.groups[best_b];
    ga.insert(ga.end(), gb.begin(), gb.end());
    std::sort(ga.begin(), ga.end());
    grouping.groups.erase(grouping.groups.begin() +
                          static_cast<std::ptrdiff_t>(best_b));
  }
  return grouping;
}

double intra_group_bandwidth(const CommunicationGraph& comm,
                             const ModuleGrouping& grouping) {
  double sum = 0.0;
  for (const auto& group : grouping.groups)
    for (std::size_t i = 0; i < group.size(); ++i)
      for (std::size_t j = i + 1; j < group.size(); ++j)
        sum += comm.at(group[i], group[j]);
  return sum;
}

SchemeEvaluation evaluate_module_grouping(const Design& design,
                                          const ModuleGrouping& grouping,
                                          const ResourceVec& budget) {
  const std::size_t nconf = design.configurations().size();

  // Validate the grouping covers each module exactly once.
  std::vector<bool> seen(design.modules().size(), false);
  for (const auto& group : grouping.groups)
    for (std::size_t m : group) {
      require(m < seen.size(), "grouping references unknown module");
      require(!seen[m], "grouping lists a module twice");
      seen[m] = true;
    }
  require(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }),
          "grouping must cover every module");

  SchemeEvaluation eval;
  eval.valid = true;

  for (const auto& group : grouping.groups) {
    RegionReport report;
    report.active.assign(nconf, -1);

    // Signature of the group's combined bitstream per configuration: the
    // mode choice of every member module. Distinct signatures are distinct
    // bitstreams; all-absent means the region is not needed.
    std::map<std::vector<std::uint32_t>, int> signatures;
    for (std::size_t c = 0; c < nconf; ++c) {
      const Configuration& conf = design.configurations()[c];
      std::vector<std::uint32_t> sig;
      sig.reserve(group.size());
      ResourceVec area;
      bool any = false;
      for (std::size_t m : group) {
        const std::uint32_t mode = conf.mode_of_module[m];
        sig.push_back(mode);
        if (mode != 0) {
          any = true;
          area += design.modules()[m].modes[mode - 1].area;
        }
      }
      if (!any) continue;
      report.raw = elementwise_max(report.raw, area);
      const auto [it, inserted] = signatures.emplace(
          std::move(sig), static_cast<int>(signatures.size()));
      report.active[c] = it->second;
    }

    report.tiles = tiles_for(report.raw);
    report.frames = report.tiles.frames();
    eval.pr_resources += report.tiles.resources();

    std::uint64_t present = 0, same_pairs = 0;
    std::vector<std::uint64_t> count(signatures.size(), 0);
    for (int a : report.active)
      if (a >= 0) {
        ++present;
        ++count[static_cast<std::size_t>(a)];
      }
    for (std::uint64_t k : count) same_pairs += k * (k - 1) / 2;
    report.reconfig_pairs = present * (present - 1) / 2 - same_pairs;
    eval.total_frames += report.reconfig_pairs * report.frames;
    eval.regions.push_back(std::move(report));
  }

  for (std::size_t i = 0; i < nconf; ++i)
    for (std::size_t j = i + 1; j < nconf; ++j) {
      std::uint64_t frames = 0;
      for (const RegionReport& report : eval.regions) {
        const int a = report.active[i];
        const int b = report.active[j];
        if (a >= 0 && b >= 0 && a != b) frames += report.frames;
      }
      eval.worst_frames = std::max(eval.worst_frames, frames);
    }

  eval.static_resources = design.static_base();
  eval.total_resources = eval.pr_resources + eval.static_resources;
  eval.fits = eval.total_resources.fits_in(budget);
  return eval;
}

}  // namespace prpart
