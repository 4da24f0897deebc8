#include "core/schemes.hpp"

#include "util/status.hpp"

namespace prpart {

std::size_t singleton_partition(const std::vector<BasePartition>& partitions,
                                std::size_t mode) {
  for (std::size_t i = 0; i < partitions.size(); ++i)
    if (partitions[i].modes.count() == 1 && partitions[i].modes.test(mode))
      return i;
  throw InternalError("no singleton base partition for mode " +
                      std::to_string(mode));
}

PartitionScheme make_modular_scheme(
    const Design& design, const ConnectivityMatrix& matrix,
    const std::vector<BasePartition>& partitions) {
  PartitionScheme scheme;
  scheme.label = "one module per region";
  for (std::size_t m = 0; m < design.modules().size(); ++m) {
    Region region;
    for (std::size_t k = 1; k <= design.modules()[m].modes.size(); ++k) {
      const std::size_t mode =
          design.global_mode_id(static_cast<std::uint32_t>(m),
                                static_cast<std::uint32_t>(k));
      if (matrix.node_weight(mode) == 0) continue;  // dead mode
      region.members.push_back(singleton_partition(partitions, mode));
    }
    if (!region.members.empty()) scheme.regions.push_back(std::move(region));
  }
  return scheme;
}

PartitionScheme make_static_scheme(
    const Design& design, const ConnectivityMatrix& matrix,
    const std::vector<BasePartition>& partitions) {
  PartitionScheme scheme;
  scheme.label = "static";
  for (std::size_t mode = 0; mode < design.mode_count(); ++mode) {
    if (matrix.node_weight(mode) == 0) continue;
    scheme.static_members.push_back(singleton_partition(partitions, mode));
  }
  return scheme;
}

ResourceVec single_region_footprint(const Design& design) {
  return tiles_for(design.largest_configuration_area()).resources() +
         design.static_base();
}

std::pair<PartitionScheme, SchemeEvaluation> single_region_scheme(
    const Design& design, const ConnectivityMatrix& matrix,
    const std::vector<BasePartition>& partitions, const ResourceVec& budget) {
  PartitionScheme scheme;
  scheme.label = "single region";
  Region region;
  for (std::size_t c = 0; c < matrix.configs(); ++c) {
    // The full-configuration mode set is always a base partition (it is the
    // maximal co-occurring set of its configuration).
    bool found = false;
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      if (partitions[p].modes == matrix.row(c)) {
        region.members.push_back(p);
        found = true;
        break;
      }
    }
    require(found, "full-configuration base partition missing");
  }
  scheme.regions.push_back(std::move(region));

  SchemeEvaluation eval;
  eval.valid = true;
  RegionReport report;
  report.raw = design.largest_configuration_area();
  report.tiles = tiles_for(report.raw);
  report.frames = report.tiles.frames();
  report.active.resize(matrix.configs());
  for (std::size_t c = 0; c < matrix.configs(); ++c)
    report.active[c] = static_cast<int>(c);

  const std::uint64_t nconf = matrix.configs();
  report.reconfig_pairs = nconf * (nconf - 1) / 2;
  eval.total_frames = report.reconfig_pairs * report.frames;
  eval.worst_frames = nconf >= 2 ? report.frames : 0;
  eval.pr_resources = report.tiles.resources();
  eval.static_resources = design.static_base();
  eval.total_resources = single_region_footprint(design);
  eval.fits = eval.total_resources.fits_in(budget);
  eval.regions.push_back(std::move(report));
  return {std::move(scheme), std::move(eval)};
}

}  // namespace prpart
