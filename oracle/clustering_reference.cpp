#include "oracle/clustering_reference.hpp"

#include <algorithm>
#include <unordered_set>

#include "device/tiles.hpp"
#include "util/status.hpp"

namespace prpart::oracle {

std::vector<BasePartition> enumerate_base_partitions_reference(
    const Design& design, const ConnectivityMatrix& matrix) {
  const std::size_t n = matrix.modes();
  std::unordered_set<DynBitset, DynBitsetHash> seen;
  std::vector<BasePartition> out;

  for (std::size_t c = 0; c < matrix.configs(); ++c) {
    const std::vector<std::size_t> present = matrix.row(c).bits();
    require(present.size() < 20, "oracle limited to narrow configurations");
    const std::size_t subsets = std::size_t{1} << present.size();
    for (std::size_t mask = 1; mask < subsets; ++mask) {
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < present.size(); ++i)
        if (mask & (std::size_t{1} << i)) members.push_back(present[i]);
      DynBitset set(n);
      for (std::size_t m : members) set.set(m);
      if (!seen.insert(set).second) continue;

      BasePartition p;
      p.frequency_weight = members.size() == 1 ? matrix.node_weight(members[0])
                                               : ~0u;
      for (std::size_t a = 0; a < members.size(); ++a)
        for (std::size_t b = a + 1; b < members.size(); ++b)
          p.frequency_weight = std::min(
              p.frequency_weight, matrix.edge_weight(members[a], members[b]));
      p.edges = static_cast<std::uint32_t>(members.size() *
                                           (members.size() - 1) / 2);
      for (std::size_t m : members) p.area += design.mode_area(m);
      p.frames = frames_for(p.area);
      p.modes = std::move(set);
      out.push_back(std::move(p));
    }
  }
  return out;
}

}  // namespace prpart::oracle
