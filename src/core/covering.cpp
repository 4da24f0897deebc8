#include "core/covering.hpp"

#include <algorithm>
#include <numeric>

namespace prpart {

std::vector<std::size_t> covering_order(
    const std::vector<BasePartition>& partitions) {
  std::vector<std::size_t> order(partitions.size());
  std::iota(order.begin(), order.end(), 0);
  // The key is a full lexicographic strict total order (the master-list
  // index breaks every remaining tie), so plain std::sort yields one
  // well-defined permutation — the enumeration order must not lean on
  // sort stability, because downstream parallel chunking replays it.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const BasePartition& pa = partitions[a];
    const BasePartition& pb = partitions[b];
    const std::size_t na = pa.modes.count();
    const std::size_t nb = pb.modes.count();
    if (na != nb) return na < nb;
    if (pa.frequency_weight != pb.frequency_weight)
      return pa.frequency_weight < pb.frequency_weight;
    if (pa.frames != pb.frames) return pa.frames < pb.frames;
    return a < b;
  });
  return order;
}

CoverResult cover(const std::vector<BasePartition>& partitions,
                  const ConnectivityMatrix& matrix,
                  std::span<const std::size_t> order, std::size_t skip) {
  // Working copy of the connectivity matrix rows; selected partitions zero
  // their modes row by row.
  std::vector<DynBitset> remaining;
  remaining.reserve(matrix.configs());
  for (std::size_t c = 0; c < matrix.configs(); ++c)
    remaining.push_back(matrix.row(c));

  auto all_zero = [&] {
    return std::all_of(remaining.begin(), remaining.end(),
                       [](const DynBitset& r) { return r.none(); });
  };

  CoverResult result;
  for (std::size_t i = skip; i < order.size(); ++i) {
    const BasePartition& p = partitions[order[i]];
    bool covers_new = false;
    for (const DynBitset& row : remaining)
      if (row.intersects(p.modes)) {
        covers_new = true;
        break;
      }
    if (!covers_new) continue;  // not considered as a candidate (§IV-C)
    for (DynBitset& row : remaining) row.subtract(p.modes);
    result.selected.push_back(order[i]);
    if (all_zero()) {
      result.complete = true;
      return result;
    }
  }
  result.complete = all_zero();
  return result;
}

std::vector<CandidateSet> candidate_sets(
    const std::vector<BasePartition>& partitions,
    const ConnectivityMatrix& matrix, std::size_t max_sets,
    const CancelToken* cancel) {
  const std::vector<std::size_t> order = covering_order(partitions);
  std::vector<CandidateSet> sets;
  for (std::size_t skip = 0; skip < order.size(); ++skip) {
    check_cancel(cancel);
    if (sets.size() >= max_sets) break;
    CoverResult cov = cover(partitions, matrix, order, skip);
    if (!cov.complete) break;  // removals only make covering harder
    sets.push_back(std::move(cov.selected));
  }
  return sets;
}

}  // namespace prpart
