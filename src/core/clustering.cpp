#include "core/clustering.hpp"

#include <algorithm>
#include <unordered_set>

#include "device/tiles.hpp"
#include "util/status.hpp"

namespace prpart {

namespace {

ResourceVec sum_area(const Design& design, const DynBitset& modes) {
  ResourceVec area;
  for (std::size_t m : modes.bits()) area += design.mode_area(m);
  return area;
}

std::uint32_t min_edge_weight(const ConnectivityMatrix& matrix,
                              const DynBitset& modes) {
  const std::vector<std::size_t> ms = modes.bits();
  std::uint32_t w = ~0u;
  for (std::size_t a = 0; a < ms.size(); ++a)
    for (std::size_t b = a + 1; b < ms.size(); ++b)
      w = std::min(w, matrix.edge_weight(ms[a], ms[b]));
  return w;
}

BasePartition make_partition(const Design& design,
                             const ConnectivityMatrix& matrix,
                             DynBitset modes) {
  BasePartition p;
  const std::size_t n = modes.count();
  p.frequency_weight = n == 1
                           ? matrix.node_weight(modes.bits().front())
                           : min_edge_weight(matrix, modes);
  p.edges = static_cast<std::uint32_t>(n * (n - 1) / 2);
  p.area = sum_area(design, modes);
  p.frames = frames_for(p.area);
  p.modes = std::move(modes);
  return p;
}

}  // namespace

std::vector<BasePartition> enumerate_base_partitions(
    const Design& design, const ConnectivityMatrix& matrix,
    std::size_t max_modes) {
  require(max_modes == 0 || max_modes >= 2,
          "max_modes must be 0 (unlimited) or at least 2");
  const std::size_t n = matrix.modes();
  std::vector<BasePartition> out;

  // k=0 sub-graphs: every mode that occurs at all, in column order.
  for (std::size_t m = 0; m < n; ++m) {
    if (matrix.node_weight(m) == 0) continue;  // dead mode: no partition
    DynBitset bits(n);
    bits.set(m);
    out.push_back(make_partition(design, matrix, std::move(bits)));
  }

  // Positive-weight links, descending weight (the agglomerative metric),
  // ties broken by column order for determinism.
  struct Link {
    std::size_t a, b;
    std::uint32_t weight;
  };
  std::vector<Link> links;
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b)
      if (const std::uint32_t w = matrix.edge_weight(a, b); w > 0)
        links.push_back({a, b, w});
  // Full total order ((a, b) breaks weight ties), so std::sort is exact.
  std::sort(links.begin(), links.end(), [](const Link& x, const Link& y) {
    if (x.weight != y.weight) return x.weight > y.weight;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });

  std::vector<DynBitset> adjacency(n, DynBitset(n));
  std::unordered_set<DynBitset, DynBitsetHash> seen;

  // Records `set` as a base partition; duplicates would indicate a bug in
  // the "clique found exactly once, when its last edge arrives" argument.
  auto record = [&](const DynBitset& set) {
    require(seen.insert(set).second,
            "clustering produced a duplicate base partition");
    out.push_back(make_partition(design, matrix, set));
  };

  // Depth-first extension of the clique `current` by candidates (indices
  // into `cands` from `from` on), each adjacent to every member of
  // `current`. The co-occurrence filter prunes: if `current` is not a
  // subset of any configuration, no superset is either.
  auto extend = [&](auto&& self, const DynBitset& current,
                    const std::vector<std::size_t>& cands,
                    std::size_t from) -> void {
    record(current);
    if (max_modes != 0 && current.count() >= max_modes) return;
    for (std::size_t i = from; i < cands.size(); ++i) {
      const std::size_t c = cands[i];
      DynBitset next = current;
      next.set(c);
      if (matrix.cooccurrence(next) == 0) continue;
      std::vector<std::size_t> next_cands;
      for (std::size_t j = i + 1; j < cands.size(); ++j)
        if (adjacency[c].test(cands[j])) next_cands.push_back(cands[j]);
      self(self, next, next_cands, 0);
    }
  };

  for (const Link& link : links) {
    adjacency[link.a].set(link.b);
    adjacency[link.b].set(link.a);

    DynBitset pair(n);
    pair.set(link.a);
    pair.set(link.b);
    // Every clique completed by this link contains both endpoints; its other
    // members are common neighbours of them.
    std::vector<std::size_t> common =
        (adjacency[link.a] & adjacency[link.b]).bits();
    extend(extend, pair, common, 0);
  }

  // The full-configuration sets are base partitions by construction (the
  // maximal co-occurring sets); keep them available even when a cap pruned
  // the enumeration, since the single-region scheme is built from them.
  if (max_modes != 0) {
    for (std::size_t c = 0; c < matrix.configs(); ++c) {
      const DynBitset& row = matrix.row(c);
      if (row.count() > 1 && !seen.count(row)) record(row);
    }
  }

  return out;
}

}  // namespace prpart
