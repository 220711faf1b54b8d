#include "graph/mst.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "graph/union_find.hpp"

namespace fpr {

std::vector<EdgeId> kruskal_mst_subgraph(const Graph& g, std::span<const EdgeId> edges) {
  // Kruskal order is (weight, edge id); weights are read once, not per
  // comparison, and a repeated id sorts next to itself and is dropped.
  std::vector<std::pair<Weight, EdgeId>> order;
  order.reserve(edges.size());
  for (const EdgeId e : edges) {
    if (g.edge_usable(e)) order.emplace_back(g.edge_weight(e), e);
  }
  std::sort(order.begin(), order.end());
  order.erase(std::unique(order.begin(), order.end()), order.end());

  // Compact node ids so the union-find is sized to the subgraph, not |V|.
  std::vector<NodeId> ends;
  ends.reserve(2 * order.size());
  for (const auto& [w, e] : order) {
    const auto ed = g.edge(e);
    ends.push_back(ed.u);
    ends.push_back(ed.v);
  }
  std::vector<NodeId> nodes = ends;
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  auto id_of = [&](NodeId v) {
    return static_cast<std::int32_t>(std::lower_bound(nodes.begin(), nodes.end(), v) - nodes.begin());
  };

  UnionFind uf(static_cast<std::int32_t>(nodes.size()));
  std::vector<EdgeId> mst;
  mst.reserve(nodes.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (uf.unite(id_of(ends[2 * k]), id_of(ends[2 * k + 1]))) mst.push_back(order[k].second);
  }
  return mst;
}

std::vector<EdgeId> kruskal_mst(const Graph& g) {
  std::vector<EdgeId> all(static_cast<std::size_t>(g.edge_count()));
  std::iota(all.begin(), all.end(), 0);
  return kruskal_mst_subgraph(g, all);
}

Weight edge_set_cost(const Graph& g, std::span<const EdgeId> edges) {
  Weight sum = 0;
  for (const EdgeId e : edges) sum += g.edge_weight(e);
  return sum;
}

}  // namespace fpr
