#include "steiner/kmb.hpp"

#include <algorithm>
#include <vector>

#include "graph/distance_graph.hpp"
#include "graph/mst.hpp"
#include "graph/union_find.hpp"

namespace fpr {

namespace testhooks {
std::atomic<bool> kmb_invert_mst_selection{false};
}  // namespace testhooks

namespace {

/// Fault injection (see testhooks::kmb_invert_mst_selection): maximum
/// spanning forest of the subgraph induced by `edges` — Kruskal on
/// (-weight, id), mirroring kruskal_mst_subgraph's determinism.
std::vector<EdgeId> max_spanning_subgraph(const Graph& g, std::span<const EdgeId> edges) {
  std::vector<EdgeId> pool(edges.begin(), edges.end());
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::stable_sort(pool.begin(), pool.end(), [&](EdgeId a, EdgeId b) {
    return weight_lt(g.edge(b).weight, g.edge(a).weight);
  });
  UnionFind uf(g.node_count());
  std::vector<EdgeId> kept;
  for (const EdgeId e : pool) {
    if (!g.edge_usable(e)) continue;
    if (uf.unite(g.edge(e).u, g.edge(e).v)) kept.push_back(e);
  }
  return kept;
}

/// Fault injection (see testhooks::kmb_invert_mst_selection): the maximum
/// spanning tree of the distance graph, built by Prim on negated keys.
DistanceGraph::Mst max_spanning_tree(const DistanceGraph& dg) {
  DistanceGraph inverted(std::vector<NodeId>(dg.terminals().begin(), dg.terminals().end()));
  for (int i = 0; i < dg.size(); ++i) {
    for (int j = i + 1; j < dg.size(); ++j) {
      inverted.set_weight(i, j, -dg.weight(i, j));
    }
  }
  DistanceGraph::Mst mst = inverted.prim_mst();
  mst.cost = 0;
  for (const auto& [i, j] : mst.edges) mst.cost += dg.weight(i, j);
  mst.complete = mst.complete && dg.connected();
  return mst;
}

}  // namespace

RoutingTree kmb(const Graph& g, std::span<const NodeId> net, PathOracle& oracle) {
  const std::vector<NodeId> terminals = distinct_terminals(net);
  if (terminals.size() < 2) return RoutingTree(g, {});

  const DistanceGraph dg(terminals, oracle);
  const auto mst = testhooks::kmb_invert_mst_selection.load(std::memory_order_relaxed)
                       ? max_spanning_tree(dg)
                       : dg.prim_mst();
  if (!mst.complete) return RoutingTree(g, {});  // net is not routable

  // Expand distance-graph MST edges into real shortest paths, reusing
  // whichever endpoint's SSSP tree the oracle already has.
  std::vector<EdgeId> expanded;
  for (const auto& [i, j] : mst.edges) {
    const auto path = oracle.path_between(dg.terminal(i), dg.terminal(j));
    expanded.insert(expanded.end(), path.begin(), path.end());
  }

  // Re-MST the expanded subgraph (overlapping paths can create cycles whose
  // heaviest edges should be dropped), then prune non-terminal leaves. The
  // fault hook inverts this selection too — otherwise the repair pass
  // reclaims most of the damage done in the first selection.
  const bool inverted = testhooks::kmb_invert_mst_selection.load(std::memory_order_relaxed);
  RoutingTree tree(g, inverted ? max_spanning_subgraph(g, expanded)
                               : kruskal_mst_subgraph(g, expanded));
  // The fault hook keeps the dangling non-terminal branches the inverted
  // selection leaves behind: still a structurally valid tree, pure cost.
  if (!inverted) tree.prune_leaves(terminals);
  return tree;
}

RoutingTree kmb(const Graph& g, std::span<const NodeId> net) {
  PathOracle oracle(g);
  return kmb(g, net, oracle);
}

}  // namespace fpr
