#include "arbor/arbor_common.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>

namespace fpr {

SubgraphSpt dijkstra_on_edges(const Graph& g, NodeId source, std::span<const EdgeId> edges) {
  std::unordered_map<NodeId, std::vector<EdgeId>> adj;
  for (const EdgeId e : edges) {
    const auto& ed = g.edge(e);
    adj[ed.u].push_back(e);
    adj[ed.v].push_back(e);
  }

  SubgraphSpt spt;
  using Entry = std::pair<Weight, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  spt.dist[source] = 0;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    const auto du = spt.dist.find(u);
    if (du == spt.dist.end() || d > du->second) continue;
    const auto it = adj.find(u);
    if (it == adj.end()) continue;
    for (const EdgeId e : it->second) {
      const NodeId v = g.other_end(e, u);
      const Weight nd = d + g.edge_weight(e);
      const auto dv = spt.dist.find(v);
      if (dv == spt.dist.end() || nd < dv->second) {
        spt.dist[v] = nd;
        spt.parent[v] = u;
        spt.parent_edge[v] = e;
        heap.emplace(nd, v);
      }
    }
  }
  return spt;
}

std::vector<NodeId> canonical_terminals(NodeId source, std::span<const NodeId> net) {
  std::vector<NodeId> terminals = distinct_terminals(net);
  std::erase(terminals, source);
  terminals.insert(terminals.begin(), source);
  return terminals;
}

RoutingTree arborescence_from_union(const Graph& g, NodeId source, std::span<const NodeId> sinks,
                                    std::vector<EdgeId> union_edges, PathOracle& oracle) {
  const auto& truth = oracle.from(source);

  SubgraphSpt spt = dijkstra_on_edges(g, source, union_edges);
  bool patched = false;
  for (const NodeId s : sinks) {
    if (!truth.reached(s)) continue;  // unreachable in G itself: nothing to do
    const auto it = spt.dist.find(s);
    if (it == spt.dist.end() || weight_lt(truth.distance(s), it->second)) {
      // Degenerate union (see header): splice in a true shortest path.
      const auto fix = truth.path_edges_to(s);
      union_edges.insert(union_edges.end(), fix.begin(), fix.end());
      patched = true;
    }
  }
  if (patched) spt = dijkstra_on_edges(g, source, union_edges);

  std::vector<EdgeId> tree_edges;
  for (const NodeId s : sinks) {
    if (spt.dist.find(s) == spt.dist.end()) continue;  // genuinely unreachable
    NodeId v = s;
    while (v != source) {
      tree_edges.push_back(spt.parent_edge.at(v));
      v = spt.parent.at(v);
    }
  }
  return RoutingTree(g, std::move(tree_edges));
}

}  // namespace fpr
