#include "steiner/exact_gmst.hpp"

#include <vector>

#include "steiner/subset_dp.hpp"

namespace fpr {

std::optional<RoutingTree> exact_gmst(const Graph& g, std::span<const NodeId> net,
                                      PathOracle& /*oracle*/, int max_terminals) {
  const std::vector<NodeId> terminals = distinct_terminals(net);
  const int k = static_cast<int>(terminals.size());
  if (k > max_terminals) return std::nullopt;
  if (k < 2) return RoutingTree(g, {});
  for (const NodeId t : terminals) {
    if (!g.node_active(t)) return std::nullopt;
  }

  // Every usable graph edge, in both directions.
  auto edges = subset_dp(g.node_count(), terminals, terminals[0], [&g](NodeId u, auto&& relax) {
    for (const EdgeId e : g.incident_edges(u)) {
      if (g.edge_usable(e)) relax(g.other_end(e, u), e, g.edge_weight(e));
    }
  });
  if (!edges) return std::nullopt;
  RoutingTree tree(g, std::move(*edges));
  tree.prune_leaves(terminals);
  return tree;
}

std::optional<RoutingTree> exact_gmst(const Graph& g, std::span<const NodeId> net,
                                      int max_terminals) {
  PathOracle oracle(g);
  return exact_gmst(g, net, oracle, max_terminals);
}

}  // namespace fpr
