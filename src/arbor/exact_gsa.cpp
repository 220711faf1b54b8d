#include "arbor/exact_gsa.hpp"

#include <vector>

#include "arbor/arbor_common.hpp"
#include "steiner/subset_dp.hpp"

namespace fpr {

namespace {

/// Directed tight edge (the far end of an arc, its edge id and weight).
struct TightEdge {
  NodeId v;
  EdgeId id;
  Weight w;
};

}  // namespace

std::optional<RoutingTree> exact_gsa(const Graph& g, std::span<const NodeId> net,
                                     PathOracle& oracle, int max_terminals) {
  if (net.empty()) return RoutingTree(g, {});
  const std::vector<NodeId> terminals = canonical_terminals(net[0], net);
  const NodeId source = terminals[0];
  const int k = static_cast<int>(terminals.size()) - 1;  // sinks only
  if (k > max_terminals) return std::nullopt;
  if (k == 0) return RoutingTree(g, {});

  const auto& dist = oracle.from(source);
  for (const NodeId t : terminals) {
    if (!dist.reached(t)) return std::nullopt;
  }

  // Tight-edge adjacency, indexed by the parent endpoint u: edge u -> v is
  // usable by an arborescence iff d(v) = d(u) + w.
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<std::vector<TightEdge>> out(n);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!g.edge_usable(e)) continue;
    const auto& ed = g.edge(e);
    if (!dist.reached(ed.u) || !dist.reached(ed.v)) continue;
    const Weight w = ed.weight;
    if (weight_eq(dist.distance(ed.v), dist.distance(ed.u) + w)) {
      out[static_cast<std::size_t>(ed.u)].push_back(TightEdge{ed.v, e, w});
    }
    if (weight_eq(dist.distance(ed.u), dist.distance(ed.v) + w)) {
      out[static_cast<std::size_t>(ed.v)].push_back(TightEdge{ed.u, e, w});
    }
  }
  // Reverse adjacency for the relaxation dp[mask][u] <- dp[mask][v] + w(u->v).
  std::vector<std::vector<TightEdge>> in(n);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const auto& te : out[static_cast<std::size_t>(u)]) {
      in[static_cast<std::size_t>(te.v)].push_back(TightEdge{u, te.id, te.w});
    }
  }

  // Grow the rooted tree upward (toward the source) along tight edges.
  const auto sinks = std::span(terminals).subspan(1);
  auto edges = subset_dp(g.node_count(), sinks, source, [&in](NodeId v, auto&& relax) {
    for (const auto& te : in[static_cast<std::size_t>(v)]) relax(te.v, te.id, te.w);
  });
  if (!edges) return std::nullopt;
  return RoutingTree(g, std::move(*edges));
}

std::optional<RoutingTree> exact_gsa(const Graph& g, std::span<const NodeId> net,
                                     int max_terminals) {
  PathOracle oracle(g);
  return exact_gsa(g, net, oracle, max_terminals);
}

}  // namespace fpr
