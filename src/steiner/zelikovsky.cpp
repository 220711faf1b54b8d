#include "steiner/zelikovsky.hpp"

#include <algorithm>
#include <vector>

#include "graph/distance_graph.hpp"
#include "steiner/kmb.hpp"

namespace fpr {

namespace {

struct Triple {
  int a, b, c;        // terminal indices in the distance graph
  NodeId meeting;     // v_z: the node minimizing the summed distances
  Weight dist_sum;    // dist_z
};

/// The 1-median of a terminal triple over all active graph nodes.
/// Deterministic: smallest node id wins ties.
std::pair<NodeId, Weight> triple_median(const Graph& g, PathOracle& oracle, NodeId ta, NodeId tb,
                                        NodeId tc) {
  const auto& da = oracle.from(ta);
  const auto& db = oracle.from(tb);
  const auto& dc = oracle.from(tc);
  NodeId best = kInvalidNode;
  Weight best_sum = kInfiniteWeight;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (!g.node_active(v)) continue;
    const Weight sum = da.distance(v) + db.distance(v) + dc.distance(v);
    if (sum < best_sum) {
      best_sum = sum;
      best = v;
    }
  }
  return {best, best_sum};
}

}  // namespace

RoutingTree zelikovsky(const Graph& g, std::span<const NodeId> net, PathOracle& oracle,
                       ZelMemo* memo) {
  if (memo != nullptr && memo->revision != g.revision()) {
    memo->medians.clear();
    memo->revision = g.revision();
  }
  const std::vector<NodeId> terminals = distinct_terminals(net);
  if (terminals.size() < 3) return kmb(g, terminals, oracle);

  DistanceGraph dg(terminals, oracle);
  if (!dg.connected()) return RoutingTree(g, {});
  const int k = dg.size();

  std::vector<Triple> triples;
  triples.reserve(static_cast<std::size_t>(k) * k * k / 6);
  for (int a = 0; a < k; ++a) {
    for (int b = a + 1; b < k; ++b) {
      for (int c = b + 1; c < k; ++c) {
        std::pair<NodeId, Weight> median;
        if (memo != nullptr) {
          const std::array<NodeId, 3> key{dg.terminal(a), dg.terminal(b), dg.terminal(c)};
          auto [it, fresh] = memo->medians.try_emplace(key);
          if (fresh) {
            it->second = triple_median(g, oracle, key[0], key[1], key[2]);
          }
          median = it->second;
        } else {
          median = triple_median(g, oracle, dg.terminal(a), dg.terminal(b), dg.terminal(c));
        }
        if (median.first != kInvalidNode) {
          triples.push_back(Triple{a, b, c, median.first, median.second});
        }
      }
    }
  }

  std::vector<NodeId> steiner_nodes;
  while (true) {
    const Weight base = dg.prim_mst().cost;
    Weight best_win = 0;
    const Triple* best = nullptr;
    for (const auto& z : triples) {
      // Contract G' around z: zero two of the triple's three edges.
      DistanceGraph contracted = dg;
      contracted.set_weight(z.a, z.b, 0);
      contracted.set_weight(z.b, z.c, 0);
      const Weight win = base - contracted.prim_mst().cost - z.dist_sum;
      if (win > best_win + kWeightTolerance) {
        best_win = win;
        best = &z;
      }
    }
    if (best == nullptr) break;
    dg.set_weight(best->a, best->b, 0);
    dg.set_weight(best->b, best->c, 0);
    steiner_nodes.push_back(best->meeting);
  }

  std::vector<NodeId> span_set = terminals;
  span_set.insert(span_set.end(), steiner_nodes.begin(), steiner_nodes.end());
  RoutingTree tree = kmb(g, span_set, oracle);
  tree.prune_leaves(terminals);
  return tree;
}

RoutingTree zelikovsky(const Graph& g, std::span<const NodeId> net) {
  PathOracle oracle(g);
  return zelikovsky(g, net, oracle);
}

}  // namespace fpr
