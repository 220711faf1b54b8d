#include "graph/routing_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "core/rng.hpp"
#include "graph/grid.hpp"
#include "graph/union_find.hpp"

namespace fpr {
namespace {

class RoutingTreeTest : public ::testing::Test {
 protected:
  RoutingTreeTest() : grid_(4, 4) {}
  GridGraph grid_;
};

TEST_F(RoutingTreeTest, EmptyTree) {
  RoutingTree t(grid_.graph(), {});
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.is_tree());
  EXPECT_DOUBLE_EQ(t.cost(), 0);
  const std::vector<NodeId> one{grid_.node_at(0, 0)};
  EXPECT_TRUE(t.spans(one));  // single-terminal nets need no wiring
  const std::vector<NodeId> two{grid_.node_at(0, 0), grid_.node_at(1, 1)};
  EXPECT_FALSE(t.spans(two));
}

TEST_F(RoutingTreeTest, NonEmptyTreeMustContainLoneTerminal) {
  // Regression: spans() used to return true for ANY single-terminal query,
  // even when a non-empty tree did not touch that terminal — a wiring for
  // the wrong net passed as a routing of a lone pin.
  RoutingTree t(grid_.graph(), {grid_.horizontal_edge(0, 0)});
  const std::vector<NodeId> elsewhere{grid_.node_at(3, 3)};
  EXPECT_FALSE(t.spans(elsewhere));
  const std::vector<NodeId> touched{grid_.node_at(0, 0)};
  EXPECT_TRUE(t.spans(touched));
}

TEST_F(RoutingTreeTest, DedupesEdges) {
  const EdgeId e = grid_.horizontal_edge(0, 0);
  RoutingTree t(grid_.graph(), {e, e, e});
  EXPECT_EQ(t.edges().size(), 1u);
  EXPECT_DOUBLE_EQ(t.cost(), 1);
}

TEST_F(RoutingTreeTest, PathCostAlongL) {
  // Route (0,0) -> (2,0) -> (2,2).
  const std::vector<EdgeId> edges{
      grid_.horizontal_edge(0, 0), grid_.horizontal_edge(1, 0),
      grid_.vertical_edge(2, 0),   grid_.vertical_edge(2, 1),
  };
  RoutingTree t(grid_.graph(), edges);
  EXPECT_TRUE(t.is_tree());
  EXPECT_DOUBLE_EQ(t.cost(), 4);
  EXPECT_DOUBLE_EQ(t.path_length(grid_.node_at(0, 0), grid_.node_at(2, 2)), 4);
  EXPECT_DOUBLE_EQ(t.path_length(grid_.node_at(2, 0), grid_.node_at(2, 2)), 2);
  EXPECT_DOUBLE_EQ(t.path_length(grid_.node_at(0, 0), grid_.node_at(0, 0)), 0);
}

TEST_F(RoutingTreeTest, CycleIsNotATree) {
  const std::vector<EdgeId> edges{
      grid_.horizontal_edge(0, 0), grid_.vertical_edge(1, 0),
      grid_.horizontal_edge(0, 1), grid_.vertical_edge(0, 0),
  };
  RoutingTree t(grid_.graph(), edges);
  EXPECT_FALSE(t.is_tree());
}

TEST_F(RoutingTreeTest, DisconnectedForestIsNotATree) {
  const std::vector<EdgeId> edges{grid_.horizontal_edge(0, 0), grid_.horizontal_edge(2, 3)};
  RoutingTree t(grid_.graph(), edges);
  EXPECT_FALSE(t.is_tree());
}

TEST_F(RoutingTreeTest, SpansChecksConnectivityNotJustPresence) {
  const std::vector<EdgeId> edges{grid_.horizontal_edge(0, 0), grid_.horizontal_edge(2, 3)};
  RoutingTree t(grid_.graph(), edges);
  const std::vector<NodeId> terminals{grid_.node_at(0, 0), grid_.node_at(2, 3)};
  EXPECT_FALSE(t.spans(terminals));  // both touched, not connected
}

TEST_F(RoutingTreeTest, MaxPathLength) {
  // Star from (1,1) to three neighbors.
  const std::vector<EdgeId> edges{
      grid_.horizontal_edge(0, 1),  // (0,1)-(1,1)
      grid_.horizontal_edge(1, 1),  // (1,1)-(2,1)
      grid_.vertical_edge(1, 1),    // (1,1)-(1,2)
      grid_.vertical_edge(1, 2),    // (1,2)-(1,3)
  };
  RoutingTree t(grid_.graph(), edges);
  const NodeId src = grid_.node_at(1, 1);
  const std::vector<NodeId> sinks{grid_.node_at(0, 1), grid_.node_at(2, 1), grid_.node_at(1, 3)};
  EXPECT_DOUBLE_EQ(t.max_path_length(src, sinks), 2);
}

TEST_F(RoutingTreeTest, MaxPathLengthUnreachedSinkIsInfinite) {
  RoutingTree t(grid_.graph(), {grid_.horizontal_edge(0, 0)});
  const std::vector<NodeId> sinks{grid_.node_at(3, 3)};
  EXPECT_EQ(t.max_path_length(grid_.node_at(0, 0), sinks), kInfiniteWeight);
}

TEST_F(RoutingTreeTest, PruneLeavesRemovesDanglingBranch) {
  // Path (0,0)-(1,0)-(2,0) plus dangling branch (1,0)-(1,1)-(1,2).
  const std::vector<EdgeId> edges{
      grid_.horizontal_edge(0, 0), grid_.horizontal_edge(1, 0),
      grid_.vertical_edge(1, 0),   grid_.vertical_edge(1, 1),
  };
  RoutingTree t(grid_.graph(), edges);
  const std::vector<NodeId> keep{grid_.node_at(0, 0), grid_.node_at(2, 0)};
  t.prune_leaves(keep);
  EXPECT_EQ(t.edges().size(), 2u);
  EXPECT_TRUE(t.spans(keep));
  EXPECT_FALSE(t.contains_node(grid_.node_at(1, 2)));
  EXPECT_FALSE(t.contains_node(grid_.node_at(1, 1)));
}

TEST_F(RoutingTreeTest, PruneKeepsInteriorSteinerNodes) {
  // Star centered at (1,1); the center is not in keep but has degree 3.
  const std::vector<EdgeId> edges{
      grid_.horizontal_edge(0, 1),
      grid_.horizontal_edge(1, 1),
      grid_.vertical_edge(1, 1),
  };
  RoutingTree t(grid_.graph(), edges);
  const std::vector<NodeId> keep{grid_.node_at(0, 1), grid_.node_at(2, 1), grid_.node_at(1, 2)};
  t.prune_leaves(keep);
  EXPECT_EQ(t.edges().size(), 3u);
  EXPECT_TRUE(t.contains_node(grid_.node_at(1, 1)));
}

TEST_F(RoutingTreeTest, PruneCascades) {
  // Chain (0,0)-(1,0)-(2,0)-(3,0); keep only (0,0): everything prunes away.
  const std::vector<EdgeId> edges{
      grid_.horizontal_edge(0, 0), grid_.horizontal_edge(1, 0), grid_.horizontal_edge(2, 0)};
  RoutingTree t(grid_.graph(), edges);
  const std::vector<NodeId> keep{grid_.node_at(0, 0)};
  t.prune_leaves(keep);
  EXPECT_TRUE(t.empty());
}

TEST_F(RoutingTreeTest, NodesSortedAndUnique) {
  const std::vector<EdgeId> edges{grid_.horizontal_edge(0, 0), grid_.vertical_edge(1, 0)};
  RoutingTree t(grid_.graph(), edges);
  const auto nodes = t.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
}

/// The hash-map RoutingTree this class replaced, on a std::map adjacency:
/// each node's entries in ascending edge id, FIFO walks with first arrival,
/// and a prune that sweeps every node until a sweep removes nothing.
class ReferenceTree {
 public:
  ReferenceTree(const Graph& g, std::vector<EdgeId> edges) : g_(&g), edges_(std::move(edges)) {
    std::sort(edges_.begin(), edges_.end());
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
    rebuild();
  }

  const std::vector<EdgeId>& edges() const { return edges_; }

  std::vector<NodeId> nodes() const {
    std::vector<NodeId> result;
    for (const auto& [v, inc] : adj_) result.push_back(v);
    return result;
  }

  bool is_tree() const {
    if (edges_.empty()) return true;
    if (adj_.size() != edges_.size() + 1) return false;
    return walk(adj_.begin()->first, false).size() == adj_.size();
  }

  bool spans(const std::vector<NodeId>& terminals) const {
    if (terminals.empty()) return true;
    if (terminals.size() == 1) return edges_.empty() || adj_.count(terminals[0]) > 0;
    for (const NodeId t : terminals) {
      if (adj_.count(t) == 0) return false;
    }
    const auto seen = walk(terminals[0], false);
    return std::all_of(terminals.begin(), terminals.end(),
                       [&](NodeId t) { return seen.count(t) > 0; });
  }

  Weight path_length(NodeId from, NodeId to) const {
    if (from == to) return 0;
    if (adj_.count(from) == 0 || adj_.count(to) == 0) return kInfiniteWeight;
    const auto dist = walk(from, false);
    const auto it = dist.find(to);
    return it == dist.end() ? kInfiniteWeight : it->second;
  }

  Weight max_path_length(NodeId source, const std::vector<NodeId>& sinks) const {
    if (sinks.empty()) return 0;
    if (adj_.count(source) == 0) return kInfiniteWeight;
    const auto dist = walk(source, false);
    Weight worst = 0;
    for (const NodeId s : sinks) {
      const auto it = dist.find(s);
      if (it == dist.end()) return kInfiniteWeight;
      worst = std::max(worst, it->second);
    }
    return worst;
  }

  int max_path_edge_count(NodeId source, const std::vector<NodeId>& sinks) const {
    if (sinks.empty()) return 0;
    if (adj_.count(source) == 0) return -1;
    const auto hops = walk(source, true);
    int worst = 0;
    for (const NodeId s : sinks) {
      const auto it = hops.find(s);
      if (it == hops.end()) return -1;
      worst = std::max(worst, static_cast<int>(it->second));
    }
    return worst;
  }

  void prune_leaves(const std::vector<NodeId>& keep) {
    const std::set<NodeId> keep_set(keep.begin(), keep.end());
    std::set<EdgeId> removed;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [v, inc] : adj_) {
        if (keep_set.count(v) > 0) continue;
        EdgeId live_edge = kInvalidEdge;
        int live = 0;
        for (const auto& [e, other] : inc) {
          if (removed.count(e) == 0) {
            live_edge = e;
            ++live;
          }
        }
        if (live == 1) {
          removed.insert(live_edge);
          changed = true;
        }
      }
    }
    std::erase_if(edges_, [&](EdgeId e) { return removed.count(e) > 0; });
    rebuild();
  }

 private:
  void rebuild() {
    adj_.clear();
    for (const EdgeId e : edges_) {
      adj_[g_->edge(e).u].emplace_back(e, g_->edge(e).v);
      adj_[g_->edge(e).v].emplace_back(e, g_->edge(e).u);
    }
  }

  /// First-arrival FIFO walk: cost (or hop count) of every node reached.
  std::map<NodeId, Weight> walk(NodeId root, bool hops) const {
    std::map<NodeId, Weight> dist{{root, 0}};
    std::deque<NodeId> frontier{root};
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (const auto& [e, v] : adj_.at(u)) {
        const Weight step = hops ? 1 : g_->edge_weight(e);
        if (dist.emplace(v, dist[u] + step).second) frontier.push_back(v);
      }
    }
    return dist;
  }

  const Graph* g_;
  std::vector<EdgeId> edges_;
  std::map<NodeId, std::vector<std::pair<EdgeId, NodeId>>> adj_;
};

std::vector<NodeId> random_nodes(SplitMixRng& rng, NodeId n, int count) {
  std::vector<NodeId> picked;
  for (int i = 0; i < count; ++i) picked.push_back(static_cast<NodeId>(rng.below(n)));
  return picked;
}

void expect_same_queries(const Graph& g, const RoutingTree& tree, const ReferenceTree& ref,
                         SplitMixRng& rng) {
  ASSERT_EQ(tree.edges(), ref.edges());
  const std::vector<NodeId> nodes = ref.nodes();
  ASSERT_EQ(tree.nodes(), nodes);
  EXPECT_EQ(tree.is_tree(), ref.is_tree());
  const NodeId n = g.node_count();
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(tree.contains_node(v), std::binary_search(nodes.begin(), nodes.end(), v));
    for (NodeId w = 0; w < n; ++w) EXPECT_EQ(tree.path_length(v, w), ref.path_length(v, w));
  }
  for (int q = 0; q < 8; ++q) {
    const auto terminals = random_nodes(rng, n, static_cast<int>(rng.below(5)));
    EXPECT_EQ(tree.spans(terminals), ref.spans(terminals));
    const NodeId source = static_cast<NodeId>(rng.below(n));
    EXPECT_EQ(tree.max_path_length(source, terminals), ref.max_path_length(source, terminals));
    EXPECT_EQ(tree.max_path_edge_count(source, terminals),
              ref.max_path_edge_count(source, terminals));
  }
}

TEST(RoutingTreeReferenceTest, MatchesNaiveReferenceOnRandomEdgeSets) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE(seed);
    SplitMixRng rng(mix64(seed, 0x7265));
    // A multigraph: parallel edges with their own weights, so walks over
    // cycles have distinct first-arrival answers.
    const NodeId n = 12;
    Graph g(n);
    for (int i = 0; i < 30; ++i) {
      const NodeId u = static_cast<NodeId>(rng.below(n));
      const NodeId v = static_cast<NodeId>(rng.below(n));
      if (u != v) g.add_edge(u, v, 0.5 * static_cast<double>(1 + rng.below(6)));
    }
    std::vector<EdgeId> edges;
    switch (seed % 3) {
      case 0: {  // a random forest
        UnionFind uf(n);
        for (int i = 0; i < 20; ++i) {
          const EdgeId e = static_cast<EdgeId>(rng.below(g.edge_count()));
          if (uf.unite(g.edge(e).u, g.edge(e).v)) edges.push_back(e);
        }
        break;
      }
      case 1:  // any subset: cycles, parallel edges, several components
        for (EdgeId e = 0; e < g.edge_count(); ++e) {
          if (rng.below(3) == 0) edges.push_back(e);
        }
        break;
      default:  // drawn with replacement: duplicate ids
        for (int i = 0; i < 14; ++i) edges.push_back(static_cast<EdgeId>(rng.below(g.edge_count())));
        break;
    }
    RoutingTree tree(g, edges);
    ReferenceTree ref(g, edges);
    expect_same_queries(g, tree, ref, rng);

    // Keep sets from none at all to several nodes, some outside the tree:
    // components without a kept node prune away entirely.
    const auto keep = random_nodes(rng, n, static_cast<int>(rng.below(5)));
    tree.prune_leaves(keep);
    ref.prune_leaves(keep);
    expect_same_queries(g, tree, ref, rng);
  }
}

}  // namespace
}  // namespace fpr
