#include "graph/mst.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/rng.hpp"
#include "graph/union_find.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

TEST(MstTest, TriangleKeepsTwoLightestEdges) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  const EdgeId heavy = g.add_edge(0, 2, 5);
  const auto mst = kruskal_mst(g);
  ASSERT_EQ(mst.size(), 2u);
  EXPECT_EQ(std::count(mst.begin(), mst.end(), heavy), 0);
  EXPECT_DOUBLE_EQ(edge_set_cost(g, mst), 3);
}

TEST(MstTest, SkipsInactiveEdges) {
  Graph g(3);
  const EdgeId cheap = g.add_edge(0, 1, 1);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 2, 2);
  g.remove_edge(cheap);
  const auto mst = kruskal_mst(g);
  EXPECT_DOUBLE_EQ(edge_set_cost(g, mst), 5);
}

TEST(MstTest, DisconnectedGraphYieldsForest) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  const auto mst = kruskal_mst(g);
  EXPECT_EQ(mst.size(), 2u);
}

TEST(MstTest, SubgraphRestrictsEdgePool) {
  Graph g(3);
  const EdgeId a = g.add_edge(0, 1, 5);
  const EdgeId b = g.add_edge(1, 2, 5);
  g.add_edge(0, 2, 1);  // cheapest, but not offered
  const std::vector<EdgeId> pool{a, b, a};
  const auto mst = kruskal_mst_subgraph(g, pool);
  ASSERT_EQ(mst.size(), 2u);
  EXPECT_DOUBLE_EQ(edge_set_cost(g, mst), 10);
}

TEST(MstTest, EmptyPool) {
  Graph g(2);
  g.add_edge(0, 1, 1);
  EXPECT_TRUE(kruskal_mst_subgraph(g, {}).empty());
}

TEST(MstTest, DeterministicTieBreakByEdgeId) {
  Graph g(3);
  const EdgeId first = g.add_edge(0, 1, 1);
  g.add_edge(0, 1, 1);  // parallel duplicate, same weight
  const EdgeId c = g.add_edge(1, 2, 1);
  const auto mst = kruskal_mst(g);
  ASSERT_EQ(mst.size(), 2u);
  EXPECT_TRUE(std::count(mst.begin(), mst.end(), first) == 1);
  EXPECT_TRUE(std::count(mst.begin(), mst.end(), c) == 1);

  // The subgraph form follows the same rule whatever order and repeats the
  // pool comes in: the lowest id wins among equal weights.
  const EdgeId second = first + 1;
  const std::vector<EdgeId> shuffled{c, second, first, c, second};
  EXPECT_EQ(kruskal_mst_subgraph(g, shuffled), (std::vector<EdgeId>{first, c}));
  const std::vector<EdgeId> without_first{c, second, c};
  EXPECT_EQ(kruskal_mst_subgraph(g, without_first), (std::vector<EdgeId>{second, c}));

  // An unusable edge is skipped, so its parallel twin takes its place.
  g.remove_edge(first);
  EXPECT_EQ(kruskal_mst_subgraph(g, shuffled), (std::vector<EdgeId>{second, c}));
  // A dead endpoint makes every edge at it unusable.
  g.remove_node(2);
  EXPECT_EQ(kruskal_mst_subgraph(g, shuffled), (std::vector<EdgeId>{second}));
}

/// Kruskal by the lowest-id rule, written out: repeatedly take the unused
/// usable pool edge of least (weight, id) and keep it iff it joins two
/// components, with components labelled over every node of g.
std::vector<EdgeId> lowest_id_kruskal(const Graph& g, const std::vector<EdgeId>& pool) {
  std::vector<NodeId> label(static_cast<std::size_t>(g.node_count()));
  std::iota(label.begin(), label.end(), 0);
  std::vector<EdgeId> left;
  for (const EdgeId e : pool) {
    if (g.edge_usable(e) && std::count(left.begin(), left.end(), e) == 0) left.push_back(e);
  }
  std::vector<EdgeId> kept;
  while (!left.empty()) {
    auto pick = left.begin();
    for (auto it = left.begin(); it != left.end(); ++it) {
      const Weight w = g.edge_weight(*it);
      const Weight best = g.edge_weight(*pick);
      if (w < best || (w == best && *it < *pick)) pick = it;
    }
    const EdgeId e = *pick;
    left.erase(pick);
    const NodeId a = label[static_cast<std::size_t>(g.edge(e).u)];
    const NodeId b = label[static_cast<std::size_t>(g.edge(e).v)];
    if (a == b) continue;
    std::replace(label.begin(), label.end(), b, a);
    kept.push_back(e);
  }
  return kept;
}

// Property: MST cost matches a naive reference (all spanning trees not
// enumerable, but Kruskal-vs-Prim style cross-check: cost of MST is
// invariant under implementation).
class MstPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MstPropertyTest, SpansAndIsAcyclic) {
  const auto g = testing::random_connected_graph(30, 60, GetParam());
  const auto mst = kruskal_mst(g);
  EXPECT_EQ(mst.size(), 29u);  // connected: n-1 edges
  UnionFind uf(g.node_count());
  for (const EdgeId e : mst) {
    EXPECT_TRUE(uf.unite(g.edge(e).u, g.edge(e).v)) << "cycle in MST";
  }
  EXPECT_EQ(uf.component_count(), 1);
}

TEST_P(MstPropertyTest, CutProperty) {
  // For every MST edge, removing it splits the tree; the edge must be a
  // minimum-weight crossing edge of that cut.
  const auto g = testing::random_connected_graph(20, 40, GetParam());
  const auto mst = kruskal_mst(g);
  for (const EdgeId drop : mst) {
    UnionFind uf(g.node_count());
    for (const EdgeId e : mst) {
      if (e != drop) uf.unite(g.edge(e).u, g.edge(e).v);
    }
    Weight best_crossing = kInfiniteWeight;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (!uf.same(g.edge(e).u, g.edge(e).v)) {
        best_crossing = std::min(best_crossing, g.edge_weight(e));
      }
    }
    EXPECT_DOUBLE_EQ(g.edge_weight(drop), best_crossing);
  }
}

TEST_P(MstPropertyTest, SubgraphFollowsLowestIdRule) {
  // Few distinct weights and many parallel edges make ties the rule; dead
  // edges and a dead node leave unusable edges in the pool.
  SplitMixRng rng(mix64(GetParam(), 0x6d7374));
  const NodeId n = 10;
  Graph g(n);
  for (int i = 0; i < 40; ++i) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (u != v) g.add_edge(u, v, static_cast<Weight>(1 + rng.below(3)));
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (rng.below(6) == 0) g.remove_edge(e);
  }
  g.remove_node(static_cast<NodeId>(rng.below(n)));
  for (int round = 0; round < 20; ++round) {
    std::vector<EdgeId> pool;
    for (int i = 0; i < 30; ++i) pool.push_back(static_cast<EdgeId>(rng.below(g.edge_count())));
    EXPECT_EQ(kruskal_mst_subgraph(g, pool), lowest_id_kruskal(g, pool));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MstPropertyTest, ::testing::Range(0u, 8u));

}  // namespace
}  // namespace fpr
