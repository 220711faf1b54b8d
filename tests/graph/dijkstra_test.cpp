#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include <random>

#include "graph/grid.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

TEST(DijkstraTest, SingleNode) {
  Graph g(1);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(0), 0);
  EXPECT_TRUE(spt.reached(0));
}

TEST(DijkstraTest, SimplePath) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(2), 5);
  EXPECT_EQ(spt.parent(2), 1);
  EXPECT_EQ(spt.parent(1), 0);
}

TEST(DijkstraTest, PrefersCheaperDetour) {
  Graph g(3);
  g.add_edge(0, 2, 10);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(2), 2);
  EXPECT_EQ(spt.parent(2), 1);
}

TEST(DijkstraTest, UnreachableNodeHasInfiniteDistance) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  const auto spt = dijkstra(g, 0);
  EXPECT_FALSE(spt.reached(2));
  EXPECT_EQ(spt.distance(2), kInfiniteWeight);
  EXPECT_EQ(spt.parent(2), kInvalidNode);
}

TEST(DijkstraTest, SkipsRemovedEdges) {
  Graph g(3);
  const EdgeId direct = g.add_edge(0, 2, 1);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 2);
  g.remove_edge(direct);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(2), 4);
}

TEST(DijkstraTest, SkipsRemovedNodes) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 3, 1);
  g.add_edge(0, 2, 3);
  g.add_edge(2, 3, 3);
  g.remove_node(1);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(3), 6);
  EXPECT_FALSE(spt.reached(1));
}

TEST(DijkstraTest, InactiveSourceReachesNothing) {
  Graph g(2);
  g.add_edge(0, 1, 1);
  g.remove_node(0);
  const auto spt = dijkstra(g, 0);
  EXPECT_FALSE(spt.reached(0));
  EXPECT_FALSE(spt.reached(1));
}

TEST(DijkstraTest, PathEdgesReconstructShortestPath) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(0, 3, 10);
  const auto spt = dijkstra(g, 0);
  const auto edges = spt.path_edges_to(3);
  ASSERT_EQ(edges.size(), 3u);
  Weight sum = 0;
  for (const EdgeId e : edges) sum += g.edge_weight(e);
  EXPECT_DOUBLE_EQ(sum, spt.distance(3));
  const auto nodes = spt.path_nodes_to(3);
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes.front(), 0);
  EXPECT_EQ(nodes.back(), 3);
}

TEST(DijkstraTest, PathToUnreachableNodeIsEmpty) {
  // Regression: in Release builds the old assert compiled out and the
  // parent walk indexed with kInvalidNode (infinite loop / OOB read).
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  const auto spt = dijkstra(g, 0);
  ASSERT_FALSE(spt.reached(3));
  EXPECT_TRUE(spt.path_edges_to(3).empty());
  EXPECT_TRUE(spt.path_nodes_to(3).empty());
}

TEST(DijkstraTest, PathToInactiveNodeIsEmpty) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.remove_node(2);
  const auto spt = dijkstra(g, 0);
  ASSERT_FALSE(spt.reached(2));
  EXPECT_TRUE(spt.path_edges_to(2).empty());
  EXPECT_TRUE(spt.path_nodes_to(2).empty());
}

TEST(DijkstraTest, ReuseOverloadMatchesByValue) {
  GridGraph grid(8, 8);
  ShortestPathTree reused;
  for (NodeId src : {NodeId{0}, grid.node_at(3, 4), grid.node_at(7, 7)}) {
    dijkstra(grid.graph(), src, reused);
    const auto fresh = dijkstra(grid.graph(), src);
    const testing::TreeLabels a = testing::labels_of(reused);
    const testing::TreeLabels b = testing::labels_of(fresh);
    EXPECT_EQ(a.dist, b.dist);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.parent_edge, b.parent_edge);
    EXPECT_EQ(a.known, b.known);
  }
}

TEST(DijkstraTest, GridDistancesAreManhattan) {
  GridGraph grid(6, 5);
  const auto spt = dijkstra(grid.graph(), grid.node_at(1, 1));
  for (int x = 0; x < 6; ++x) {
    for (int y = 0; y < 5; ++y) {
      EXPECT_DOUBLE_EQ(spt.distance(grid.node_at(x, y)), std::abs(x - 1) + std::abs(y - 1));
    }
  }
}

TEST(DijkstraTest, ZeroWeightEdges) {
  Graph g(3);
  g.add_edge(0, 1, 0);
  g.add_edge(1, 2, 0);
  const auto spt = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(spt.distance(2), 0);
  EXPECT_TRUE(spt.reached(2));
}

// Property: triangle inequality and symmetry over random graphs.
class DijkstraPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DijkstraPropertyTest, SymmetricAndTriangle) {
  const auto g = testing::random_connected_graph(40, 60, GetParam());
  std::mt19937_64 rng(testing::seeded_rng("dijkstra", GetParam()));
  const auto net = testing::random_net(40, 3, rng);
  const auto a = dijkstra(g, net[0]);
  const auto b = dijkstra(g, net[1]);
  const auto c = dijkstra(g, net[2]);
  EXPECT_TRUE(weight_eq(a.distance(net[1]), b.distance(net[0])));
  EXPECT_LE(a.distance(net[2]), a.distance(net[1]) + b.distance(net[2]) + 1e-9);
  EXPECT_LE(a.distance(net[1]), a.distance(net[2]) + c.distance(net[1]) + 1e-9);
}

TEST_P(DijkstraPropertyTest, ParentDistancesConsistent) {
  const auto g = testing::random_connected_graph(50, 80, GetParam());
  const auto spt = dijkstra(g, 0);
  for (NodeId v = 1; v < g.node_count(); ++v) {
    ASSERT_TRUE(spt.reached(v));
    const NodeId p = spt.parent(v);
    const EdgeId e = spt.parent_edge(v);
    ASSERT_NE(p, kInvalidNode);
    EXPECT_TRUE(weight_eq(spt.distance(v), spt.distance(p) + g.edge_weight(e)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest, ::testing::Range(0u, 10u));

}  // namespace
}  // namespace fpr
