#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>

#include "core/contract.hpp"
#include "graph/dijkstra.hpp"
#include "graph/grid.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

/// Brute-force ground truth for the O(1) running counters.
EdgeId scan_active_edge_count(const Graph& g) {
  EdgeId n = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge_usable(e)) ++n;
  }
  return n;
}

Weight scan_mean_active_edge_weight(const Graph& g) {
  Weight sum = 0;
  EdgeId n = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge_usable(e)) {
      sum += g.edge_weight(e);
      ++n;
    }
  }
  return n == 0 ? Weight{0} : sum / static_cast<Weight>(n);
}

TEST(GraphTest, StartsEmpty) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(GraphTest, ConstructorCreatesActiveNodes) {
  Graph g(5);
  EXPECT_EQ(g.node_count(), 5);
  for (NodeId v = 0; v < 5; ++v) EXPECT_TRUE(g.node_active(v));
}

TEST(GraphTest, AddNodesReturnsFirstNewId) {
  Graph g(3);
  EXPECT_EQ(g.add_nodes(2), 3);
  EXPECT_EQ(g.node_count(), 5);
}

TEST(GraphTest, AddEdgeStoresEndpointsAndWeight) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 2, 4.5);
  EXPECT_EQ(g.edge(e).u, 0);
  EXPECT_EQ(g.edge(e).v, 2);
  EXPECT_DOUBLE_EQ(g.edge_weight(e), 4.5);
  EXPECT_TRUE(g.edge_active(e));
}

TEST(GraphTest, OtherEndReturnsOppositeEndpoint) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 1);
  EXPECT_EQ(g.other_end(e, 0), 1);
  EXPECT_EQ(g.other_end(e, 1), 0);
}

TEST(GraphTest, IncidentEdgesListsBothDirections) {
  Graph g(3);
  const EdgeId a = g.add_edge(0, 1, 1);
  const EdgeId b = g.add_edge(1, 2, 1);
  const auto inc = g.incident_edges(1);
  ASSERT_EQ(inc.size(), 2u);
  EXPECT_EQ(inc[0], a);
  EXPECT_EQ(inc[1], b);
  EXPECT_EQ(g.incident_edges(0).size(), 1u);
}

TEST(GraphTest, RemoveEdgeMakesItUnusable) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 1);
  g.remove_edge(e);
  EXPECT_FALSE(g.edge_active(e));
  EXPECT_FALSE(g.edge_usable(e));
  g.restore_edge(e);
  EXPECT_TRUE(g.edge_usable(e));
}

TEST(GraphTest, RemoveNodeMakesIncidentEdgesUnusable) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(0, 1, 1);
  const EdgeId e12 = g.add_edge(1, 2, 1);
  g.remove_node(1);
  EXPECT_FALSE(g.edge_usable(e01));
  EXPECT_FALSE(g.edge_usable(e12));
  EXPECT_TRUE(g.edge_active(e01));  // the edge itself was not touched
  g.restore_node(1);
  EXPECT_TRUE(g.edge_usable(e01));
}

TEST(GraphTest, WeightMutation) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 2.0);
  g.set_edge_weight(e, 5.0);
  EXPECT_DOUBLE_EQ(g.edge_weight(e), 5.0);
  g.add_edge_weight(e, 1.5);
  EXPECT_DOUBLE_EQ(g.edge_weight(e), 6.5);
}

TEST(GraphTest, RevisionBumpsOnEveryMutation) {
  Graph g(2);
  const auto r0 = g.revision();
  const EdgeId e = g.add_edge(0, 1, 1);
  const auto r1 = g.revision();
  EXPECT_GT(r1, r0);
  g.set_edge_weight(e, 2);
  EXPECT_GT(g.revision(), r1);
  const auto r2 = g.revision();
  g.remove_node(0);
  EXPECT_GT(g.revision(), r2);
}

TEST(GraphTest, ActiveEdgeCountSkipsRemovedElements) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  const EdgeId e = g.add_edge(1, 2, 1);
  EXPECT_EQ(g.active_edge_count(), 2);
  g.remove_edge(e);
  EXPECT_EQ(g.active_edge_count(), 1);
  g.restore_edge(e);
  g.remove_node(2);
  EXPECT_EQ(g.active_edge_count(), 1);
}

TEST(GraphTest, MeanActiveEdgeWeight) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const EdgeId e = g.add_edge(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(g.mean_active_edge_weight(), 2.0);
  g.remove_edge(e);
  EXPECT_DOUBLE_EQ(g.mean_active_edge_weight(), 1.0);
}

TEST(GraphTest, MeanActiveEdgeWeightEmptyGraphIsZero) {
  Graph g(2);
  EXPECT_DOUBLE_EQ(g.mean_active_edge_weight(), 0.0);
}

TEST(GraphTest, RunningCountersMatchBruteScanUnderRandomMutations) {
  // The O(1) counters must agree with a fresh O(E) scan after every kind of
  // mutation, including redundant removes/restores.
  std::mt19937_64 rng(20260806);
  Graph g(20);
  std::uniform_int_distribution<NodeId> node(0, 19);
  std::uniform_int_distribution<int> weight(1, 10);
  for (int i = 0; i < 40; ++i) {
    NodeId u = node(rng), v = node(rng);
    if (u == v) continue;
    g.add_edge(u, v, weight(rng));
  }
  ASSERT_GT(g.edge_count(), 0);
  std::uniform_int_distribution<EdgeId> edge(0, g.edge_count() - 1);
  std::uniform_int_distribution<int> op(0, 6);
  for (int step = 0; step < 300; ++step) {
    switch (op(rng)) {
      case 0: g.remove_edge(edge(rng)); break;
      case 1: g.restore_edge(edge(rng)); break;
      case 2: g.remove_node(node(rng)); break;
      case 3: g.restore_node(node(rng)); break;
      case 4: g.set_edge_weight(edge(rng), weight(rng)); break;
      case 5: g.add_edge_weight(edge(rng), 2); break;
      case 6: g.add_edge(node(rng) == 0 ? 1 : 0, node(rng) == 19 ? 18 : 19, weight(rng)); break;
    }
    ASSERT_EQ(g.active_edge_count(), scan_active_edge_count(g)) << "step " << step;
    ASSERT_TRUE(weight_eq(g.mean_active_edge_weight(), scan_mean_active_edge_weight(g)))
        << "step " << step << ": " << g.mean_active_edge_weight() << " vs "
        << scan_mean_active_edge_weight(g);
  }
}

TEST(GraphTest, RedundantRemovesDoNotSkewCounters) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 4.0);
  g.remove_node(1);
  g.remove_node(1);  // idempotent
  EXPECT_EQ(g.active_edge_count(), 0);
  g.restore_node(1);
  g.restore_node(1);  // idempotent
  EXPECT_EQ(g.active_edge_count(), 2);
  EXPECT_DOUBLE_EQ(g.mean_active_edge_weight(), 3.0);
  const EdgeId e = 0;
  g.remove_edge(e);
  g.remove_edge(e);  // idempotent
  EXPECT_EQ(g.active_edge_count(), 1);
  g.restore_edge(e);
  g.restore_edge(e);  // idempotent
  EXPECT_EQ(g.active_edge_count(), 2);
}

TEST(GraphTest, StructuralRevisionIgnoresWeightAndActivity) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1, 1);
  const auto s0 = g.structural_revision();
  const auto r0 = g.revision();
  g.set_edge_weight(e, 2);
  g.add_edge_weight(e, 1);
  g.remove_edge(e);
  g.restore_edge(e);
  g.remove_node(2);
  g.restore_node(2);
  EXPECT_EQ(g.structural_revision(), s0);  // topology untouched
  EXPECT_GT(g.revision(), r0);             // but the total revision moved
  g.add_edge(1, 2, 1);
  EXPECT_GT(g.structural_revision(), s0);
  g.add_nodes(1);
  EXPECT_GT(g.structural_revision(), s0 + 1);
}

/// The GridGraph(width, height, weight) topology as a one-role tile
/// template: a node's slots are its left, right, up and down neighbors in
/// GridGraph's edge numbering (so ascending edge id), with the first and
/// last column and row as boundary classes. Needs width, height >= 3.
std::shared_ptr<const TiledTopology> tiled_grid(int width, int height, Weight weight) {
  auto topo = std::make_shared<TiledTopology>();
  const std::int64_t w = width;
  const std::int64_t horizontal = (w - 1) * height;
  TiledRole role;
  role.xdim = width;
  role.ydim = height;
  role.xlo = role.xhi = role.ylo = role.yhi = 1;
  role.xclasses = role.yclasses = 3;
  const auto slot = [&](std::int64_t nbr_base, std::int64_t edge_base, std::int64_t edge_dy) {
    topo->slots.push_back(TiledSlot{nbr_base, 1, w, edge_base, 1, edge_dy, weight});
  };
  for (int yc = 0; yc < 3; ++yc) {
    for (int xc = 0; xc < 3; ++xc) {
      role.pattern_first.push_back(static_cast<std::uint32_t>(topo->slots.size()));
      if (xc != 0) slot(-1, -1, w - 1);
      if (xc != 2) slot(1, 0, w - 1);
      if (yc != 0) slot(-w, horizontal - w, w);
      if (yc != 2) slot(w, horizontal, w);
      role.pattern_count.push_back(static_cast<std::uint32_t>(topo->slots.size()) -
                                   role.pattern_first.back());
    }
  }
  topo->roles.push_back(std::move(role));
  topo->node_count = static_cast<NodeId>(w * height);
  topo->edge_count = static_cast<EdgeId>(horizontal + w * (height - 1));
  return topo;
}

void expect_same_trees(const Graph& a, const Graph& b) {
  for (const NodeId source : {0, 8, 29}) {
    const testing::TreeLabels ta = testing::labels_of(dijkstra(a, source));
    const testing::TreeLabels tb = testing::labels_of(dijkstra(b, source));
    EXPECT_EQ(ta.dist, tb.dist) << "source " << source;
    EXPECT_EQ(ta.parent, tb.parent) << "source " << source;
    EXPECT_EQ(ta.parent_edge, tb.parent_edge) << "source " << source;
  }
}

// The flat adjacency is the graph's compressed-sparse-row snapshot.
TEST(GraphTest, CsrSnapshotMatchesIncidentListsAndSurvivesWeightMutation) {
  // A materialized 6x5 grid and the same grid stamped from a tile template.
  GridGraph grid(6, 5);
  Graph& g = grid.graph();
  Graph tiled = Graph::from_tiled(tiled_grid(6, 5, 1.0));
  ASSERT_FALSE(g.tiled());
  ASSERT_TRUE(tiled.tiled());

  // The materialized snapshot mirrors the incident lists and equals the
  // stamped one array for array.
  const FlatAdjacency* flat = g.flat_adjacency();
  ASSERT_NE(flat, nullptr);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto inc = g.incident_edges(v);
    const auto begin = static_cast<std::size_t>(flat->offsets[static_cast<std::size_t>(v)]);
    ASSERT_EQ(flat->edges_of(v).size(), inc.size());
    for (std::size_t i = 0; i < inc.size(); ++i) {
      EXPECT_EQ(flat->edge_id[begin + i], inc[i]);  // insertion order preserved
      EXPECT_EQ(flat->neighbor[begin + i], g.other_end(inc[i], v));
    }
  }
  const FlatAdjacency* stamped = tiled.flat_adjacency();
  ASSERT_NE(stamped, nullptr);
  EXPECT_EQ(flat->offsets, stamped->offsets);
  EXPECT_EQ(flat->neighbor, stamped->neighbor);
  EXPECT_EQ(flat->edge_id, stamped->edge_id);
  EXPECT_EQ(flat->endpoints, stamped->endpoints);
  expect_same_trees(g, tiled);

  // Weight and activity edits made after the build reach dijkstra without
  // a rebuild (a rebuild would reallocate the slot arrays).
  const EdgeId* slots_before = flat->edge_id.data();
  const auto mutate = [&](Graph& x) {
    x.set_edge_weight(grid.horizontal_edge(0, 0), 4.0);
    x.add_edge_weight(grid.vertical_edge(1, 0), 2.5);
    x.remove_edge(grid.horizontal_edge(2, 1));
    x.remove_node(grid.node_at(3, 2));
    x.remove_node(grid.node_at(1, 3));
    x.restore_node(grid.node_at(1, 3));
  };
  mutate(g);
  mutate(tiled);
  EXPECT_EQ(g.flat_adjacency()->edge_id.data(), slots_before);
  const ShortestPathTree t = dijkstra(g, 0);
  EXPECT_EQ(t.distance(grid.node_at(3, 2)), kInfiniteWeight);
  EXPECT_EQ(t.distance(grid.node_at(1, 0)), 4.0);  // the repriced edge still wins
  EXPECT_EQ(t.distance(grid.node_at(1, 1)), 2.0);
  expect_same_trees(g, tiled);

  // add_edge after the build triggers a rebuild; on the tiled graph it
  // materializes first, keeping ids and state.
  const EdgeId shortcut = g.add_edge(0, 29, 0.5);
  EXPECT_EQ(tiled.add_edge(0, 29, 0.5), shortcut);
  EXPECT_FALSE(tiled.tiled());
  EXPECT_NE(g.flat_adjacency()->edge_id.data(), slots_before);
  EXPECT_EQ(g.flat_adjacency()->edge_id.size(), static_cast<std::size_t>(g.edge_count()) * 2);
  EXPECT_EQ(dijkstra(g, 0).distance(29), 0.5);
  expect_same_trees(g, tiled);
}

// Graph::from_tiled validates the topology's structure before stamping.
TEST(GraphTest, FromTiledRejectsMalformedTopologies) {
  const auto variant = [](const auto& edit) {
    auto topo = std::make_shared<TiledTopology>(*tiled_grid(6, 5, 1.0));
    edit(*topo);
    return topo;
  };
  EXPECT_NO_THROW((void)Graph::from_tiled(variant([](TiledTopology&) {})));
  // A class count other than lo + 1 + hi.
  EXPECT_THROW(
      (void)Graph::from_tiled(variant([](TiledTopology& t) { t.roles[0].xclasses = 4; })),
      ContractViolation);
  // A dim not larger than its two cuts (node count kept consistent).
  EXPECT_THROW((void)Graph::from_tiled(variant([](TiledTopology& t) {
                 t.roles[0].ydim = 2;
                 t.node_count = t.roles[0].count();
               })),
               ContractViolation);
  // A pattern range past the end of the slot pool.
  EXPECT_THROW((void)Graph::from_tiled(variant([](TiledTopology& t) {
                 t.roles[0].pattern_first.back() = static_cast<std::uint32_t>(t.slots.size());
               })),
               ContractViolation);
}

TEST(GraphTest, TraversalWeightsTrackUsability) {
  // Usability and weight edits made after the flat snapshot is built reach
  // dijkstra: an unusable edge is skipped, a restored one carries whatever
  // weight it was given meanwhile.
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1, 2.5);
  g.add_edge(1, 2, 1.0);
  const EdgeId* slots_before = g.flat_adjacency()->edge_id.data();
  EXPECT_DOUBLE_EQ(dijkstra(g, 1).distance(0), 2.5);
  g.remove_node(0);
  EXPECT_FALSE(g.edge_usable(e));
  EXPECT_EQ(dijkstra(g, 1).distance(0), kInfiniteWeight);
  g.restore_node(0);
  g.add_edge_weight(e, 0.5);
  EXPECT_TRUE(g.edge_usable(e));
  EXPECT_DOUBLE_EQ(dijkstra(g, 1).distance(0), 3.0);
  g.remove_edge(e);
  EXPECT_EQ(dijkstra(g, 1).distance(0), kInfiniteWeight);
  g.set_edge_weight(e, 7.0);  // weight mutation while unusable
  EXPECT_EQ(dijkstra(g, 1).distance(0), kInfiniteWeight);
  g.restore_edge(e);
  EXPECT_DOUBLE_EQ(dijkstra(g, 1).distance(0), 7.0);
  EXPECT_DOUBLE_EQ(dijkstra(g, 2).distance(0), 8.0);
  EXPECT_EQ(g.flat_adjacency()->edge_id.data(), slots_before);
}

TEST(GraphTest, CopyAndMoveKeepCountersAndRebuildCsr) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 4.0);
  g.remove_node(2);
  (void)g.flat_adjacency();
  Graph copy = g;
  EXPECT_EQ(copy.active_edge_count(), 1);
  EXPECT_DOUBLE_EQ(copy.mean_active_edge_weight(), 2.0);
  EXPECT_EQ(copy.flat_adjacency()->edge_id.size(), 4u);
  const std::vector<Weight> want = testing::labels_of(dijkstra(g, 0)).dist;
  EXPECT_EQ(testing::labels_of(dijkstra(copy, 0)).dist, want);
  Graph moved = std::move(copy);
  EXPECT_EQ(moved.active_edge_count(), 1);
  EXPECT_EQ(moved.flat_adjacency()->offsets.size(), 4u);
  EXPECT_EQ(testing::labels_of(dijkstra(moved, 0)).dist, want);
  moved.add_edge(0, 2, 1.0);  // structurally mutate the moved-to graph
  EXPECT_EQ(moved.flat_adjacency()->edge_id.size(), 6u);
  EXPECT_EQ(moved.flat_adjacency()->endpoints.size(), 6u);
  EXPECT_EQ(g.flat_adjacency()->edge_id.size(), 4u);  // source unaffected
  moved.restore_node(2);
  EXPECT_DOUBLE_EQ(dijkstra(moved, 0).distance(2), 1.0);
  EXPECT_EQ(dijkstra(g, 0).distance(2), kInfiniteWeight);
}

TEST(WeightCompareTest, ExactEquality) {
  EXPECT_TRUE(weight_eq(1.0, 1.0));
  EXPECT_TRUE(weight_eq(kInfiniteWeight, kInfiniteWeight));
  EXPECT_FALSE(weight_eq(1.0, 2.0));
}

TEST(WeightCompareTest, ToleratesRoundoff) {
  const Weight a = 0.1 + 0.2;
  EXPECT_TRUE(weight_eq(a, 0.3));
  EXPECT_FALSE(weight_lt(a, 0.3));
  EXPECT_FALSE(weight_lt(0.3, a));
  EXPECT_TRUE(weight_lt(0.3, 0.31));
}

TEST(WeightCompareTest, ScalesWithMagnitude) {
  // Relative tolerance: at 1e12 the slack is ~1e3, so +1 matches, +1e4 not.
  EXPECT_TRUE(weight_eq(1e12, 1e12 + 1.0));
  EXPECT_FALSE(weight_eq(1e12, 1e12 + 1e4));
}

TEST(WeightCompareTest, InfinityNeverEqualsFinite) {
  EXPECT_FALSE(weight_eq(2.0, kInfiniteWeight));
  EXPECT_FALSE(weight_eq(kInfiniteWeight, 2.0));
  EXPECT_TRUE(weight_lt(2.0, kInfiniteWeight));
  EXPECT_FALSE(weight_lt(kInfiniteWeight, 2.0));
}

}  // namespace
}  // namespace fpr
