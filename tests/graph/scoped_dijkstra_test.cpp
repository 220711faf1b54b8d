#include <gtest/gtest.h>

#include "graph/dijkstra.hpp"
#include "graph/grid.hpp"
#include "graph/path_oracle.hpp"

namespace fpr {
namespace {

TEST(ScopedDijkstraTest, SettlesAllTargets) {
  GridGraph grid(30, 30);
  const NodeId src = grid.node_at(2, 2);
  const std::vector<NodeId> targets{grid.node_at(5, 4), grid.node_at(3, 7)};
  const auto t = dijkstra_within(grid.graph(), src, targets);
  for (const NodeId v : targets) {
    EXPECT_TRUE(t.knows(v));
    EXPECT_TRUE(t.reached(v));
  }
  // Distances of settled nodes match the complete run.
  const auto full = dijkstra(grid.graph(), src);
  for (NodeId v = 0; v < grid.graph().node_count(); ++v) {
    if (t.knows(v) && t.reached(v)) {
      EXPECT_DOUBLE_EQ(t.distance(v), full.distance(v));
    }
  }
}

TEST(ScopedDijkstraTest, StopsEarlyOnLargeGraphs) {
  GridGraph grid(40, 40);
  const std::vector<NodeId> targets{grid.node_at(1, 0), grid.node_at(0, 1)};
  const auto t = dijkstra_within(grid.graph(), grid.node_at(0, 0), targets);
  EXPECT_FALSE(t.complete());
  EXPECT_FALSE(t.knows(grid.node_at(39, 39)));
}

TEST(ScopedDijkstraTest, ExhaustionMarksComplete) {
  GridGraph grid(4, 4);
  // Farthest corner as target: the radius covers the whole component.
  const std::vector<NodeId> targets{grid.node_at(3, 3)};
  const auto t = dijkstra_within(grid.graph(), grid.node_at(0, 0), targets);
  EXPECT_TRUE(t.complete());
}

TEST(ScopedDijkstraTest, UnreachableTargetForcesFullExploration) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  const std::vector<NodeId> targets{3};
  const auto t = dijkstra_within(g, 0, targets);
  EXPECT_TRUE(t.complete());  // exhausted the component
  EXPECT_FALSE(t.reached(3));
  EXPECT_TRUE(t.knows(3));  // complete runs know unreachability for certain
}

TEST(ScopedDijkstraTest, InactiveTargetStillStopsEarly) {
  // Regression: a removed target used to sit in the pending set forever,
  // keeping the radius limit infinite and silently degrading every scoped
  // run to a full-graph Dijkstra.
  GridGraph grid(40, 40);
  const NodeId dead = grid.node_at(2, 2);
  grid.graph().remove_node(dead);
  const std::vector<NodeId> targets{grid.node_at(1, 0), grid.node_at(0, 1), dead};
  const auto t = dijkstra_within(grid.graph(), grid.node_at(0, 0), targets);
  EXPECT_EQ(t.inactive_targets(), 1);
  EXPECT_FALSE(t.complete());  // still bounded: the live targets set the radius
  EXPECT_FALSE(t.knows(grid.node_at(39, 39)));
  for (const NodeId v : {grid.node_at(1, 0), grid.node_at(0, 1)}) {
    EXPECT_TRUE(t.knows(v));
    EXPECT_TRUE(t.reached(v));
  }
}

TEST(ScopedDijkstraTest, AllInactiveTargetsRunUnbounded) {
  // With no live target there is no radius to derive; the run is explicitly
  // unbounded and exhausts the component, like plain dijkstra().
  GridGraph grid(10, 10);
  const NodeId dead = grid.node_at(5, 5);
  grid.graph().remove_node(dead);
  const std::vector<NodeId> targets{dead};
  const auto t = dijkstra_within(grid.graph(), grid.node_at(0, 0), targets);
  EXPECT_EQ(t.inactive_targets(), 1);
  EXPECT_TRUE(t.complete());
  EXPECT_FALSE(t.reached(dead));
  EXPECT_TRUE(t.reached(grid.node_at(9, 9)));
}

TEST(PathOracleScopeTest, ScopedDistanceMatchesUnscoped) {
  GridGraph grid(25, 25);
  PathOracle scoped(grid.graph());
  PathOracle full(grid.graph());
  const std::vector<NodeId> net{grid.node_at(3, 3), grid.node_at(6, 5), grid.node_at(4, 8)};
  scoped.set_scope(net);
  for (const NodeId a : net) {
    for (const NodeId b : net) {
      EXPECT_DOUBLE_EQ(scoped.distance(a, b), full.distance(a, b));
    }
  }
}

TEST(PathOracleScopeTest, OutOfScopeQueryUpgradesTransparently) {
  GridGraph grid(30, 30);
  PathOracle oracle(grid.graph());
  const std::vector<NodeId> net{grid.node_at(1, 1), grid.node_at(3, 2)};
  oracle.set_scope(net);
  oracle.from(net[0]);  // bounded tree
  // Query far outside the bounded radius: must still be exact.
  EXPECT_DOUBLE_EQ(oracle.distance(net[0], grid.node_at(29, 29)), 28 + 28);
}

TEST(PathOracleScopeTest, UpgradePreservesHandedOutReferences) {
  // Regression: algorithms hold `from(source)` across distance() calls that
  // can upgrade a bounded tree to a complete one. The upgrade must happen
  // in place — same object, previously-unknown entries becoming valid —
  // or the held reference dangles (this crashed the Table 4 sweep).
  GridGraph grid(30, 30);
  PathOracle oracle(grid.graph());
  const NodeId src = grid.node_at(0, 0);
  const std::vector<NodeId> net{src, grid.node_at(2, 1)};
  oracle.set_scope(net);
  const ShortestPathTree& held = oracle.from(src);
  ASSERT_FALSE(held.complete());
  const NodeId far = grid.node_at(29, 29);
  ASSERT_FALSE(held.knows(far));
  const ShortestPathTree& upgraded = oracle.from_knowing(src, far);
  EXPECT_EQ(&held, &upgraded);  // same object, upgraded in place
  EXPECT_TRUE(held.complete());
  EXPECT_DOUBLE_EQ(held.distance(far), 58);
}

TEST(PathOracleScopeTest, PathBetweenHandlesBoundedTrees) {
  GridGraph grid(30, 30);
  PathOracle oracle(grid.graph());
  const std::vector<NodeId> net{grid.node_at(0, 0), grid.node_at(2, 1)};
  oracle.set_scope(net);
  oracle.from(net[0]);
  const auto path = oracle.path_between(net[0], grid.node_at(25, 25));
  Weight cost = 0;
  for (const EdgeId e : path) cost += grid.graph().edge_weight(e);
  EXPECT_DOUBLE_EQ(cost, 50);
}

}  // namespace
}  // namespace fpr
