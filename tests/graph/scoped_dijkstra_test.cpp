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
  ShortestPathTree t;
  dijkstra_within_paused(grid.graph(), src, targets, t);
  for (const NodeId v : targets) {
    EXPECT_TRUE(t.knows(v));
    EXPECT_TRUE(t.reached(v));
  }
  EXPECT_EQ(t.resumes(), 0);  // the targets settled before the pause
  // Every read grows the tree to the node read: all distances are exact.
  const auto full = dijkstra(grid.graph(), src);
  for (NodeId v = 0; v < grid.graph().node_count(); ++v) {
    EXPECT_TRUE(t.knows(v));
    EXPECT_DOUBLE_EQ(t.distance(v), full.distance(v));
  }
}

TEST(ScopedDijkstraTest, StopsEarlyOnLargeGraphs) {
  GridGraph grid(40, 40);
  const std::vector<NodeId> targets{grid.node_at(1, 0), grid.node_at(0, 1)};
  ShortestPathTree t;
  dijkstra_within_paused(grid.graph(), grid.node_at(0, 0), targets, t);
  EXPECT_EQ(t.run_pops(), 3);  // the source and the two targets, of 1600
  EXPECT_EQ(t.resumes(), 0);
}

TEST(ScopedDijkstraTest, ExhaustionMarksComplete) {
  GridGraph grid(4, 4);
  // Farthest corner as target: it settles last, draining the component.
  const std::vector<NodeId> targets{grid.node_at(3, 3)};
  ShortestPathTree t;
  dijkstra_within_paused(grid.graph(), grid.node_at(0, 0), targets, t);
  EXPECT_TRUE(t.complete());
  EXPECT_EQ(t.resumes(), 0);
}

TEST(ScopedDijkstraTest, UnreachableTargetForcesFullExploration) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  const std::vector<NodeId> targets{3};
  ShortestPathTree t;
  dijkstra_within_paused(g, 0, targets, t);
  EXPECT_TRUE(t.complete());  // exhausted the component
  EXPECT_EQ(t.resumes(), 0);
  EXPECT_FALSE(t.reached(3));
  EXPECT_TRUE(t.knows(3));  // complete runs know unreachability for certain
}

TEST(ScopedDijkstraTest, InactiveTargetStillStopsEarly) {
  // Regression: a removed target used to sit in the pending set forever,
  // so the run never paused and every scoped run silently degraded to a
  // full-graph Dijkstra.
  GridGraph grid(40, 40);
  const NodeId dead = grid.node_at(2, 2);
  grid.graph().remove_node(dead);
  const std::vector<NodeId> targets{grid.node_at(1, 0), grid.node_at(0, 1), dead};
  ShortestPathTree t;
  dijkstra_within_paused(grid.graph(), grid.node_at(0, 0), targets, t);
  EXPECT_EQ(t.inactive_targets(), 1);
  EXPECT_EQ(t.run_pops(), 3);  // still paused at the live targets
  for (const NodeId v : {grid.node_at(1, 0), grid.node_at(0, 1)}) {
    EXPECT_TRUE(t.knows(v));
    EXPECT_TRUE(t.reached(v));
  }
  EXPECT_EQ(t.resumes(), 0);
}

TEST(ScopedDijkstraTest, AllInactiveTargetsRunUnbounded) {
  // With no live target there is nothing to pause at; the run is
  // explicitly unbounded and exhausts the component, like plain dijkstra().
  GridGraph grid(10, 10);
  const NodeId dead = grid.node_at(5, 5);
  grid.graph().remove_node(dead);
  const std::vector<NodeId> targets{dead};
  ShortestPathTree t;
  dijkstra_within_paused(grid.graph(), grid.node_at(0, 0), targets, t);
  EXPECT_EQ(t.inactive_targets(), 1);
  EXPECT_EQ(t.run_pops(), 99);
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
  oracle.from(net[0]);  // paused tree
  // Query far past the pause point: must still be exact.
  EXPECT_DOUBLE_EQ(oracle.distance(net[0], grid.node_at(29, 29)), 28 + 28);
}

TEST(PathOracleScopeTest, ScopedTreeReadFarPastItsTargetsIsExact) {
  // A scoped tree read directly (not through distance()'s fallback) at a
  // node far from its targets grows to that node and answers dijkstra()'s
  // distance, not a frontier label or infinity.
  GridGraph grid(40, 40);
  Graph& g = grid.graph();
  for (int x = 0; x + 1 < 40; ++x) g.add_edge_weight(grid.horizontal_edge(x, 20), 3);
  PathOracle oracle(g);
  const NodeId src = grid.node_at(1, 1);
  oracle.set_scope({src, grid.node_at(3, 2)});
  const ShortestPathTree& tree = oracle.from(src);
  const ShortestPathTree full = dijkstra(g, src);
  for (const NodeId far : {grid.node_at(39, 39), grid.node_at(30, 20), grid.node_at(12, 9)}) {
    EXPECT_TRUE(tree.knows(far));
    EXPECT_TRUE(tree.reached(far));
    EXPECT_EQ(tree.distance(far), full.distance(far));
    EXPECT_EQ(tree.parent(far), full.parent(far));
  }
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);  // grown, never re-run
}

TEST(PathOracleScopeTest, UpgradePreservesHandedOutReferences) {
  // Regression: algorithms hold `from(source)` across distance() calls that
  // can upgrade a sealed tree (an unscoped run a budget stopped) to a
  // complete one. The upgrade must happen in place — same object,
  // previously-unknown entries becoming valid — or the held reference
  // dangles (this crashed the Table 4 sweep).
  GridGraph grid(30, 30);
  PathOracle oracle(grid.graph());
  WorkBudget budget{20};
  oracle.set_budget(&budget);
  const NodeId src = grid.node_at(0, 0);
  const ShortestPathTree& held = oracle.from(src);
  oracle.set_budget(nullptr);
  ASSERT_FALSE(held.paused());
  ASSERT_FALSE(held.complete());
  const NodeId far = grid.node_at(29, 29);
  ASSERT_FALSE(held.knows(far));
  const ShortestPathTree& upgraded = oracle.from_knowing(src, far);
  EXPECT_EQ(&held, &upgraded);  // same object, upgraded in place
  EXPECT_TRUE(held.complete());
  EXPECT_DOUBLE_EQ(held.distance(far), 58);
}

TEST(PathOracleScopeTest, PathBetweenHandlesBoundedTrees) {
  // A paused tree read past its targets grows to the far end.
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
