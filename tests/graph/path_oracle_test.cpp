#include "graph/path_oracle.hpp"

#include <gtest/gtest.h>

#include "graph/grid.hpp"

namespace fpr {
namespace {

TEST(PathOracleTest, CachesSsspTrees) {
  GridGraph grid(4, 4);
  PathOracle oracle(grid.graph());
  EXPECT_EQ(oracle.dijkstra_runs(), 0u);
  oracle.from(0);
  oracle.from(0);
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);
  oracle.from(5);
  EXPECT_EQ(oracle.dijkstra_runs(), 2u);
}

TEST(PathOracleTest, DistanceUsesEitherEndpointCache) {
  GridGraph grid(4, 4);
  PathOracle oracle(grid.graph());
  oracle.from(grid.node_at(3, 3));
  // Distance (0,0)->(3,3) should be served from the cached reverse tree.
  EXPECT_DOUBLE_EQ(oracle.distance(grid.node_at(0, 0), grid.node_at(3, 3)), 6);
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);
}

TEST(PathOracleTest, CachedReturnsNullBeforeCompute) {
  GridGraph grid(3, 3);
  PathOracle oracle(grid.graph());
  EXPECT_EQ(oracle.cached(0), nullptr);
  oracle.from(0);
  EXPECT_NE(oracle.cached(0), nullptr);
}

TEST(PathOracleTest, InvalidatesOnGraphMutation) {
  GridGraph grid(4, 1);
  PathOracle oracle(grid.graph());
  EXPECT_DOUBLE_EQ(oracle.distance(grid.node_at(0, 0), grid.node_at(3, 0)), 3);
  grid.graph().set_edge_weight(grid.horizontal_edge(1, 0), 5);
  EXPECT_DOUBLE_EQ(oracle.distance(grid.node_at(0, 0), grid.node_at(3, 0)), 7);
}

TEST(PathOracleTest, InvalidatesOnNodeRemoval) {
  GridGraph grid(3, 3);
  PathOracle oracle(grid.graph());
  EXPECT_DOUBLE_EQ(oracle.distance(grid.node_at(0, 0), grid.node_at(2, 0)), 2);
  grid.graph().remove_node(grid.node_at(1, 0));
  EXPECT_DOUBLE_EQ(oracle.distance(grid.node_at(0, 0), grid.node_at(2, 0)), 4);
}

TEST(PathOracleTest, CountsHitsAndMisses) {
  GridGraph grid(4, 4);
  PathOracle oracle(grid.graph());
  EXPECT_EQ(oracle.cache_hits(), 0u);
  EXPECT_EQ(oracle.cache_misses(), 0u);
  oracle.from(0);  // miss
  oracle.from(0);  // hit
  oracle.from(5);  // miss
  EXPECT_EQ(oracle.cache_misses(), 2u);
  EXPECT_EQ(oracle.cache_hits(), 1u);
  // Served from node 0's cached tree: a hit, no new run.
  EXPECT_DOUBLE_EQ(oracle.distance(0, grid.node_at(3, 3)), 6);
  EXPECT_EQ(oracle.cache_hits(), 2u);
  EXPECT_EQ(oracle.dijkstra_runs(), 2u);
  EXPECT_DOUBLE_EQ(oracle.hit_rate(), 0.5);
}

TEST(PathOracleTest, PathBetweenCountsCacheHits) {
  GridGraph grid(4, 4);
  PathOracle oracle(grid.graph());
  oracle.from(0);
  const auto hits_before = oracle.cache_hits();
  const auto path = oracle.path_between(0, grid.node_at(3, 3));
  EXPECT_EQ(path.size(), 6u);
  EXPECT_EQ(oracle.cache_hits(), hits_before + 1);
}

TEST(PathOracleTest, UpgradeCountsAsMiss) {
  // A sealed tree that does not know the probe (an unscoped run a budget
  // stopped) is re-run once the budget is lifted.
  GridGraph grid(20, 20);
  PathOracle oracle(grid.graph());
  WorkBudget budget{10};
  oracle.set_budget(&budget);
  const NodeId src = grid.node_at(0, 0);
  oracle.from(src);  // budget-stopped: miss
  ASSERT_FALSE(oracle.cached(src)->paused());
  ASSERT_FALSE(oracle.cached(src)->complete());
  oracle.set_budget(nullptr);
  oracle.from_knowing(src, grid.node_at(19, 19));  // hit + upgrade miss
  EXPECT_EQ(oracle.cache_misses(), 2u);
  EXPECT_EQ(oracle.cache_hits(), 1u);
  EXPECT_EQ(oracle.dijkstra_runs(), 2u);
}

TEST(PathOracleTest, ClearResetsHitCounters) {
  GridGraph grid(3, 3);
  PathOracle oracle(grid.graph());
  oracle.from(0);
  oracle.from(0);
  oracle.clear();
  EXPECT_EQ(oracle.cache_hits(), 0u);
  EXPECT_EQ(oracle.cache_misses(), 0u);
}

TEST(PathOracleTest, ClearResetsRunCounter) {
  GridGraph grid(3, 3);
  PathOracle oracle(grid.graph());
  oracle.from(0);
  oracle.clear();
  EXPECT_EQ(oracle.dijkstra_runs(), 0u);
  EXPECT_EQ(oracle.cached(0), nullptr);
}

}  // namespace
}  // namespace fpr
