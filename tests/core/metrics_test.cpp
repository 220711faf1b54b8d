#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include "core/route.hpp"
#include "graph/grid.hpp"

namespace fpr {
namespace {

TEST(MetricsTest, GlobalCountersTrackMeasurementsAndReset) {
  // counters() is process-global; reset first so the assertion holds under
  // any ctest -j interleaving (see TESTING.md).
  counters().reset();
  GridGraph grid(4, 4);
  Net net;
  net.source = grid.node_at(0, 0);
  net.sinks = {grid.node_at(2, 2)};
  PathOracle oracle(grid.graph());
  const auto tree = route(grid.graph(), net, Algorithm::kKmb, oracle);
  (void)measure(grid.graph(), net, tree, oracle);
  (void)measure(grid.graph(), net, tree, oracle);
  EXPECT_EQ(counters().trees_measured.load(), 2u);
  counters().reset();
  EXPECT_EQ(counters().trees_measured.load(), 0u);
}

TEST(MetricsTest, MeasuresWirelengthAndPaths) {
  GridGraph grid(6, 6);
  Net net;
  net.source = grid.node_at(0, 0);
  net.sinks = {grid.node_at(3, 1), grid.node_at(1, 3)};
  PathOracle oracle(grid.graph());
  const auto tree = route(grid.graph(), net, Algorithm::kIdom, oracle);
  const auto m = measure(grid.graph(), net, tree, oracle);
  EXPECT_TRUE(m.spans_net);
  EXPECT_TRUE(m.shortest_paths);
  EXPECT_DOUBLE_EQ(m.wirelength, 6);
  EXPECT_DOUBLE_EQ(m.max_pathlength, 4);
  EXPECT_DOUBLE_EQ(m.optimal_max_pathlength, 4);
}

TEST(MetricsTest, DetectsSuboptimalPathlengths) {
  // KMB on three collinear pins with the source in the middle is fine, but
  // with the source at one end a chain is produced whose far-sink path is
  // optimal; craft instead an instance where KMB's tree path is indirect.
  GridGraph grid(5, 5);
  Net net;
  net.source = grid.node_at(0, 0);
  net.sinks = {grid.node_at(4, 0), grid.node_at(2, 2)};
  PathOracle oracle(grid.graph());
  const auto tree = route(grid.graph(), net, Algorithm::kKmb, oracle);
  const auto m = measure(grid.graph(), net, tree, oracle);
  ASSERT_TRUE(m.spans_net);
  // Whatever tree KMB picks, the reported numbers must be self-consistent.
  EXPECT_GE(m.max_pathlength, m.optimal_max_pathlength - 1e-9);
  EXPECT_EQ(m.shortest_paths, weight_eq(m.max_pathlength, m.optimal_max_pathlength) &&
                                  m.max_pathlength <= m.optimal_max_pathlength + 1e-9);
}

TEST(MetricsTest, NonSpanningTreeReported) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  Net net;
  net.source = 0;
  net.sinks = {2};
  PathOracle oracle(g);
  const RoutingTree tree(g, {});
  const auto m = measure(g, net, tree, oracle);
  EXPECT_FALSE(m.spans_net);
  EXPECT_FALSE(m.shortest_paths);
  EXPECT_EQ(m.optimal_max_pathlength, kInfiniteWeight);
}

TEST(MetricsTest, OracleStatsSnapshotMatchesOracle) {
  GridGraph grid(4, 4);
  PathOracle oracle(grid.graph());
  oracle.from(0);
  oracle.from(0);
  const OracleStats s = oracle_stats(oracle);
  EXPECT_EQ(s.dijkstra_runs, 1u);
  EXPECT_EQ(s.run_pops, 16);  // an unscoped run settles the whole grid
  EXPECT_EQ(s.resumes, 0);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate, 0.5);
  const std::string line = format_oracle_stats(s);
  EXPECT_NE(line.find("1/2 hits"), std::string::npos);
  EXPECT_NE(line.find("runs 1 (16 pops), resumes 0 (0 pops)"), std::string::npos);
  EXPECT_NE(line.find("50.0%"), std::string::npos);
}

TEST(MetricsTest, PercentConventionMatchesTable1) {
  // Positive = disimprovement, negative = improvement (Table 1 caption).
  EXPECT_DOUBLE_EQ(percent_vs(12, 10), 20.0);
  EXPECT_DOUBLE_EQ(percent_vs(9, 10), -10.0);
  EXPECT_DOUBLE_EQ(percent_vs(10, 10), 0.0);
  EXPECT_DOUBLE_EQ(percent_vs(5, 0), 0.0);
}

}  // namespace
}  // namespace fpr
