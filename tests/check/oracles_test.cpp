// Unit tests for the invariant oracles (src/check/oracles.hpp): each oracle
// must accept production output and reject hand-corrupted instances.

#include "check/oracles.hpp"

#include <gtest/gtest.h>

#include "graph/grid.hpp"
#include "netlist/synth.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

using check::check_approximation_bound;
using check::check_iterated_monotonicity;
using check::check_routing_feasibility;
using check::check_tree_validity;
using check::CheckResult;

using OraclesTest = ::testing::Test;

TEST_F(OraclesTest, ValidityAcceptsEveryAlgorithmsOutput) {
  const Graph g = testing::random_connected_graph(24, 30, 901);
  PathOracle oracle(g);
  std::mt19937_64 rng(testing::seeded_rng("oracles_validity", 0));
  const auto pins = testing::random_net(24, 5, rng);
  Net net;
  net.source = pins[0];
  net.sinks.assign(pins.begin() + 1, pins.end());
  int checked = 0;
  for (const Algorithm algo : table1_algorithms()) {
    const RoutingTree tree = route(g, net, algo, oracle);
    const CheckResult r = check_tree_validity(g, pins, tree);
    EXPECT_TRUE(r.ok()) << algorithm_name(algo) << ": " << r.message();
    ++checked;
  }
  EXPECT_GE(checked, 8);
}

TEST_F(OraclesTest, ValidityRejectsDisconnectedEdgeSet) {
  GridGraph grid(4, 4);
  const std::vector<EdgeId> edges{grid.horizontal_edge(0, 0), grid.horizontal_edge(2, 3)};
  const RoutingTree t(grid.graph(), edges);
  const std::vector<NodeId> terminals{grid.node_at(0, 0), grid.node_at(3, 3)};
  const CheckResult r = check_tree_validity(grid.graph(), terminals, t);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.message().empty());
}

TEST_F(OraclesTest, ValidityRejectsCycle) {
  GridGraph grid(4, 4);
  const std::vector<EdgeId> edges{
      grid.horizontal_edge(0, 0), grid.vertical_edge(1, 0),
      grid.horizontal_edge(0, 1), grid.vertical_edge(0, 0),
  };
  const RoutingTree t(grid.graph(), edges);
  const std::vector<NodeId> terminals{grid.node_at(0, 0), grid.node_at(1, 1)};
  EXPECT_FALSE(check_tree_validity(grid.graph(), terminals, t).ok());
}

TEST_F(OraclesTest, ValidityRejectsTreeMissingATerminal) {
  GridGraph grid(4, 4);
  const RoutingTree t(grid.graph(), {grid.horizontal_edge(0, 0)});
  const std::vector<NodeId> terminals{grid.node_at(0, 0), grid.node_at(3, 3)};
  EXPECT_FALSE(check_tree_validity(grid.graph(), terminals, t).ok());
}

TEST_F(OraclesTest, ValidityRejectsNonEmptyTreeMissingLoneTerminal) {
  // Regression companion to RoutingTree::spans(): a non-empty tree that
  // does not touch its single terminal is NOT a routing of that terminal.
  GridGraph grid(4, 4);
  const RoutingTree t(grid.graph(), {grid.horizontal_edge(0, 0)});
  const std::vector<NodeId> lone{grid.node_at(3, 3)};
  EXPECT_FALSE(check_tree_validity(grid.graph(), lone, t).ok());
}

TEST_F(OraclesTest, ValidityAcceptsEmptyTreeForLoneTerminal) {
  GridGraph grid(4, 4);
  const RoutingTree t(grid.graph(), {});
  const std::vector<NodeId> lone{grid.node_at(2, 2)};
  const CheckResult r = check_tree_validity(grid.graph(), lone, t);
  EXPECT_TRUE(r.ok()) << r.message();
}

TEST_F(OraclesTest, ApproximationBoundHoldsOnRandomInstances) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const Graph g = testing::random_connected_graph(12, 14, 700 + seed);
    std::mt19937_64 rng(testing::seeded_rng("oracles_bound", seed));
    const auto pins = testing::random_net(12, 4, rng);
    Net net;
    net.source = pins[0];
    net.sinks.assign(pins.begin() + 1, pins.end());
    for (const Algorithm algo : table1_algorithms()) {
      const CheckResult r = check_approximation_bound(g, net, algo);
      EXPECT_TRUE(r.ok()) << "seed " << seed << " " << algorithm_name(algo) << ": "
                          << r.message();
    }
  }
}

TEST_F(OraclesTest, ApproximationBoundSkipsOversizedNets) {
  const Graph g = testing::random_connected_graph(30, 20, 42);
  std::mt19937_64 rng(testing::seeded_rng("oracles_bound_skip", 0));
  const auto pins = testing::random_net(30, 12, rng);
  Net net;
  net.source = pins[0];
  net.sinks.assign(pins.begin() + 1, pins.end());
  // 12 terminals > the 9-terminal exact-DP ceiling: skipped, reported ok.
  EXPECT_TRUE(check_approximation_bound(g, net, Algorithm::kKmb).ok());
}

TEST_F(OraclesTest, MonotonicityHoldsOnRandomInstances) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const Graph g = testing::random_connected_graph(16, 20, 330 + seed);
    std::mt19937_64 rng(testing::seeded_rng("oracles_mono", seed));
    const auto pins = testing::random_net(16, 5, rng);
    Net net;
    net.source = pins[0];
    net.sinks.assign(pins.begin() + 1, pins.end());
    const CheckResult r = check_iterated_monotonicity(g, net);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.message();
  }
}

TEST_F(OraclesTest, FeasibilityAcceptsRouterOutput) {
  const Circuit circuit = synthesize_circuit(xc4000_profiles()[2], 19);
  const ArchSpec arch = ArchSpec::xc4000(circuit.rows, circuit.cols, 9);
  Device device(arch);
  const RouterOptions options;
  const RoutingResult result = route_circuit(device, circuit, options);
  const CheckResult r = check_routing_feasibility(arch, circuit, result, options);
  EXPECT_TRUE(r.ok()) << r.message();
}

TEST_F(OraclesTest, FeasibilityRejectsTamperedTotals) {
  const Circuit circuit = synthesize_circuit(xc4000_profiles()[2], 19);
  const ArchSpec arch = ArchSpec::xc4000(circuit.rows, circuit.cols, 9);
  Device device(arch);
  const RouterOptions options;
  RoutingResult result = route_circuit(device, circuit, options);
  result.total_wire_nodes += 1;
  EXPECT_FALSE(check_routing_feasibility(arch, circuit, result, options).ok());
}

TEST_F(OraclesTest, FeasibilityRejectsEmptiedNet) {
  const Circuit circuit = synthesize_circuit(xc4000_profiles()[2], 19);
  const ArchSpec arch = ArchSpec::xc4000(circuit.rows, circuit.cols, 9);
  Device device(arch);
  const RouterOptions options;
  RoutingResult result = route_circuit(device, circuit, options);
  ASSERT_TRUE(result.success);
  // A net claiming "routed" with no edges no longer spans its pins.
  for (auto& net : result.nets) {
    if (net.routed() && !net.edges.empty()) {
      net.edges.clear();
      break;
    }
  }
  EXPECT_FALSE(check_routing_feasibility(arch, circuit, result, options).ok());
}

}  // namespace
}  // namespace fpr
