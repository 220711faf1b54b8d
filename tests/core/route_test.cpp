#include "core/route.hpp"

#include <gtest/gtest.h>

#include "core/metrics.hpp"
#include "fpga/device.hpp"
#include "graph/grid.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

TEST(RouteTest, AlgorithmNames) {
  EXPECT_EQ(algorithm_name(Algorithm::kKmb), "KMB");
  EXPECT_EQ(algorithm_name(Algorithm::kZel), "ZEL");
  EXPECT_EQ(algorithm_name(Algorithm::kIkmb), "IKMB");
  EXPECT_EQ(algorithm_name(Algorithm::kIzel), "IZEL");
  EXPECT_EQ(algorithm_name(Algorithm::kDjka), "DJKA");
  EXPECT_EQ(algorithm_name(Algorithm::kDom), "DOM");
  EXPECT_EQ(algorithm_name(Algorithm::kPfa), "PFA");
  EXPECT_EQ(algorithm_name(Algorithm::kIdom), "IDOM");
}

TEST(RouteTest, ArborescenceClassification) {
  EXPECT_FALSE(is_arborescence_algorithm(Algorithm::kKmb));
  EXPECT_FALSE(is_arborescence_algorithm(Algorithm::kIzel));
  EXPECT_TRUE(is_arborescence_algorithm(Algorithm::kDjka));
  EXPECT_TRUE(is_arborescence_algorithm(Algorithm::kDom));
  EXPECT_TRUE(is_arborescence_algorithm(Algorithm::kPfa));
  EXPECT_TRUE(is_arborescence_algorithm(Algorithm::kIdom));
  EXPECT_TRUE(is_arborescence_algorithm(Algorithm::kExactGsa));
}

TEST(RouteTest, Table1OrderMatchesPaper) {
  const auto algos = table1_algorithms();
  ASSERT_EQ(algos.size(), 8u);
  EXPECT_EQ(algos[0], Algorithm::kKmb);
  EXPECT_EQ(algos[3], Algorithm::kIzel);
  EXPECT_EQ(algos[4], Algorithm::kDjka);
  EXPECT_EQ(algos[7], Algorithm::kIdom);
}

TEST(RouteTest, EveryAlgorithmSpansARoutableNet) {
  GridGraph grid(8, 8);
  Net net;
  net.source = grid.node_at(1, 1);
  net.sinks = {grid.node_at(6, 2), grid.node_at(2, 6), grid.node_at(5, 5)};
  for (const Algorithm a :
       {Algorithm::kKmb, Algorithm::kZel, Algorithm::kIkmb, Algorithm::kIzel, Algorithm::kDjka,
        Algorithm::kDom, Algorithm::kPfa, Algorithm::kIdom, Algorithm::kExactGmst,
        Algorithm::kExactGsa}) {
    PathOracle oracle(grid.graph());
    const auto tree = route(grid.graph(), net, a, oracle);
    EXPECT_TRUE(tree.spans(net.terminals())) << algorithm_name(a);
  }
}

TEST(RouteTest, ArborescenceAlgorithmsDeliverShortestPaths) {
  GridGraph grid(8, 8);
  Net net;
  net.source = grid.node_at(0, 0);
  net.sinks = {grid.node_at(7, 3), grid.node_at(3, 7)};
  PathOracle oracle(grid.graph());
  const auto& spt = oracle.from(net.source);
  for (const Algorithm a :
       {Algorithm::kDjka, Algorithm::kDom, Algorithm::kPfa, Algorithm::kIdom,
        Algorithm::kExactGsa}) {
    const auto tree = route(grid.graph(), net, a, oracle);
    for (const NodeId s : net.sinks) {
      EXPECT_TRUE(weight_eq(tree.path_length(net.source, s), spt.distance(s)))
          << algorithm_name(a);
    }
  }
}

TEST(RouteTest, ExactSolversFallBackAboveTerminalLimit) {
  // 16 pins exceed the subset-DP limit of 14; route() must still succeed
  // via the iterated heuristics.
  GridGraph grid(10, 10);
  Net net;
  net.source = grid.node_at(0, 0);
  std::mt19937_64 rng(9);
  for (const NodeId v : testing::random_net(100, 16, rng)) {
    if (v != net.source) net.sinks.push_back(v);
  }
  const auto gmst_tree = route(grid.graph(), net, Algorithm::kExactGmst);
  EXPECT_TRUE(gmst_tree.spans(net.terminals()));
  const auto gsa_tree = route(grid.graph(), net, Algorithm::kExactGsa);
  EXPECT_TRUE(gsa_tree.spans(net.terminals()));
}

TEST(RouteTest, OptionsArePassedThrough) {
  GridGraph grid(8, 8);
  Net net;
  net.source = grid.node_at(0, 0);
  net.sinks = {grid.node_at(6, 1), grid.node_at(1, 6)};
  RouteOptions options;
  options.candidates = CandidateStrategy::kCorridor;
  options.max_candidates = 4;
  const auto tree = route(grid.graph(), net, Algorithm::kIkmb, options);
  EXPECT_TRUE(tree.spans(net.terminals()));
}

/// Dijkstra runs one route() + measure() of `net` costs under the router's
/// per-net scope (terminals plus the device bound); `tree_out` receives the
/// routed tree's edges.
std::size_t search_runs(const Device& device, const Net& net, Algorithm algorithm,
                        std::vector<EdgeId>* tree_out = nullptr) {
  const Graph& g = device.graph();
  PathOracle oracle(g);
  oracle.set_scope(net.terminals(), device.distance_bound());
  const RoutingTree tree = route(g, net, algorithm, oracle);
  const TreeMetrics m = measure(g, net, tree, oracle);
  EXPECT_TRUE(m.spans_net);
  if (tree_out != nullptr) *tree_out = tree.edges();
  return oracle.dijkstra_runs();
}

TEST(RouteSearchCountTest, TwoTerminalNetsCostOneSearch) {
  // IKMB searches from its smaller terminal id, IDOM from the source, and
  // measure() reads the source-sink distance from whichever tree exists:
  // one goal-directed search per net, whichever way the ids run.
  const Device device(ArchSpec::xc4000(10, 10, 6));
  const NodeId a = device.block_node(1, 2);
  const NodeId b = device.block_node(8, 7);
  for (const Algorithm algorithm : {Algorithm::kIkmb, Algorithm::kIdom}) {
    for (const Net& net : {Net{a, {b}}, Net{b, {a}}}) {
      SCOPED_TRACE(::testing::Message() << algorithm_name(algorithm) << " source " << net.source);
      std::vector<EdgeId> edges;
      EXPECT_EQ(search_runs(device, net, algorithm, &edges), 1u);
      // The one search is exact: the tree is a shortest path (13 hops).
      EXPECT_EQ(edges.size(), 13u);
    }
  }
}

TEST(RouteSearchCountTest, ThreeTerminalNetsKeepTheirSearchCount) {
  // No point-to-point mode for three terminals: a radius-bounded search per
  // terminal, plus one more from IKMB's candidate loop — the counts from
  // before the two-terminal shortcut.
  const Device device(ArchSpec::xc4000(10, 10, 6));
  const Net net{device.block_node(5, 1), {device.block_node(1, 8), device.block_node(9, 6)}};
  EXPECT_EQ(search_runs(device, net, Algorithm::kIkmb), 4u);
  EXPECT_EQ(search_runs(device, net, Algorithm::kIdom), 3u);
}

TEST(RouteSearchCountTest, BoundAimsThreeTerminalSearchesAboveTheFlatCut) {
  // Above the flat-adjacency cut a scoped tree with the device bound keys
  // on the bound's minimum over the net's other terminals where that is
  // estimated to pay: IKMB (with the router's corridor candidates) and
  // IDOM build the same tree from fewer heap pops.
  const Device device(ArchSpec::xc4000(50, 50, 12));
  const RouteOptions options{CandidateStrategy::kCorridor, 48, 0};
  const Graph& g = device.graph();
  ASSERT_GT(g.edge_count(), Graph::kFlatAdjacencyMaxEdges);
  const Net net{device.block_node(20, 12), {device.block_node(31, 25), device.block_node(14, 30)}};
  for (const Algorithm algorithm : {Algorithm::kIkmb, Algorithm::kIdom}) {
    SCOPED_TRACE(algorithm_name(algorithm));
    std::vector<EdgeId> edges[2];
    std::int64_t pops[2] = {0, 0};
    for (const bool bounded : {false, true}) {
      PathOracle oracle(g);
      if (bounded) {
        oracle.set_scope(net.terminals(), device.distance_bound());
      } else {
        oracle.set_scope(net.terminals());
      }
      const RoutingTree tree = route(g, net, algorithm, oracle, options);
      EXPECT_TRUE(tree.spans(net.terminals()));
      edges[bounded] = tree.edges();
      const OracleStats s = oracle_stats(oracle);
      pops[bounded] = s.run_pops + s.resume_pops;
    }
    EXPECT_EQ(edges[false], edges[true]);
    EXPECT_LT(pops[true], pops[false]);
  }
}

TEST(RouteSearchCountTest, TreesAimedAcrossTheArrayRunPlain) {
  // Above the cut a tree is aimed at several goals only when the bound
  // estimates the aimed run pops well under the plain ball. From a corner
  // toward the far corner the two regions are the same array, so the tree
  // runs plain and pops exactly what the unbounded one does; from the
  // centre, toward goals on one side, it is aimed and pops fewer.
  const Device device(ArchSpec::xc4000(50, 50, 12));
  const Graph& g = device.graph();
  ASSERT_GT(g.edge_count(), Graph::kFlatAdjacencyMaxEdges);
  const NodeId corner = device.block_node(0, 0);
  const NodeId centre = device.block_node(25, 25);
  const std::vector<NodeId> across{corner, device.block_node(49, 49), centre};
  const std::vector<NodeId> aside{centre, device.block_node(32, 24), device.block_node(31, 29)};
  const auto first_run_pops = [&](const std::vector<NodeId>& scope, NodeId source, bool bounded) {
    PathOracle oracle(g);
    if (bounded) {
      oracle.set_scope(scope, device.distance_bound());
    } else {
      oracle.set_scope(scope);
    }
    return oracle.from(source).run_pops();
  };
  EXPECT_EQ(first_run_pops(across, corner, true), first_run_pops(across, corner, false));
  EXPECT_LT(first_run_pops(aside, centre, true), first_run_pops(aside, centre, false));
}

TEST(OracleGrowthTest, IkmbRunAndResumePopsAddUpToTheBudgetUsed) {
  // Every heap pop is either part of a run (dijkstra_runs) or of a read
  // that grew a paused tree (resumes), and both charge the budget the
  // oracle holds — under a generous budget and one that runs out mid-route.
  const Device device(ArchSpec::xc4000(10, 10, 6));
  const Graph& g = device.graph();
  const Net net{device.block_node(5, 1), {device.block_node(1, 8), device.block_node(9, 6)}};
  for (const long long limit : {1000000LL, 600LL}) {
    SCOPED_TRACE(::testing::Message() << "budget " << limit);
    WorkBudget budget{limit};
    PathOracle oracle(g);
    oracle.set_budget(&budget);
    oracle.set_scope(net.terminals(), device.distance_bound());
    const RoutingTree tree = route(g, net, Algorithm::kIkmb, oracle);
    const OracleStats s = oracle_stats(oracle);
    EXPECT_EQ(s.run_pops + s.resume_pops, budget.used);
    if (limit == 600) {
      EXPECT_TRUE(budget.exhausted());
    } else {
      EXPECT_EQ(s.dijkstra_runs, 4u);  // RouteSearchCountTest's count
      EXPECT_GT(s.resumes, 0);
    }
    EXPECT_EQ(tree.spans(net.terminals()), !budget.exhausted());
    // Reads under no budget grow for free and charge nothing.
    oracle.set_budget(nullptr);
    const long long used = budget.used;
    (void)measure(g, net, tree, oracle);
    EXPECT_EQ(budget.used, used);
  }
}

TEST(NetTest, TerminalsPutSourceFirst) {
  Net net;
  net.source = 7;
  net.sinks = {3, 9};
  const auto t = net.terminals();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], 7);
  EXPECT_EQ(net.pin_count(), 3);
}

}  // namespace
}  // namespace fpr
