#include "arbor/exact_gsa.hpp"

#include <gtest/gtest.h>

#include "arbor/idom.hpp"
#include "arbor/pfa.hpp"
#include "graph/grid.hpp"
#include "steiner/exact_gmst.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

TEST(ExactGsaTest, TwoSinksWithMeet) {
  GridGraph grid(5, 5);
  const std::vector<NodeId> net{grid.node_at(0, 0), grid.node_at(3, 1), grid.node_at(1, 3)};
  const auto tree = exact_gsa(grid.graph(), net);
  ASSERT_TRUE(tree.has_value());
  EXPECT_DOUBLE_EQ(tree->cost(), 6);
  EXPECT_TRUE(tree->spans(net));
}

TEST(ExactGsaTest, SingleSinkIsShortestPath) {
  GridGraph grid(6, 6);
  const std::vector<NodeId> net{grid.node_at(0, 0), grid.node_at(5, 4)};
  const auto tree = exact_gsa(grid.graph(), net);
  ASSERT_TRUE(tree.has_value());
  EXPECT_DOUBLE_EQ(tree->cost(), 9);
}

TEST(ExactGsaTest, PathlengthConstraintCanCostWirelength) {
  // A graph where the optimal Steiner tree violates shortest paths:
  // source 0, sinks 3 and 4 reachable directly (cost 2 each) or via a
  // shared detour that is longer per sink but cheaper in total.
  Graph g(5);
  g.add_edge(0, 3, 2.0);
  g.add_edge(0, 4, 2.0);
  g.add_edge(0, 1, 1.8);  // shared trunk
  g.add_edge(1, 3, 0.3);
  g.add_edge(1, 4, 0.3);
  const std::vector<NodeId> net{0, 3, 4};
  const auto gsa = exact_gsa(g, net);
  const auto gmst = exact_gmst(g, net);
  ASSERT_TRUE(gsa.has_value());
  ASSERT_TRUE(gmst.has_value());
  // GMST takes the trunk (1.8 + 0.3 + 0.3 = 2.4); GSA must keep both sinks
  // at distance 2 and pays 4.0.
  EXPECT_DOUBLE_EQ(gmst->cost(), 2.4);
  EXPECT_DOUBLE_EQ(gsa->cost(), 4.0);
  EXPECT_TRUE(weight_eq(gsa->path_length(0, 3), 2.0));
  EXPECT_TRUE(weight_eq(gsa->path_length(0, 4), 2.0));
}

TEST(ExactGsaTest, UnreachableSinkReturnsNullopt) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  const std::vector<NodeId> net{0, 2};
  EXPECT_FALSE(exact_gsa(g, net).has_value());
}

TEST(ExactGsaTest, TerminalLimit) {
  GridGraph grid(4, 4);
  std::vector<NodeId> net;
  for (NodeId v = 0; v < 8; ++v) net.push_back(v);
  EXPECT_FALSE(exact_gsa(grid.graph(), net, 3).has_value());
}

TEST(ExactGsaTest, MoreSinksThanTheSubsetDpTakesIsAContractViolation) {
  GridGraph grid(4, 4);
  std::vector<NodeId> net;  // the source plus one sink more than the limit
  for (NodeId v = 0; v <= kSubsetDpMaxTerminals + 1; ++v) net.push_back(v);
  EXPECT_THROW((void)exact_gsa(grid.graph(), net, 40), ContractViolation);
}

class ExactGsaPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExactGsaPropertyTest, SandwichedBetweenGmstAndHeuristics) {
  const auto g = testing::random_connected_graph(25, 40, GetParam());
  std::mt19937_64 rng(testing::seeded_rng("exact_gsa/brute", GetParam()));
  const auto net = testing::random_net(25, 5, rng);
  PathOracle oracle(g);
  const auto gsa = exact_gsa(g, net, oracle);
  ASSERT_TRUE(gsa.has_value());
  ASSERT_TRUE(gsa->spans(net));

  // Lower bound: unconstrained Steiner optimum.
  const auto gmst = exact_gmst(g, net, oracle);
  ASSERT_TRUE(gmst.has_value());
  EXPECT_GE(gsa->cost(), gmst->cost() - 1e-9);

  // Upper bounds: every arborescence heuristic.
  const auto p = pfa(g, net, oracle);
  const auto i = idom(g, net, oracle);
  EXPECT_LE(gsa->cost(), p.cost() + 1e-9);
  EXPECT_LE(gsa->cost(), i.cost() + 1e-9);
}

TEST_P(ExactGsaPropertyTest, EverySinkAtGraphDistance) {
  const auto g = testing::random_connected_graph(25, 40, GetParam());
  std::mt19937_64 rng(testing::seeded_rng("exact_gsa/bound", GetParam()));
  const auto net = testing::random_net(25, 4, rng);
  PathOracle oracle(g);
  const auto gsa = exact_gsa(g, net, oracle);
  ASSERT_TRUE(gsa.has_value());
  const auto& spt = oracle.from(net[0]);
  for (std::size_t i = 1; i < net.size(); ++i) {
    EXPECT_TRUE(weight_eq(gsa->path_length(net[0], net[i]), spt.distance(net[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactGsaPropertyTest, ::testing::Range(0u, 12u));

}  // namespace
}  // namespace fpr
