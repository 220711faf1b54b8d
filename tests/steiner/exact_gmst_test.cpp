#include "steiner/exact_gmst.hpp"

#include <gtest/gtest.h>

#include "graph/grid.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

TEST(ExactGmstTest, TwoPinNetIsShortestPath) {
  GridGraph grid(5, 5);
  const std::vector<NodeId> net{grid.node_at(0, 0), grid.node_at(4, 2)};
  const auto tree = exact_gmst(grid.graph(), net);
  ASSERT_TRUE(tree.has_value());
  EXPECT_DOUBLE_EQ(tree->cost(), 6);
  EXPECT_TRUE(tree->spans(net));
}

TEST(ExactGmstTest, RectilinearSteinerPointOnGrid) {
  // Three corners of a rectangle: optimal Steiner tree uses the corner /
  // interior meeting point; cost = half-perimeter + distance to third pin.
  GridGraph grid(5, 5);
  const std::vector<NodeId> net{grid.node_at(0, 0), grid.node_at(4, 0), grid.node_at(2, 3)};
  const auto tree = exact_gmst(grid.graph(), net);
  ASSERT_TRUE(tree.has_value());
  EXPECT_DOUBLE_EQ(tree->cost(), 7);  // trunk of 4 + stem of 3
}

TEST(ExactGmstTest, FindsHubOnStarInstance) {
  Graph g(5);
  for (NodeId t = 0; t < 4; ++t) g.add_edge(4, t, 1.0);
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = a + 1; b < 4; ++b) g.add_edge(a, b, 1.9);
  }
  const std::vector<NodeId> net{0, 1, 2, 3};
  const auto tree = exact_gmst(g, net);
  ASSERT_TRUE(tree.has_value());
  EXPECT_DOUBLE_EQ(tree->cost(), 4.0);
}

TEST(ExactGmstTest, SingleTerminal) {
  GridGraph grid(3, 3);
  const std::vector<NodeId> net{grid.node_at(1, 1)};
  const auto tree = exact_gmst(grid.graph(), net);
  ASSERT_TRUE(tree.has_value());
  EXPECT_TRUE(tree->empty());
}

TEST(ExactGmstTest, DisconnectedReturnsNullopt) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  const std::vector<NodeId> net{0, 2};
  EXPECT_FALSE(exact_gmst(g, net).has_value());
}

TEST(ExactGmstTest, TerminalLimitReturnsNullopt) {
  GridGraph grid(4, 4);
  std::vector<NodeId> net;
  for (NodeId v = 0; v < 6; ++v) net.push_back(v);
  EXPECT_FALSE(exact_gmst(grid.graph(), net, 5).has_value());
}

TEST(ExactGmstTest, MoreTerminalsThanTheSubsetDpTakesIsAContractViolation) {
  GridGraph grid(4, 4);
  std::vector<NodeId> net;
  for (NodeId v = 0; v <= kSubsetDpMaxTerminals; ++v) net.push_back(v);
  EXPECT_THROW((void)exact_gmst(grid.graph(), net, 40), ContractViolation);
}

class ExactGmstPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExactGmstPropertyTest, MatchesBruteForce) {
  const auto g = testing::random_connected_graph(11, 12, GetParam());
  std::mt19937_64 rng(testing::seeded_rng("exact_gmst/brute", GetParam()));
  const auto net = testing::random_net(11, 4, rng);
  const auto tree = exact_gmst(g, net);
  ASSERT_TRUE(tree.has_value());
  ASSERT_TRUE(tree->spans(net));
  const Weight brute = testing::brute_force_gmst_cost(g, net);
  EXPECT_TRUE(weight_eq(tree->cost(), brute))
      << "dp=" << tree->cost() << " brute=" << brute;
}

TEST_P(ExactGmstPropertyTest, ReconstructionCostMatchesDpValueOnGrids) {
  GridGraph grid(6, 6);
  std::mt19937_64 rng(testing::seeded_rng("exact_gmst/bound", GetParam()));
  const auto net = testing::random_net(36, 5, rng);
  const auto tree = exact_gmst(grid.graph(), net);
  ASSERT_TRUE(tree.has_value());
  EXPECT_TRUE(tree->spans(net));
  EXPECT_TRUE(tree->is_tree());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactGmstPropertyTest, ::testing::Range(0u, 12u));

}  // namespace
}  // namespace fpr
