#include "arbor/idom.hpp"

#include <gtest/gtest.h>

#include "arbor/dom.hpp"
#include "graph/grid.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

TEST(IdomTest, AdoptsSteinerMeetPoint) {
  // Two sinks sharing a meet at (1,1): DOM alone cannot fold (neither sink
  // dominates the other), IDOM adopts the meet and saves two units.
  GridGraph grid(5, 5);
  const std::vector<NodeId> net{grid.node_at(0, 0), grid.node_at(3, 1), grid.node_at(1, 3)};
  PathOracle oracle(grid.graph());
  const auto base = dom(grid.graph(), net, oracle);
  const auto iterated = idom(grid.graph(), net, oracle);
  ASSERT_TRUE(iterated.spans(net));
  // DOM routes both sinks from the source; the two SPT paths happen to share
  // one prefix edge, so the base costs 7 (8 without sharing).
  EXPECT_DOUBLE_EQ(base.cost(), 7);
  EXPECT_DOUBLE_EQ(iterated.cost(), 6);
  EXPECT_DOUBLE_EQ(iterated.path_length(net[0], net[1]), 4);
  EXPECT_DOUBLE_EQ(iterated.path_length(net[0], net[2]), 4);
}

/// The property cases' inputs: one Steiner point per round, and batched
/// rounds.
std::vector<IgmstOptions> round_modes() {
  IgmstOptions batched;
  batched.batched = true;
  return {IgmstOptions{}, batched};
}

TEST(IdomTest, NeverWorseThanDom) {
  for (const IgmstOptions& options : round_modes()) {
    for (unsigned seed = 0; seed < 8; ++seed) {
      const auto g = testing::random_connected_graph(30, 50, seed);
      std::mt19937_64 rng(testing::seeded_rng("idom", seed));
      const auto net = testing::random_net(30, 5, rng);
      PathOracle oracle(g);
      const auto base = dom(g, net, oracle);
      const auto iterated = idom(g, net, oracle, options);
      ASSERT_TRUE(iterated.spans(net)) << "batched " << options.batched;
      EXPECT_LE(iterated.cost(), base.cost() + 1e-9) << "batched " << options.batched;
    }
  }
}

TEST(IdomTest, PathlengthsAlwaysOptimal) {
  GridGraph grid(8, 8);
  for (const IgmstOptions& options : round_modes()) {
    std::mt19937_64 rng(51);
    for (int trial = 0; trial < 8; ++trial) {
      const auto net = testing::random_net(64, 5, rng);
      PathOracle oracle(grid.graph());
      const auto tree = idom(grid.graph(), net, oracle, options);
      ASSERT_TRUE(tree.spans(net));
      const auto& spt = oracle.from(net[0]);
      for (std::size_t i = 1; i < net.size(); ++i) {
        EXPECT_TRUE(weight_eq(tree.path_length(net[0], net[i]), spt.distance(net[i])))
            << "sink " << net[i] << ", batched " << options.batched;
      }
    }
  }
}

TEST(IdomTest, MaxIterationsLimitsAdoption) {
  GridGraph grid(7, 7);
  const std::vector<NodeId> net{grid.node_at(0, 0), grid.node_at(5, 1), grid.node_at(1, 5),
                                grid.node_at(4, 4)};
  PathOracle oracle(grid.graph());
  IgmstOptions capped;
  capped.max_iterations = 1;
  const auto limited = idom(grid.graph(), net, oracle, capped);
  const auto full = idom(grid.graph(), net, oracle);
  ASSERT_TRUE(limited.spans(net));
  EXPECT_LE(full.cost(), limited.cost() + 1e-9);
}

TEST(IdomTest, CorridorCandidatesFindGridMeets) {
  GridGraph grid(5, 5);
  const std::vector<NodeId> net{grid.node_at(0, 0), grid.node_at(3, 1), grid.node_at(1, 3)};
  PathOracle oracle(grid.graph());
  IgmstOptions options;
  options.candidates = CandidateStrategy::kCorridor;
  const auto tree = idom(grid.graph(), net, oracle, options);
  EXPECT_DOUBLE_EQ(tree.cost(), 6);  // the meet lies on terminal shortest paths
}

TEST(IdomTest, DegenerateNets) {
  GridGraph grid(4, 4);
  EXPECT_TRUE(idom(grid.graph(), std::vector<NodeId>{}).empty());
  EXPECT_TRUE(idom(grid.graph(), std::vector<NodeId>{3}).empty());
  const std::vector<NodeId> pair{0, 15};
  EXPECT_DOUBLE_EQ(idom(grid.graph(), pair).cost(), 6);
}

TEST(IdomTest, UnroutableNetReturnsNonSpanning) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  const std::vector<NodeId> net{0, 2};
  EXPECT_FALSE(idom(g, net).spans(net));
}

}  // namespace
}  // namespace fpr
