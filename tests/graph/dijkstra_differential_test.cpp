// Differential pinning of the flat-adjacency/arena Dijkstra engine against the frozen
// pre-change engine (graph/dijkstra_reference.hpp): over random graphs and
// grid graphs, with node/edge removals, restores and weight mutations
// interleaved, dist/parent/parent_edge must be BIT-identical to the
// reference's unbounded run, both for dijkstra() and for a paused scoped
// run (dijkstra_within_paused) read at every node — each read grows the
// paused tree until that node settles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "graph/dijkstra.hpp"
#include "graph/dijkstra_reference.hpp"
#include "graph/grid.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

/// Bitwise comparison via memcmp — EXPECT_EQ on double vectors would accept
/// -0.0 vs 0.0 and other value-equal-but-different encodings.
template <typename T>
void expect_bits_equal(const std::vector<T>& got, const std::vector<T>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (!got.empty()) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)), 0) << what;
  }
}

/// `want` is an unbounded reference run, so every node is known.
void expect_same_tree(const ShortestPathTree& got, const reference::Tree& want) {
  ASSERT_TRUE(want.complete());
  EXPECT_EQ(got.source(), want.source);
  const testing::TreeLabels labels = testing::labels_of(got);
  expect_bits_equal(labels.dist, want.dist, "dist");
  expect_bits_equal(labels.parent, want.parent, "parent");
  expect_bits_equal(labels.parent_edge, want.parent_edge, "parent_edge");
  EXPECT_TRUE(std::all_of(labels.known.begin(), labels.known.end(), [](char k) { return k; }));
  EXPECT_TRUE(got.complete());
}

/// A paused scoped run from `source` toward `targets`, read at every node.
void expect_paused_matches(const Graph& g, NodeId source, const std::vector<NodeId>& targets,
                           const reference::Tree& want) {
  ShortestPathTree paused;
  dijkstra_within_paused(g, source, targets, paused);
  // The frozen engine's scoped run counts the same inactive targets.
  EXPECT_EQ(paused.inactive_targets(),
            reference::dijkstra_within(g, source, targets).inactive_targets);
  expect_same_tree(paused, want);
}

/// One random mutation, mirrored on nothing — both engines read the same
/// graph, so mutations just need to hit every code path that feeds the
/// flat traversal-weight array. A weight of zero lets a pop push a smaller
/// (dist, id) than its own.
void mutate(Graph& g, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> op(0, 6);
  std::uniform_int_distribution<NodeId> node(0, g.node_count() - 1);
  std::uniform_int_distribution<EdgeId> edge(0, g.edge_count() - 1);
  std::uniform_int_distribution<int> w(1, 10);
  switch (op(rng)) {
    case 0: g.remove_edge(edge(rng)); break;
    case 1: g.restore_edge(edge(rng)); break;
    case 2: g.remove_node(node(rng)); break;
    case 3: g.restore_node(node(rng)); break;
    case 4: g.set_edge_weight(edge(rng), w(rng)); break;
    case 5: g.add_edge_weight(edge(rng), 1); break;
    case 6: g.set_edge_weight(edge(rng), 0); break;
  }
}

void compare_runs(const Graph& g, std::mt19937_64& rng) {
  std::uniform_int_distribution<NodeId> node(0, g.node_count() - 1);
  const NodeId source = node(rng);
  const reference::Tree want = reference::dijkstra(g, source);

  expect_same_tree(dijkstra(g, source), want);

  // Scoped run with a random target set (possibly containing the source,
  // duplicates, and inactive nodes — all contract-relevant cases).
  std::uniform_int_distribution<int> tcount(1, 5);
  std::vector<NodeId> targets;
  for (int i = tcount(rng); i > 0; --i) targets.push_back(node(rng));
  if (tcount(rng) > 3) targets.push_back(targets.front());  // duplicate
  expect_paused_matches(g, source, targets, want);
}

class DijkstraDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DijkstraDifferentialTest, RandomGraphWithInterleavedMutations) {
  const unsigned seed = GetParam();
  std::mt19937_64 rng(testing::seeded_rng("dijkstra_differential/scoped", seed));
  std::uniform_int_distribution<NodeId> size(5, 80);
  const NodeId n = size(rng);
  std::uniform_int_distribution<EdgeId> extra(0, n * 2);
  Graph g = testing::random_connected_graph(n, extra(rng), seed);

  compare_runs(g, rng);
  for (int round = 0; round < 6; ++round) {
    for (int m = 0; m < 4; ++m) mutate(g, rng);
    compare_runs(g, rng);
  }
}

TEST_P(DijkstraDifferentialTest, GridGraphWithInterleavedMutations) {
  const unsigned seed = GetParam();
  std::mt19937_64 rng(testing::seeded_rng("dijkstra_differential/arena", seed));
  GridGraph grid(12 + static_cast<int>(seed % 5), 10 + static_cast<int>(seed % 7));
  Graph& g = grid.graph();

  compare_runs(g, rng);
  for (int round = 0; round < 5; ++round) {
    for (int m = 0; m < 6; ++m) mutate(g, rng);
    compare_runs(g, rng);
  }
}

// 100 random-graph instances + 100 grid instances, each compared at ~7
// mutation checkpoints for both unbounded and paused scoped runs.
INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraDifferentialTest, ::testing::Range(0u, 100u));

TEST(DijkstraDifferentialTest, InactiveSourceMatches) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.remove_node(0);
  const reference::Tree want = reference::dijkstra(g, 0);
  expect_same_tree(dijkstra(g, 0), want);
  expect_paused_matches(g, 0, {2}, want);
}

TEST(DijkstraDifferentialTest, EqualWeightParentTieBreakMatches) {
  // Diamond with equal-cost paths: the deterministic (dist, id) tie-break
  // must pick the same parent in both engines.
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 1);
  g.add_edge(1, 3, 1);
  g.add_edge(2, 3, 1);
  const auto got = dijkstra(g, 0);
  expect_same_tree(got, reference::dijkstra(g, 0));
  EXPECT_EQ(got.parent(3), 1);  // node 1 settles before node 2 at distance 1
}

}  // namespace
}  // namespace fpr
