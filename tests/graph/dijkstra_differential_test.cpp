// Differential pinning of the flat-adjacency/arena Dijkstra engine against the frozen
// pre-change engine (graph/dijkstra_reference.hpp): over random graphs and
// grid graphs, with node/edge removals, restores and weight mutations
// interleaved, dist/parent/parent_edge must be BIT-identical for both
// unbounded and radius-bounded runs.
//
// The `settled` flags are pinned up to the one documented semantic upgrade:
// when a bounded run exhausts the component, the old engine could still
// label it stopped-early (if a superseded heap entry above the limit
// survived to the top of its lazy-deletion queue) while the new engine
// reports it complete. In that case the old settled set must cover every
// reached node, so the two answers agree on every query.

#include <gtest/gtest.h>

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

void expect_same_tree(const ShortestPathTree& got, const reference::Tree& want) {
  EXPECT_EQ(got.source(), want.source);
  EXPECT_EQ(got.inactive_targets(), want.inactive_targets);
  const testing::TreeLabels labels = testing::labels_of(got);
  expect_bits_equal(labels.dist, want.dist, "dist");
  expect_bits_equal(labels.parent, want.parent, "parent");
  expect_bits_equal(labels.parent_edge, want.parent_edge, "parent_edge");

  if (want.complete()) {
    EXPECT_TRUE(got.complete());
  } else if (!got.complete()) {
    expect_bits_equal(labels.known, want.settled, "settled");
  } else {
    // Exhaustion upgrade: the new engine drained its heap, so the old
    // engine must have settled every node it ever reached — both trees
    // then answer every knows()/distance() query identically.
    for (NodeId v = 0; v < static_cast<NodeId>(want.dist.size()); ++v) {
      if (want.reached(v)) {
        EXPECT_TRUE(want.settled[static_cast<std::size_t>(v)] != 0)
            << "old engine stopped early without exhausting node " << v;
      }
    }
  }
}

/// One random mutation, mirrored on nothing — both engines read the same
/// graph, so mutations just need to hit every code path that feeds the
/// flat traversal-weight array.
void mutate(Graph& g, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> op(0, 5);
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
  }
}

void compare_runs(const Graph& g, std::mt19937_64& rng) {
  std::uniform_int_distribution<NodeId> node(0, g.node_count() - 1);
  const NodeId source = node(rng);

  expect_same_tree(dijkstra(g, source), reference::dijkstra(g, source));

  // Scoped run with a random target set (possibly containing the source,
  // duplicates, and inactive nodes — all contract-relevant cases).
  std::uniform_int_distribution<int> tcount(1, 5);
  std::vector<NodeId> targets;
  for (int i = tcount(rng); i > 0; --i) targets.push_back(node(rng));
  if (tcount(rng) > 3) targets.push_back(targets.front());  // duplicate
  expect_same_tree(dijkstra_within(g, source, targets),
                   reference::dijkstra_within(g, source, targets));
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
// mutation checkpoints for both unbounded and scoped runs.
INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraDifferentialTest, ::testing::Range(0u, 100u));

TEST(DijkstraDifferentialTest, InactiveSourceMatches) {
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.remove_node(0);
  expect_same_tree(dijkstra(g, 0), reference::dijkstra(g, 0));
  const std::vector<NodeId> targets{2};
  expect_same_tree(dijkstra_within(g, 0, targets), reference::dijkstra_within(g, 0, targets));
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
