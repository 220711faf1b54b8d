// Generator determinism + repro round-trips + greedy shrinking
// (src/check/generate.hpp, src/check/shrink.hpp).

#include "check/shrink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "check/generate.hpp"

namespace fpr::check {
namespace {

using ShrinkTest = ::testing::Test;

constexpr std::array<Algorithm, 2> kTwoAlgorithms{Algorithm::kKmb, Algorithm::kIdom};

TEST_F(ShrinkTest, TreeCaseGenerationIsDeterministic) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const TreeCase a = generate_tree_case(seed, 9, kTwoAlgorithms);
    const TreeCase b = generate_tree_case(seed, 9, kTwoAlgorithms);
    EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
  }
}

TEST_F(ShrinkTest, TreeCaseDescribeParseRoundTrip) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const TreeCase c = generate_tree_case(seed, 9, kTwoAlgorithms);
    const auto parsed = TreeCase::parse(c.describe());
    ASSERT_TRUE(parsed.has_value()) << c.describe();
    EXPECT_EQ(parsed->describe(), c.describe());
  }
}

TEST_F(ShrinkTest, CircuitCaseDescribeParseRoundTrip) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const CircuitCase c = generate_circuit_case(seed);
    const auto parsed = CircuitCase::parse(c.describe());
    ASSERT_TRUE(parsed.has_value()) << c.describe();
    EXPECT_EQ(parsed->describe(), c.describe());
  }
}

TEST_F(ShrinkTest, GeneratedTerminalsAreDistinctAndInRange) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const TreeCase c = generate_tree_case(seed, 9, kTwoAlgorithms);
    const std::set<NodeId> unique(c.terminals.begin(), c.terminals.end());
    EXPECT_EQ(unique.size(), c.terminals.size()) << c.describe();
    EXPECT_GE(c.terminals.size(), 2u);
    EXPECT_LE(c.terminals.size(), 9u);
    for (const NodeId t : c.terminals) {
      EXPECT_GE(t, 0) << c.describe();
      EXPECT_LT(t, static_cast<NodeId>(c.node_count())) << c.describe();
    }
  }
}

TEST_F(ShrinkTest, MaterializedGraphMatchesCaseDescription) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const TreeCase c = generate_tree_case(seed, 9, kTwoAlgorithms);
    const Graph g = c.materialize();
    EXPECT_EQ(g.node_count(), static_cast<NodeId>(c.node_count())) << c.describe();
    // Re-materialization is bitwise repeatable.
    const Graph h = c.materialize();
    ASSERT_EQ(g.edge_count(), h.edge_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      EXPECT_EQ(g.edge(e).u, h.edge(e).u);
      EXPECT_EQ(g.edge(e).v, h.edge(e).v);
      EXPECT_DOUBLE_EQ(g.edge(e).weight, h.edge(e).weight);
    }
  }
}

TEST_F(ShrinkTest, ShrinkDrivesTreeCaseToMinimum) {
  // An always-failing predicate lets the shrinker go as far as its candidate
  // moves allow: two terminals and a minimal substrate.
  const TreeCase start = generate_tree_case(7, 9, kTwoAlgorithms);
  const TreeCase shrunk = shrink_tree_case(start, [](const TreeCase&) { return true; });
  EXPECT_EQ(shrunk.terminals.size(), 2u) << shrunk.describe();
  if (shrunk.substrate == TreeCase::Substrate::kRandomGraph) {
    EXPECT_LE(shrunk.nodes, 3) << shrunk.describe();
    EXPECT_EQ(shrunk.extra_edges, 0) << shrunk.describe();
  } else {
    EXPECT_LE(shrunk.grid_width, 2) << shrunk.describe();
    EXPECT_LE(shrunk.grid_height, 2) << shrunk.describe();
  }
  EXPECT_EQ(shrunk.max_weight, 1) << shrunk.describe();
  EXPECT_NE(shrunk.describe(), start.describe());
}

TEST_F(ShrinkTest, ShrunkCaseStillSatisfiesPredicate) {
  // Predicate: the case still has at least 3 terminals. The shrinker must
  // stop right at the boundary, never return a passing case.
  const auto at_least_three = [](const TreeCase& c) { return c.terminals.size() >= 3; };
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    TreeCase start = generate_tree_case(seed, 9, kTwoAlgorithms);
    if (!at_least_three(start)) continue;
    const TreeCase shrunk = shrink_tree_case(start, at_least_three);
    EXPECT_TRUE(at_least_three(shrunk)) << shrunk.describe();
    EXPECT_EQ(shrunk.terminals.size(), 3u) << shrunk.describe();
  }
}

TEST_F(ShrinkTest, ShrunkTerminalsStayValid) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const TreeCase start = generate_tree_case(seed, 9, kTwoAlgorithms);
    const TreeCase shrunk = shrink_tree_case(start, [](const TreeCase&) { return true; });
    const std::set<NodeId> unique(shrunk.terminals.begin(), shrunk.terminals.end());
    EXPECT_EQ(unique.size(), shrunk.terminals.size()) << shrunk.describe();
    for (const NodeId t : shrunk.terminals) {
      EXPECT_GE(t, 0) << shrunk.describe();
      EXPECT_LT(t, static_cast<NodeId>(shrunk.node_count())) << shrunk.describe();
    }
  }
}

TEST_F(ShrinkTest, ShrinkDrivesCircuitCaseToMinimum) {
  const CircuitCase start = generate_circuit_case(11);
  const CircuitCase shrunk =
      shrink_circuit_case(start, [](const CircuitCase&) { return true; });
  EXPECT_EQ(shrunk.rows, 2) << shrunk.describe();
  EXPECT_EQ(shrunk.cols, 2) << shrunk.describe();
  EXPECT_EQ(shrunk.width, 2) << shrunk.describe();
  EXPECT_EQ(shrunk.nets_over_10, 0) << shrunk.describe();
  EXPECT_EQ(shrunk.nets_4_10, 0) << shrunk.describe();
  EXPECT_GE(shrunk.nets_2_3 + shrunk.nets_4_10 + shrunk.nets_over_10, 1) << shrunk.describe();
}

TEST_F(ShrinkTest, ShrinkIsIdentityOnPassingCase) {
  const TreeCase start = generate_tree_case(3, 9, kTwoAlgorithms);
  const TreeCase same = shrink_tree_case(start, [](const TreeCase&) { return false; });
  EXPECT_EQ(same.describe(), start.describe());
  EXPECT_TRUE(same == start);
}

}  // namespace
}  // namespace fpr::check
