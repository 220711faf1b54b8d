// Differential pinning of the point-to-point search (dijkstra_to) against
// the frozen reference engine (graph/dijkstra_reference.hpp): on every node
// the goal-directed tree knows(), dist, parent and parent_edge must be
// BIT-identical to a full Dijkstra from the same source — the A* settle
// order changes, Dijkstra's tie-break must not.
//
// Bounds: the zero bound (plain Dijkstra order), unweighted hop distance to
// the target and the exact weighted distance to the target (every node on a
// shortest path ties at f == d*, the hardest case for tie-break recovery) on
// random check/generate graphs with weights >= 1; Device's half-tile bound on
// devices with faults and routed congestion. Each over inactive nodes and
// edges, unreachable and inactive targets, target == source, and budget
// stops.

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <random>
#include <vector>

#include "check/generate.hpp"
#include "fpga/device.hpp"
#include "fpga/faults.hpp"
#include "graph/dijkstra.hpp"
#include "graph/dijkstra_reference.hpp"
#include "router/router.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Every node `got` knows carries the reference's exact label; returns the
/// number of known nodes. A complete `got` must know every node.
std::size_t expect_known_labels_match(const ShortestPathTree& got, const reference::Tree& want) {
  EXPECT_EQ(got.source(), want.source);
  EXPECT_EQ(got.node_count(), static_cast<NodeId>(want.dist.size()));
  std::size_t known = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(want.dist.size()); ++v) {
    if (!got.knows(v)) continue;
    ++known;
    const auto i = static_cast<std::size_t>(v);
    EXPECT_TRUE(same_bits(got.distance(v), want.dist[i]))
        << "dist of node " << v << ": " << got.distance(v) << " vs " << want.dist[i];
    EXPECT_EQ(got.parent(v), want.parent[i]) << "parent of node " << v;
    EXPECT_EQ(got.parent_edge(v), want.parent_edge[i]) << "parent_edge of node " << v;
  }
  return known;
}

/// A bound read from a per-node table aimed at one target (the table is
/// the bound for that target; other targets get 0, which is also valid).
struct TableBound {
  NodeId target = kInvalidNode;
  std::vector<Weight> h;
  Weight operator()(NodeId v, NodeId t) const {
    return t == target ? h[static_cast<std::size_t>(v)] : 0;
  }
};

/// Unweighted hop distance to `target` over usable nodes and edges; 0 off
/// the target's component (consistent there: no usable edge leaves it).
TableBound hop_bound(const Graph& g, NodeId target) {
  TableBound b{target, std::vector<Weight>(static_cast<std::size_t>(g.node_count()), 0)};
  if (!g.node_active(target)) return b;
  std::vector<int> hops(static_cast<std::size_t>(g.node_count()), -1);
  std::deque<NodeId> queue{target};
  hops[static_cast<std::size_t>(target)] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const EdgeId e : g.incident_edges(u)) {
      if (!g.edge_usable(e)) continue;
      const NodeId v = g.other_end(e, u);
      if (hops[static_cast<std::size_t>(v)] >= 0) continue;
      hops[static_cast<std::size_t>(v)] = hops[static_cast<std::size_t>(u)] + 1;
      b.h[static_cast<std::size_t>(v)] = hops[static_cast<std::size_t>(v)];
      queue.push_back(v);
    }
  }
  return b;
}

/// The exact weighted distance to `target` (0 where unreachable).
TableBound exact_bound(const Graph& g, NodeId target) {
  const reference::Tree t = reference::dijkstra(g, target);
  TableBound b{target, t.dist};
  for (Weight& w : b.h) {
    if (w >= kInfiniteWeight) w = 0;
  }
  return b;
}

/// Runs dijkstra_to under `bound` and pins it against the full reference
/// tree: known labels match, the target is known (unless a budget stopped
/// the run), and the run's settled set is budget-deterministic.
void check_point_to_point(const Graph& g, NodeId source, NodeId target, DistanceBound bound,
                          const reference::Tree& want) {
  ShortestPathTree got;
  dijkstra_to(g, source, target, bound, got);
  EXPECT_FALSE(got.budget_aborted());
  const std::size_t known = expect_known_labels_match(got, want);
  if (g.node_active(source)) {
    EXPECT_TRUE(got.knows(target)) << "target " << target << " not settled";
    EXPECT_TRUE(got.knows(source));
    EXPECT_GE(known, 1u);
  }
  if (!want.reached(target) && g.node_active(source)) {
    // Nothing can stop the run short of draining the source's component.
    EXPECT_TRUE(got.complete()) << "unreachable target must drain the component";
  }

  // Budget stops at a spread of limits: every label the stopped tree
  // claims is final, and the same budget settles the same set again.
  for (const long long limit : {1LL, 2LL, 3LL, 7LL, 20LL, 100LL}) {
    WorkBudget budget;
    budget.limit = limit;
    ShortestPathTree partial;
    dijkstra_to(g, source, target, bound, partial, &budget);
    expect_known_labels_match(partial, want);
    WorkBudget again;
    again.limit = limit;
    ShortestPathTree repeat;
    dijkstra_to(g, source, target, bound, repeat, &again);
    EXPECT_EQ(testing::labels_of(partial).known, testing::labels_of(repeat).known)
        << "budget " << limit;
    EXPECT_EQ(partial.budget_aborted(), repeat.budget_aborted()) << "budget " << limit;
  }
}

void check_all_bounds(const Graph& g, NodeId source, NodeId target) {
  const reference::Tree want = reference::dijkstra(g, source);
  const auto zero = [](NodeId, NodeId) -> Weight { return 0; };
  check_point_to_point(g, source, target, DistanceBound(zero), want);
  const TableBound hops = hop_bound(g, target);
  check_point_to_point(g, source, target, DistanceBound(hops), want);
  const TableBound exact = exact_bound(g, target);
  check_point_to_point(g, source, target, DistanceBound(exact), want);
}

/// Removes and restores random nodes and edges and bumps weights (>= 1 is
/// kept: bumps only add).
void mutate(Graph& g, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> op(0, 4);
  std::uniform_int_distribution<NodeId> node(0, g.node_count() - 1);
  std::uniform_int_distribution<EdgeId> edge(0, g.edge_count() - 1);
  switch (op(rng)) {
    case 0: g.remove_edge(edge(rng)); break;
    case 1: g.restore_edge(edge(rng)); break;
    case 2: g.remove_node(node(rng)); break;
    case 3: g.restore_node(node(rng)); break;
    case 4: g.add_edge_weight(edge(rng), 1); break;
  }
}

class DijkstraToDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DijkstraToDifferentialTest, GeneratedGraphsMatchReferenceOnKnownNodes) {
  const unsigned seed = GetParam();
  const Algorithm any[] = {Algorithm::kKmb};
  const check::TreeCase tc = check::generate_tree_case(seed, 6, any);
  Graph g = tc.materialize();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<NodeId> node(0, g.node_count() - 1);
  for (int round = 0; round < 5; ++round) {
    const NodeId source = node(rng);
    const NodeId target = round == 4 ? source : node(rng);  // last round: target == source
    check_all_bounds(g, source, target);
    for (int m = 0; m < 3; ++m) mutate(g, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraToDifferentialTest, ::testing::Range(0u, 60u));

TEST(DijkstraToTest, EqualCostDiamondsKeepDijkstrasParents) {
  // A ladder of equal-cost diamonds: many tight predecessors per node, and
  // the exact bound makes A* pop them in a different order than Dijkstra.
  Graph g(10);
  for (NodeId k = 0; k + 3 < 10; k += 3) {
    g.add_edge(k, k + 2, 1);  // the larger-id branch first in edge order
    g.add_edge(k, k + 1, 1);
    g.add_edge(k + 2, k + 3, 1);
    g.add_edge(k + 1, k + 3, 1);
  }
  check_all_bounds(g, 9, 0);
  check_all_bounds(g, 0, 9);
}

TEST(DijkstraToTest, ParallelEdgesKeepTheLowestTightEdgeId) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(0, 1, 1);  // tight
  g.add_edge(0, 1, 1);  // tight, higher id
  g.add_edge(1, 2, 1);
  check_all_bounds(g, 0, 2);
  const auto zero = [](NodeId, NodeId) -> Weight { return 0; };
  ShortestPathTree t;
  dijkstra_to(g, 0, 2, DistanceBound(zero), t);
  EXPECT_EQ(t.parent_edge(1), 1);
}

TEST(DijkstraToTest, UnreachableAndInactiveTargets) {
  Graph g(6);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(3, 4, 1);  // separate component
  g.add_edge(4, 5, 1);
  check_all_bounds(g, 0, 4);  // unreachable: drains {0, 1, 2}
  g.remove_node(2);
  check_all_bounds(g, 0, 2);  // inactive target
  g.remove_node(0);
  check_all_bounds(g, 0, 1);  // inactive source: nothing settles
  const auto zero = [](NodeId, NodeId) -> Weight { return 0; };
  ShortestPathTree t;
  dijkstra_to(g, 0, 1, DistanceBound(zero), t);
  EXPECT_FALSE(t.reached(0));
  EXPECT_FALSE(t.reached(1));
}

TEST(DijkstraToTest, TargetEqualsSourceSettlesOnlyTheZeroBall) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  const auto zero = [](NodeId, NodeId) -> Weight { return 0; };
  ShortestPathTree t;
  dijkstra_to(g, 1, 1, DistanceBound(zero), t);
  EXPECT_TRUE(t.knows(1));
  EXPECT_EQ(t.distance(1), 0);
  EXPECT_FALSE(t.knows(0));
  EXPECT_FALSE(t.knows(2));
}

TEST(DijkstraToTest, ExhaustedBudgetSettlesNothing) {
  Graph g(2);
  g.add_edge(0, 1, 1);
  const auto zero = [](NodeId, NodeId) -> Weight { return 0; };
  WorkBudget budget;
  budget.limit = 1;
  budget.used = 1;
  ShortestPathTree t;
  dijkstra_to(g, 0, 1, DistanceBound(zero), t, &budget);
  EXPECT_TRUE(t.budget_aborted());
  EXPECT_FALSE(t.knows(0));
  EXPECT_FALSE(t.knows(1));
}

/// Device graphs under the device's own bound, pristine, with faults, and
/// after a congested paper-mode route (penalized weights, consumed wires).
class DeviceBoundDifferentialTest : public ::testing::TestWithParam<int> {};

void check_device(const Device& device, unsigned seed) {
  const Graph& g = device.graph();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> col(0, device.spec().cols - 1);
  std::uniform_int_distribution<int> row(0, device.spec().rows - 1);
  std::uniform_int_distribution<NodeId> any(0, g.node_count() - 1);
  const DistanceBound bound = device.distance_bound();
  for (int i = 0; i < 4; ++i) {
    // Block-to-block queries (what nets ask) and arbitrary node pairs.
    const NodeId s = i < 2 ? device.block_node(col(rng), row(rng)) : any(rng);
    const NodeId t = i < 2 ? device.block_node(col(rng), row(rng)) : any(rng);
    check_point_to_point(g, s, t, bound, reference::dijkstra(g, s));
  }
}

TEST_P(DeviceBoundDifferentialTest, MatchesReferenceWithFaultsAndCongestion) {
  const int variant = GetParam();
  const bool xc3000 = variant % 2 == 1;
  const DeviceBuild build = variant % 4 >= 2 ? DeviceBuild::kLegacy : DeviceBuild::kAuto;
  const ArchSpec spec = xc3000 ? ArchSpec::xc3000(7, 6, 5) : ArchSpec::xc4000(6, 7, 4);
  Device device(spec, build);
  check_device(device, 10u + static_cast<unsigned>(variant));

  FaultSpec faults;
  faults.seed = 3 + static_cast<std::uint64_t>(variant);
  faults.wire_permille = 40;
  faults.switch_permille = 20;
  faults.pin_permille = 10;
  faults.clusters = 1;
  device.install_faults(faults);
  check_device(device, 20u + static_cast<unsigned>(variant));

  // Route a small circuit without resetting afterwards: its consumed wires
  // and congestion penalties stay on the graph.
  check::CircuitCase cc;
  cc.family = xc3000 ? check::CircuitCase::Family::kXc3000 : check::CircuitCase::Family::kXc4000;
  cc.rows = spec.rows;
  cc.cols = spec.cols;
  cc.synth_seed = 5 + static_cast<std::uint64_t>(variant);
  RouterOptions options = cc.router_options();
  options.fault_retries = 2;
  route_circuit(device, cc.circuit(), options);
  check_device(device, 30u + static_cast<unsigned>(variant));
}

INSTANTIATE_TEST_SUITE_P(Variants, DeviceBoundDifferentialTest, ::testing::Range(0, 8));

TEST(DeviceBoundDifferentialTest, TiledGraphAboveTheFlatCut) {
  // Above Graph::kFlatAdjacencyMaxEdges the engine decodes the tile
  // template per pop instead of walking flat slices.
  Device device(ArchSpec::xc4000(50, 50, 12));
  ASSERT_TRUE(device.tiled());
  ASSERT_EQ(device.graph().flat_adjacency(), nullptr);
  const Graph& g = device.graph();
  const DistanceBound bound = device.distance_bound();
  const NodeId s = device.block_node(3, 40);
  const NodeId t = device.block_node(31, 9);
  check_point_to_point(g, s, t, bound, reference::dijkstra(g, s));
}

}  // namespace
}  // namespace fpr
