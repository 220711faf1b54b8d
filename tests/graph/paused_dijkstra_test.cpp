// Differential pinning of paused scoped searches (dijkstra_within_paused,
// the trees PathOracle caches). A paused tree stops right after its last
// target settles and grows on every read until the node read settles; it
// must answer each read exactly as dijkstra() and the frozen reference
// engine's unbounded run (graph/dijkstra_reference.hpp) do. Goal-directed
// trees (a DistanceBound over two or more goals) are held to the same
// contract.
//
// Graphs: random check/generate graphs with interleaved mutations, some
// with zero-weight edges, and legacy, tiled-flat and tiled-above-the-cut
// devices with faults and congestion. Each is driven with random probe
// sequences, checked after every probe (re-reading an answered probe must
// grow nothing), then grown fully (must equal dijkstra()) and re-run under
// budgets (must be deterministic). Goal-directed trees run under the zero,
// hop-count and exact-distance bounds on generated graphs (the zero and
// exact bounds with zero-weight edges too) and under the device bound on
// devices.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <random>
#include <vector>

#include "check/generate.hpp"
#include "core/contract.hpp"
#include "fpga/device.hpp"
#include "fpga/faults.hpp"
#include "graph/dijkstra.hpp"
#include "graph/dijkstra_reference.hpp"
#include "graph/path_oracle.hpp"
#include "router/router.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

bool same_bits(Weight a, Weight b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One read of node v: the paused tree knows v and carries the reference
/// engine's exact labels and dijkstra()'s path.
void expect_read_matches(const ShortestPathTree& paused, NodeId v, const ShortestPathTree& full,
                         const reference::Tree& ref) {
  const auto i = static_cast<std::size_t>(v);
  EXPECT_TRUE(paused.knows(v)) << "knows " << v;
  EXPECT_EQ(paused.reached(v), ref.reached(v)) << "reached " << v;
  EXPECT_TRUE(same_bits(paused.distance(v), ref.dist[i])) << "dist " << v;
  EXPECT_EQ(paused.parent(v), ref.parent[i]) << "parent " << v;
  EXPECT_EQ(paused.parent_edge(v), ref.parent_edge[i]) << "parent_edge " << v;
  EXPECT_EQ(paused.path_edges_to(v), full.path_edges_to(v)) << "path to " << v;
  // Every node on the path before v has settled: its labels are final and
  // read without growing.
  const std::vector<NodeId> path = paused.path_nodes_to(v);
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    const NodeId u = path[k];
    const auto j = static_cast<std::size_t>(u);
    EXPECT_TRUE(paused.knows(u)) << "path node " << u;
    EXPECT_TRUE(same_bits(paused.distance(u), ref.dist[j])) << "dist " << u;
    EXPECT_EQ(paused.parent(u), ref.parent[j]) << "parent " << u;
  }
}

/// Drives a paused tree from `source` toward `targets` through `probes`,
/// checking every read; then pins full growth and budgets.
void check_paused(const Graph& g, NodeId source, const std::vector<NodeId>& targets,
                  const std::vector<NodeId>& probes, const DistanceBound* bound = nullptr) {
  SCOPED_TRACE(::testing::Message() << "source " << source << (bound ? " goal-directed" : ""));
  const ShortestPathTree full = dijkstra(g, source);
  const reference::Tree ref = reference::dijkstra(g, source);

  ShortestPathTree paused;
  dijkstra_within_paused(g, source, targets, paused, nullptr, bound);
  EXPECT_EQ(paused.inactive_targets(),
            reference::dijkstra_within(g, source, targets).inactive_targets);
  EXPECT_LE(paused.run_pops(), full.run_pops());
  for (const NodeId t : targets) {
    if (g.node_active(t)) {
      EXPECT_TRUE(paused.knows(t)) << "target " << t;
    }
  }
  // The pause itself: with growth switched off by a spent budget, every
  // node the tree knows carries the reference's labels — a goal-directed
  // run's last tie run included.
  {
    WorkBudget budget;
    ShortestPathTree at_pause;
    dijkstra_within_paused(g, source, targets, at_pause, &budget, bound);
    budget.limit = budget.used + 1;
    budget.used = budget.limit;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!at_pause.knows(v) || !at_pause.reached(v)) continue;
      const auto i = static_cast<std::size_t>(v);
      EXPECT_TRUE(same_bits(at_pause.distance(v), ref.dist[i])) << "paused dist " << v;
      EXPECT_EQ(at_pause.parent(v), ref.parent[i]) << "paused parent " << v;
      EXPECT_EQ(at_pause.parent_edge(v), ref.parent_edge[i]) << "paused parent_edge " << v;
    }
  }
  std::vector<NodeId> seen;
  for (const NodeId p : probes) {
    expect_read_matches(paused, p, full, ref);
    seen.push_back(p);
    // Growing for p must not move an answer given earlier, and reading an
    // answered probe again grows nothing.
    const std::int64_t resumes = paused.resumes();
    const std::int64_t pops = paused.resume_pops();
    for (const NodeId q : seen) {
      EXPECT_TRUE(same_bits(paused.distance(q), ref.dist[static_cast<std::size_t>(q)]));
      EXPECT_TRUE(paused.knows(q));
    }
    EXPECT_EQ(paused.resumes(), resumes) << "re-reading the probes before " << p;
    EXPECT_EQ(paused.resume_pops(), pops) << "re-reading the probes before " << p;
  }
  // Growth never settles more than the unbounded run does.
  EXPECT_LE(paused.run_pops() + paused.resume_pops(), full.run_pops());

  // Fully grown: dijkstra(), node for node, with every node popped once.
  EXPECT_TRUE(paused.complete());
  EXPECT_EQ(paused.run_pops() + paused.resume_pops(), full.run_pops());
  const testing::TreeLabels grown = testing::labels_of(paused);
  const testing::TreeLabels want = testing::labels_of(full);
  EXPECT_EQ(grown.dist, want.dist);
  EXPECT_EQ(grown.parent, want.parent);
  EXPECT_EQ(grown.parent_edge, want.parent_edge);
  EXPECT_EQ(grown.known, want.known);

  // Budgets: the same budget and reads give the same partial tree, its
  // known labels are the reference's, and every pop is charged.
  for (const long long limit : {1LL, 3LL, 17LL, 60LL, 400LL}) {
    SCOPED_TRACE(::testing::Message() << "budget " << limit);
    testing::TreeLabels runs[2];
    long long used[2] = {0, 0};
    for (int r = 0; r < 2; ++r) {
      WorkBudget budget{limit};
      ShortestPathTree partial;
      dijkstra_within_paused(g, source, targets, partial, &budget, bound);
      for (const NodeId p : probes) (void)partial.distance(p);
      runs[r] = testing::labels_of(partial);
      used[r] = budget.used;
      EXPECT_EQ(partial.run_pops() + partial.resume_pops(), budget.used);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (!runs[r].known[static_cast<std::size_t>(v)] || !partial.reached(v)) continue;
        EXPECT_TRUE(same_bits(partial.distance(v), ref.dist[static_cast<std::size_t>(v)]));
        EXPECT_EQ(partial.parent(v), ref.parent[static_cast<std::size_t>(v)]);
      }
    }
    EXPECT_EQ(runs[0].dist, runs[1].dist);
    EXPECT_EQ(runs[0].parent, runs[1].parent);
    EXPECT_EQ(runs[0].known, runs[1].known);
    EXPECT_EQ(used[0], used[1]);
  }
}

/// Random probes: uniform nodes (mostly far past the pause point), the
/// targets' neighbourhoods, and repeats.
std::vector<NodeId> random_probes(const Graph& g, const std::vector<NodeId>& targets,
                                  std::mt19937_64& rng, int count) {
  std::uniform_int_distribution<NodeId> node(0, g.node_count() - 1);
  std::uniform_int_distribution<std::size_t> pick(0, targets.size() - 1);
  std::uniform_int_distribution<int> kind(0, 3);
  std::vector<NodeId> probes;
  for (int i = 0; i < count; ++i) {
    const int k = kind(rng);
    if (k == 0 || probes.empty()) {
      probes.push_back(node(rng));
    } else if (k == 1) {
      probes.push_back(probes[static_cast<std::size_t>(node(rng)) % probes.size()]);
    } else {
      // A node a few ids away from a target: usually near it on grids.
      const NodeId t = targets[pick(rng)];
      const NodeId v = t + static_cast<NodeId>(kind(rng)) - 1;
      probes.push_back(v >= 0 && v < g.node_count() ? v : t);
    }
  }
  return probes;
}

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

/// A bound toward several targets, read from one per-node table per target;
/// any other target gets 0, which is also valid.
struct TableBound {
  std::vector<NodeId> targets;
  std::vector<std::vector<Weight>> tables;
  Weight operator()(NodeId v, NodeId t) const {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (targets[i] == t) return tables[i][static_cast<std::size_t>(v)];
    }
    return 0;
  }
};

/// Unweighted hop distance to `target` over usable nodes and edges; 0 off
/// the target's component (consistent there: no usable edge leaves it).
/// With every weight >= 1 it is consistent; a zero-weight edge breaks that.
std::vector<Weight> hop_table(const Graph& g, NodeId target) {
  std::vector<Weight> h(static_cast<std::size_t>(g.node_count()), 0);
  if (!g.node_active(target)) return h;
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
      h[static_cast<std::size_t>(v)] = hops[static_cast<std::size_t>(v)];
      queue.push_back(v);
    }
  }
  return h;
}

/// The exact weighted distance to `target` (0 where unreachable): every
/// node on a shortest path ties at one key, the hardest case for the tie
/// runs. It is consistent on any non-negative weights.
std::vector<Weight> exact_table(const Graph& g, NodeId target) {
  std::vector<Weight> h = reference::dijkstra(g, target).dist;
  for (Weight& w : h) {
    if (w >= kInfiniteWeight) w = 0;
  }
  return h;
}

class PausedDijkstraDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PausedDijkstraDifferentialTest, GeneratedGraphsAnswerLikeTheOneShotBall) {
  const unsigned seed = GetParam();
  const Algorithm any[] = {Algorithm::kIkmb};
  const check::TreeCase tc = check::generate_tree_case(seed, 6, any);
  Graph g = tc.materialize();
  std::mt19937_64 rng(testing::seeded_rng("paused_dijkstra", seed));
  std::uniform_int_distribution<NodeId> node(0, g.node_count() - 1);
  // Odd seeds weigh some edges zero: a pop can then push a smaller (key,
  // id) than its own, and the popped node must still read settled.
  if (seed % 2 == 1) testing::zero_some_weights(g, rng);
  for (int round = 0; round < 4; ++round) {
    std::vector<NodeId> targets = tc.terminals;
    if (round == 3) targets.push_back(node(rng));  // possibly inactive or the source
    const NodeId source = round % 2 == 0 ? tc.terminals[0] : node(rng);
    check_paused(g, source, targets, random_probes(g, targets, rng, 12));
    for (int m = 0; m < 3; ++m) mutate(g, rng);
  }
}

TEST_P(PausedDijkstraDifferentialTest, GoalDirectedTreesAnswerLikeDijkstra) {
  // One, two and more goals under the zero, hop-count and exact bounds,
  // with the graph mutated between rounds (each round's tables are rebuilt
  // on it). The zero and exact bounds also run on a copy with some edges
  // weighed zero; the hop bound is consistent only on weights >= 1.
  const unsigned seed = GetParam();
  const Algorithm any[] = {Algorithm::kIkmb};
  const check::TreeCase tc = check::generate_tree_case(seed, 6, any);
  Graph g = tc.materialize();
  std::mt19937_64 rng(testing::seeded_rng("paused_goal_dijkstra", seed));
  std::uniform_int_distribution<NodeId> node(0, g.node_count() - 1);
  for (int round = 0; round < 4; ++round) {
    // Rounds 0-2: the source and its first 1, 2 and 3 fellow terminals;
    // round 3: every terminal plus a random node (possibly inactive or the
    // source).
    const auto count = std::min(tc.terminals.size(), static_cast<std::size_t>(round) + 2);
    std::vector<NodeId> targets(tc.terminals.begin(),
                                tc.terminals.begin() + static_cast<std::ptrdiff_t>(count));
    if (round == 3) {
      targets = tc.terminals;
      targets.push_back(node(rng));
    }
    const NodeId source = round % 2 == 0 ? tc.terminals[0] : node(rng);
    const std::vector<NodeId> probes = random_probes(g, targets, rng, 10);
    const auto zero = [](NodeId, NodeId) -> Weight { return 0; };
    const DistanceBound by_zero(zero);
    check_paused(g, source, targets, probes, &by_zero);
    TableBound hops{targets, {}};
    TableBound exact{targets, {}};
    for (const NodeId t : targets) {
      hops.tables.push_back(hop_table(g, t));
      exact.tables.push_back(exact_table(g, t));
    }
    const DistanceBound by_hops(hops);
    const DistanceBound by_exact(exact);
    check_paused(g, source, targets, probes, &by_hops);
    check_paused(g, source, targets, probes, &by_exact);

    Graph zeroed = g;
    testing::zero_some_weights(zeroed, rng);
    check_paused(zeroed, source, targets, probes, &by_zero);
    TableBound zeroed_exact{targets, {}};
    for (const NodeId t : targets) zeroed_exact.tables.push_back(exact_table(zeroed, t));
    const DistanceBound by_zeroed_exact(zeroed_exact);
    check_paused(zeroed, source, targets, probes, &by_zeroed_exact);
    for (int m = 0; m < 3; ++m) mutate(g, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PausedDijkstraDifferentialTest, ::testing::Range(0u, 40u));

/// Block-terminal nets on a device: each net's first block is the source.
/// Each net is checked plain and goal-directed under the device bound.
void check_device(const Device& device, unsigned seed, int nets) {
  const Graph& g = device.graph();
  const DistanceBound bound = device.distance_bound();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> col(0, device.spec().cols - 1);
  std::uniform_int_distribution<int> row(0, device.spec().rows - 1);
  std::uniform_int_distribution<int> pins(2, 5);
  for (int i = 0; i < nets; ++i) {
    std::vector<NodeId> targets;
    for (int p = pins(rng); p > 0; --p) targets.push_back(device.block_node(col(rng), row(rng)));
    const std::vector<NodeId> probes = random_probes(g, targets, rng, 10);
    check_paused(g, targets[0], targets, probes);
    check_paused(g, targets[0], targets, probes, &bound);
  }
}

class PausedDeviceDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(PausedDeviceDifferentialTest, FaultedCongestedDevicesAnswerLikeTheOneShotBall) {
  const int variant = GetParam();
  const bool xc3000 = variant % 2 == 1;
  const DeviceBuild build = variant >= 2 ? DeviceBuild::kLegacy : DeviceBuild::kAuto;
  const ArchSpec spec = xc3000 ? ArchSpec::xc3000(7, 6, 5) : ArchSpec::xc4000(6, 7, 4);
  Device device(spec, build);
  FaultSpec faults;
  faults.seed = 11 + static_cast<std::uint64_t>(variant);
  faults.wire_permille = 40;
  faults.switch_permille = 20;
  faults.pin_permille = 10;
  faults.clusters = 1;
  device.install_faults(faults);
  // Route a small circuit without resetting: its consumed wires and
  // congestion penalties stay on the graph.
  check::CircuitCase cc;
  cc.family = xc3000 ? check::CircuitCase::Family::kXc3000 : check::CircuitCase::Family::kXc4000;
  cc.rows = spec.rows;
  cc.cols = spec.cols;
  cc.synth_seed = 7 + static_cast<std::uint64_t>(variant);
  RouterOptions options = cc.router_options();
  options.fault_retries = 2;
  route_circuit(device, cc.circuit(), options);
  check_device(device, 40u + static_cast<unsigned>(variant), 3);
}

INSTANTIATE_TEST_SUITE_P(Variants, PausedDeviceDifferentialTest, ::testing::Range(0, 4));

TEST(PausedDeviceDifferentialTest, TiledGraphAboveTheFlatCut) {
  // Above Graph::kFlatAdjacencyMaxEdges growth decodes the tile template
  // per pop, as the first run does.
  Device device(ArchSpec::xc4000(50, 50, 12));
  ASSERT_TRUE(device.tiled());
  ASSERT_EQ(device.graph().flat_adjacency(), nullptr);
  FaultSpec faults;
  faults.seed = 5;
  faults.wire_permille = 30;
  faults.clusters = 2;
  device.install_faults(faults);
  Graph& g = device.graph();
  std::mt19937_64 rng(9);
  std::uniform_int_distribution<EdgeId> edge(0, g.edge_count() - 1);
  for (int i = 0; i < 2000; ++i) g.add_edge_weight(edge(rng), 1);  // congestion
  const std::vector<NodeId> targets{device.block_node(20, 20), device.block_node(23, 18),
                                    device.block_node(19, 24)};
  const std::vector<NodeId> probes{device.block_node(21, 21), device.block_node(25, 25),
                                   device.block_node(2, 47), device.block_node(20, 20)};
  check_paused(g, targets[0], targets, probes);
  const DistanceBound bound = device.distance_bound();
  check_paused(g, targets[0], targets, probes, &bound);
}

TEST(PausedDijkstraTest, PausesAtTheLastTargetAndGrowsOnRead) {
  GridGraph grid(40, 40);
  const NodeId src = grid.node_at(0, 0);
  const std::vector<NodeId> targets{grid.node_at(2, 0), grid.node_at(0, 3)};
  ShortestPathTree paused;
  dijkstra_within_paused(grid.graph(), src, targets, paused);
  const ShortestPathTree full = dijkstra(grid.graph(), src);
  EXPECT_TRUE(paused.paused());
  EXPECT_FALSE(full.paused());
  EXPECT_EQ(paused.run_pops(), 10);  // the nodes at distance <= 3
  EXPECT_EQ(paused.resumes(), 0);
  EXPECT_TRUE(paused.knows(grid.node_at(5, 2)));
  EXPECT_EQ(paused.resumes(), 1);
  // Far past the targets, a read still grows the tree to the node it reads.
  EXPECT_TRUE(paused.knows(grid.node_at(9, 9)));
  EXPECT_EQ(paused.distance(grid.node_at(9, 9)), 18);
  EXPECT_EQ(paused.resumes(), 2);
  EXPECT_LT(paused.run_pops() + paused.resume_pops(), full.run_pops());
  EXPECT_TRUE(paused.knows(grid.node_at(9, 9)));  // already settled
  EXPECT_EQ(paused.resumes(), 2);
  EXPECT_TRUE(paused.complete());  // drains the heap
  EXPECT_EQ(paused.resumes(), 3);
  EXPECT_EQ(paused.run_pops() + paused.resume_pops(), full.run_pops());
}

TEST(PausedDijkstraTest, APoppedNodeStaysSettledOverZeroWeightEdges) {
  // Node 3's tree pops 3, then 1 at distance 1 (its one target), and
  // pauses with 2 next, at distance 1 too. A read of 2 pops it and pushes
  // 0 over a zero-weight edge at distance 1: a (key, id) below 1's. Node 1
  // popped before 2, so reading it again grows nothing.
  Graph g(7);
  g.add_edge(3, 1, 1);
  g.add_edge(3, 2, 1);
  g.add_edge(2, 0, 0);
  g.add_edge(0, 4, 5);
  g.add_edge(4, 5, 1);
  g.add_edge(5, 6, 1);
  const std::vector<NodeId> targets{3, 1};
  ShortestPathTree paused;
  dijkstra_within_paused(g, 3, targets, paused);
  EXPECT_EQ(paused.run_pops(), 2);
  EXPECT_EQ(paused.distance(2), 1);
  EXPECT_EQ(paused.resumes(), 1);
  EXPECT_EQ(paused.resume_pops(), 1);
  EXPECT_TRUE(paused.knows(1));
  EXPECT_EQ(paused.distance(1), 1);
  EXPECT_EQ(paused.resumes(), 1);
  EXPECT_EQ(paused.resume_pops(), 1);
  // The node pushed over the zero-weight edge settles on its own read.
  EXPECT_EQ(paused.distance(0), 1);
  EXPECT_EQ(paused.parent(0), 2);
  EXPECT_EQ(paused.resumes(), 2);
  EXPECT_EQ(paused.resume_pops(), 2);
}

/// The grid's Manhattan distance: exact on a unit grid, so consistent.
struct GridManhattan {
  const GridGraph* grid;
  Weight operator()(NodeId v, NodeId t) const {
    const auto [vx, vy] = grid->coord(v);
    const auto [tx, ty] = grid->coord(t);
    return std::abs(vx - tx) + std::abs(vy - ty);
  }
};

TEST(PausedDijkstraTest, GoalDirectedTreePopsTowardItsGoals) {
  // Two goals east and south-east of the source: the keyed run pops the
  // nodes between them, not the ball of radius 12 around the source, and
  // still grows to a node behind the source on a read.
  GridGraph grid(40, 40);
  const GridManhattan manhattan{&grid};
  const DistanceBound bound(manhattan);
  const NodeId src = grid.node_at(10, 10);
  const std::vector<NodeId> targets{src, grid.node_at(20, 10), grid.node_at(18, 14)};
  ShortestPathTree ball;
  dijkstra_within_paused(grid.graph(), src, targets, ball);
  ShortestPathTree aimed;
  dijkstra_within_paused(grid.graph(), src, targets, aimed, nullptr, &bound);
  EXPECT_TRUE(aimed.paused());
  EXPECT_LT(aimed.run_pops(), ball.run_pops() / 2);
  for (const NodeId t : targets) {
    EXPECT_TRUE(aimed.knows(t));
    EXPECT_EQ(aimed.parent(t), ball.parent(t));
  }
  EXPECT_EQ(aimed.resumes(), 0);
  const NodeId behind = grid.node_at(2, 3);
  EXPECT_EQ(aimed.distance(behind), 15);
  EXPECT_EQ(aimed.path_edges_to(behind), ball.path_edges_to(behind));
  EXPECT_EQ(aimed.resumes(), 1);
  // Fully grown, every node popped once.
  EXPECT_TRUE(aimed.complete());
  EXPECT_EQ(aimed.run_pops() + aimed.resume_pops(), grid.graph().node_count());
}

TEST(PausedDijkstraTest, GrowingAfterARevisionChangeIsAContractViolation) {
  // A tree held across a weight bump would otherwise mix two graph states.
  GridGraph grid(30, 30);
  Graph& g = grid.graph();
  const NodeId src = grid.node_at(0, 0);
  const std::vector<NodeId> targets{grid.node_at(2, 1)};
  ShortestPathTree paused;
  dijkstra_within_paused(g, src, targets, paused);
  const NodeId inside = grid.node_at(1, 1);  // settled before the pause
  const Weight before = paused.distance(inside);
  g.add_edge_weight(0, 1);
  EXPECT_EQ(paused.distance(inside), before);  // answered without growing
  EXPECT_THROW((void)paused.knows(grid.node_at(5, 5)), ContractViolation);
  EXPECT_THROW((void)paused.complete(), ContractViolation);
  // A sealed tree never grows, so it never checks.
  WorkBudget budget{20};
  ShortestPathTree sealed;
  dijkstra(g, src, sealed, &budget);
  ASSERT_TRUE(sealed.budget_aborted());
  g.add_edge_weight(0, 1);
  EXPECT_FALSE(sealed.knows(grid.node_at(29, 29)));
}

TEST(PausedDijkstraTest, OracleUpgradeResumesInsteadOfRestarting) {
  GridGraph grid(30, 30);
  PathOracle oracle(grid.graph());
  WorkBudget budget;
  oracle.set_budget(&budget);
  const NodeId src = grid.node_at(0, 0);
  oracle.set_scope({src, grid.node_at(2, 1)});
  const ShortestPathTree& tree = oracle.from(src);
  const NodeId far = grid.node_at(29, 29);
  EXPECT_DOUBLE_EQ(oracle.distance(src, far), 58);
  EXPECT_TRUE(tree.complete());
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);  // the paused run, grown by the read
  EXPECT_EQ(oracle.cache_hits(), 1u);
  // Every node settled once: the read did not re-pop the first run.
  EXPECT_EQ(budget.used, grid.graph().node_count());
  EXPECT_EQ(oracle.run_pops() + oracle.resume_pops(), budget.used);
  // Without a budget, reads grow for free.
  oracle.clear();
  oracle.set_scope({src, grid.node_at(2, 1)});
  (void)oracle.from(src);
  const long long used = budget.used;
  oracle.set_budget(nullptr);
  EXPECT_TRUE(oracle.cached(src)->knows(grid.node_at(3, 3)));
  EXPECT_EQ(budget.used, used);
  EXPECT_GT(oracle.resume_pops(), 0);
}

}  // namespace
}  // namespace fpr
