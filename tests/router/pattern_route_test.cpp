// Pattern-route equivalence contract (DESIGN.md §13): an accepted L/Z
// corridor probe is a feasible source->sink path on the live graph whose
// recorded cost a full Dijkstra on the same snapshot can only match or
// beat (the corridor search relaxes the same weights over a subset of the
// graph); congested and fault-blocked corridors make the probe decline —
// never ship an unusable or over-capacity hop — so the negotiated loop
// falls back to the scoped engine. Plus the TileRect geometry corridors
// are built from.

#include <gtest/gtest.h>

#include <vector>

#include "fpga/device.hpp"
#include "graph/congestion_layer.hpp"
#include "graph/path_oracle.hpp"
#include "netlist/netlist.hpp"
#include "router/patterns.hpp"

namespace fpr {
namespace {

struct PinPair {
  PinRef a;
  PinRef b;
};

/// Straight, L, and (span >= 6) Z-shaped terminal pairs on an 8x8 array.
std::vector<PinPair> probe_pairs() {
  return {
      {{1, 1}, {6, 1}},  // horizontally aligned: straight corridor
      {{2, 0}, {2, 6}},  // vertically aligned
      {{1, 1}, {5, 4}},  // L bend
      {{6, 2}, {1, 5}},  // L bend, leftward
      {{0, 2}, {7, 3}},  // |dx| = 7: Z-h candidates engage
      {{2, 0}, {3, 7}},  // |dy| = 7: Z-v candidates engage
      {{2, 2}, {3, 3}},  // short diagonal
  };
}

Net pair_net(const Device& device, const PinPair& p) {
  CircuitNet net;
  net.source = p.a;
  net.sinks = {p.b};
  return to_graph_net(device, net);
}

/// Asserts `edges` is a chain from source to sink in the device graph and
/// returns its live-weight cost, summed in path order (the same
/// accumulation order the probe's relaxation used, so comparisons against
/// probe.cost are bit-exact).
Weight verify_path(const Device& device, const std::vector<EdgeId>& edges, NodeId source,
                   NodeId sink) {
  const Graph& g = device.graph();
  NodeId cur = source;
  Weight cost = 0;
  for (const EdgeId e : edges) {
    EXPECT_TRUE(g.edge_usable(e)) << "edge " << e;
    const Graph::Edge ed = g.edge(e);
    EXPECT_TRUE(ed.u == cur || ed.v == cur) << "edge " << e << " breaks the chain at " << cur;
    cur = ed.u == cur ? ed.v : ed.u;
    cost += g.edge_weight(e);
  }
  EXPECT_EQ(cur, sink);
  return cost;
}

class PatternRouteTest : public ::testing::Test {
 protected:
  PatternRouteTest() : device_(ArchSpec::xc4000(8, 8, 5)) {}
  Device device_;
};

TEST_F(PatternRouteTest, AcceptedProbeIsFeasibleAndNeverBeatsDijkstra) {
  Graph& g = device_.graph();
  CongestionLayer layer(g, device_.block_count());
  PathOracle oracle(g);
  int accepted = 0;
  for (const PinPair& p : probe_pairs()) {
    SCOPED_TRACE(testing::Message() << "(" << p.a.x << "," << p.a.y << ")->(" << p.b.x << ","
                                    << p.b.y << ")");
    WorkBudget budget;
    const Net net = pair_net(device_, p);
    ASSERT_EQ(net.sinks.size(), 1u);
    const PatternProbe probe = pattern_route(device_, layer, net.source, net.sinks[0], &budget);
    EXPECT_FALSE(probe.budget_aborted);
    if (!probe.accepted) continue;
    ++accepted;
    ASSERT_FALSE(probe.edges.empty());
    EXPECT_EQ(verify_path(device_, probe.edges, net.source, net.sinks[0]), probe.cost);
    for (const EdgeId e : probe.edges) {
      const Graph::Edge ed = g.edge(e);
      if (device_.is_wire(ed.u)) {
        EXPECT_FALSE(layer.would_overflow(ed.u));
      }
      if (device_.is_wire(ed.v)) {
        EXPECT_FALSE(layer.would_overflow(ed.v));
      }
    }
    // The equivalence pin: full Dijkstra on the same snapshot is never
    // worse than the corridor probe.
    EXPECT_LE(oracle.distance(net.source, net.sinks[0]), probe.cost);
    // The probe charged real work.
    EXPECT_GT(probe.expansions, 0);
  }
  // On a pristine device every one of these corridors is free: a probe that
  // declines everything would make this suite vacuous.
  EXPECT_EQ(accepted, static_cast<int>(probe_pairs().size()));
}

TEST_F(PatternRouteTest, EquivalenceHoldsUnderPartialCongestion) {
  Graph& g = device_.graph();
  CongestionLayer layer(g, device_.block_count());
  // Occupy a scattered third of the wires: corridors now see real present
  // costs and some at-capacity prunes.
  for (int k = 0; k < device_.wire_count(); k += 3) {
    layer.add_occupant(device_.block_count() + k);
  }
  PathOracle oracle(g);
  int accepted = 0;
  for (const PinPair& p : probe_pairs()) {
    SCOPED_TRACE(testing::Message() << "(" << p.a.x << "," << p.a.y << ")->(" << p.b.x << ","
                                    << p.b.y << ")");
    WorkBudget budget;
    const Net net = pair_net(device_, p);
    const PatternProbe probe = pattern_route(device_, layer, net.source, net.sinks[0], &budget);
    if (!probe.accepted) continue;
    ++accepted;
    EXPECT_EQ(verify_path(device_, probe.edges, net.source, net.sinks[0]), probe.cost);
    for (const EdgeId e : probe.edges) {
      const Graph::Edge ed = g.edge(e);
      if (device_.is_wire(ed.u)) {
        EXPECT_FALSE(layer.would_overflow(ed.u));
      }
      if (device_.is_wire(ed.v)) {
        EXPECT_FALSE(layer.would_overflow(ed.v));
      }
    }
    EXPECT_LE(oracle.distance(net.source, net.sinks[0]), probe.cost);
  }
  EXPECT_GT(accepted, 0) << "every corridor congested away: weaken the occupancy pattern";
}

TEST_F(PatternRouteTest, ProbeIsDeterministic) {
  CongestionLayer layer(device_.graph(), device_.block_count());
  for (const PinPair& p : probe_pairs()) {
    const Net net = pair_net(device_, p);
    WorkBudget b1, b2;
    const PatternProbe first = pattern_route(device_, layer, net.source, net.sinks[0], &b1);
    const PatternProbe second = pattern_route(device_, layer, net.source, net.sinks[0], &b2);
    EXPECT_EQ(first.accepted, second.accepted);
    EXPECT_EQ(first.edges, second.edges);
    EXPECT_EQ(first.cost, second.cost);
    EXPECT_EQ(first.expansions, second.expansions);
    EXPECT_EQ(b1.used, b2.used);
  }
}

TEST_F(PatternRouteTest, SaturatedCorridorsDeclineAndRecoverAfterRipUp) {
  CongestionLayer layer(device_.graph(), device_.block_count());
  for (int k = 0; k < device_.wire_count(); ++k) {
    layer.add_occupant(device_.block_count() + k);
  }
  const Net net = pair_net(device_, {{1, 1}, {6, 1}});
  WorkBudget budget;
  const PatternProbe congested = pattern_route(device_, layer, net.source, net.sinks[0], &budget);
  EXPECT_FALSE(congested.accepted) << "probe shipped a path through at-capacity wires";
  EXPECT_FALSE(congested.budget_aborted);

  // Rip-up (begin_pass clears all occupancy) makes the same probe accept:
  // the decline above was congestion, not geometry.
  layer.begin_pass();
  WorkBudget fresh;
  EXPECT_TRUE(pattern_route(device_, layer, net.source, net.sinks[0], &fresh).accepted);
}

TEST_F(PatternRouteTest, FaultedCorridorsNeverShipUnusableHops) {
  // Regression scenario from the fault suite: heavy wire/switch defects.
  // Whatever the probe accepts must be entirely usable; at this defect
  // density at least one corridor pair must decline (fall back).
  FaultSpec faults;
  faults.seed = 5;
  faults.wire_permille = 850;
  faults.switch_permille = 500;
  device_.install_faults(faults);
  CongestionLayer layer(device_.graph(), device_.block_count());
  int declined = 0;
  for (const PinPair& p : probe_pairs()) {
    SCOPED_TRACE(testing::Message() << "(" << p.a.x << "," << p.a.y << ")->(" << p.b.x << ","
                                    << p.b.y << ")");
    WorkBudget budget;
    const Net net = pair_net(device_, p);
    const PatternProbe probe = pattern_route(device_, layer, net.source, net.sinks[0], &budget);
    if (!probe.accepted) {
      ++declined;
      continue;
    }
    EXPECT_EQ(verify_path(device_, probe.edges, net.source, net.sinks[0]), probe.cost);
  }
  EXPECT_GT(declined, 0) << "defect density too low to exercise the fallback path";
}

TEST_F(PatternRouteTest, ExhaustedBudgetAbortsInsteadOfAccepting) {
  CongestionLayer layer(device_.graph(), device_.block_count());
  const Net net = pair_net(device_, {{0, 2}, {7, 3}});
  WorkBudget tiny{1, 0};
  const PatternProbe probe = pattern_route(device_, layer, net.source, net.sinks[0], &tiny);
  EXPECT_FALSE(probe.accepted);
  EXPECT_TRUE(probe.budget_aborted);
  EXPECT_TRUE(tiny.exhausted());
}

// ---------------------------------------------------------------------------
// TileRect: the half-tile rectangles pattern corridors are built from.
// ---------------------------------------------------------------------------

TEST(TileRectTest, EmptinessAndInclude) {
  TileRect r;
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.intersects(r));  // empty rects intersect nothing
  EXPECT_FALSE(r.contains_point(0, 0));
  r.include(3, 4);
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r, (TileRect{3, 4, 3, 4}));
  r.include(1, 7);
  EXPECT_EQ(r, (TileRect{1, 4, 3, 7}));
  EXPECT_TRUE(r.contains_point(2, 5));
  EXPECT_FALSE(r.contains_point(4, 5));
}

TEST(TileRectTest, IntersectionAndClipping) {
  const TileRect a{0, 0, 4, 4};
  const TileRect b{4, 4, 8, 8};  // inclusive coords: corner overlap at (4,4)
  const TileRect c{5, 0, 8, 3};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_EQ(a.clipped(b), (TileRect{4, 4, 4, 4}));
  EXPECT_TRUE(a.clipped(c).empty());
  EXPECT_EQ(a.expanded(2), (TileRect{-2, -2, 6, 6}));
  EXPECT_TRUE(TileRect{}.expanded(3).empty());
}

}  // namespace
}  // namespace fpr
