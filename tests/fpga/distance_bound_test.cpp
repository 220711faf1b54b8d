// The premises of Device::distance_lower_bound, the point-to-point search's
// bound h(v, t) = ceil(M / 2) over node_tile's half-tile grid:
//  1. every edge spans at most 2 half-tile Manhattan units — pinned over
//     both arch families, several sizes and widths, both builders, and a
//     tiled graph above the flat-adjacency cut;
//  2. every usable edge weight is >= 1.0 — pinned after a paper route whose
//     fault retries engage CongestionRelief (and while a relief guard is
//     live), under the negotiated loop's congestion pricing, and after a
//     repair event.
// Together they make the bound consistent: an edge of weight >= 1 changes
// ceil(M / 2) by at most 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "check/generate.hpp"
#include "core/metrics.hpp"
#include "fpga/device.hpp"
#include "fpga/faults.hpp"
#include "graph/congestion_layer.hpp"
#include "router/internal.hpp"
#include "router/repair.hpp"
#include "router/router.hpp"

namespace fpr {
namespace {

int manhattan(const Device& device, NodeId a, NodeId b) {
  const Device::TilePos pa = device.node_tile(a);
  const Device::TilePos pb = device.node_tile(b);
  return std::abs(pa.x - pb.x) + std::abs(pa.y - pb.y);
}

void expect_edges_span_at_most_two(const Device& device) {
  const Graph& g = device.graph();
  int widest = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Graph::Edge ed = g.edge(e);
    const int span = manhattan(device, ed.u, ed.v);
    widest = std::max(widest, span);
    ASSERT_LE(span, 2) << "edge " << e << " {" << ed.u << ", " << ed.v << "}";
  }
  EXPECT_EQ(widest, 2);  // diagonal switch-block turns reach the limit
}

/// Every usable edge weighs at least the base 1.0; returns how many weigh
/// more (so callers can confirm the state under test is really priced).
int expect_usable_weights_at_least_base(const Graph& g) {
  int priced = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (!g.edge_usable(e)) continue;
    EXPECT_GE(g.edge_weight(e), 1.0) << "edge " << e;
    if (g.edge_weight(e) > 1.0) ++priced;
  }
  return priced;
}

TEST(DistanceBoundTest, EdgesSpanAtMostTwoHalfTileUnits) {
  struct Shape {
    int rows, cols;
  };
  for (const Shape shape : {Shape{3, 4}, Shape{8, 5}, Shape{12, 12}}) {
    for (const int width : {1, 3, 6}) {
      for (const bool xc3000 : {false, true}) {
        const ArchSpec spec = xc3000 ? ArchSpec::xc3000(shape.rows, shape.cols, width)
                                     : ArchSpec::xc4000(shape.rows, shape.cols, width);
        for (const DeviceBuild build : {DeviceBuild::kAuto, DeviceBuild::kLegacy}) {
          SCOPED_TRACE(::testing::Message()
                       << (xc3000 ? "xc3000 " : "xc4000 ") << shape.rows << "x" << shape.cols
                       << " w=" << width << (build == DeviceBuild::kLegacy ? " legacy" : " auto"));
          const Device device(spec, build);
          if (build == DeviceBuild::kLegacy) {
            EXPECT_FALSE(device.tiled());
          }
          expect_edges_span_at_most_two(device);
        }
      }
    }
  }
}

TEST(DistanceBoundTest, TiledGraphAboveTheFlatCutSpansAtMostTwo) {
  const Device device(ArchSpec::xc4000(50, 50, 12));
  ASSERT_TRUE(device.tiled());
  ASSERT_EQ(device.graph().flat_adjacency(), nullptr);
  expect_edges_span_at_most_two(device);
}

TEST(DistanceBoundTest, BoundIsZeroAtTheTargetAndConsistentOnEveryEdge) {
  const Device device(ArchSpec::xc4000(5, 6, 3));
  const Graph& g = device.graph();
  for (const NodeId t : {device.block_node(0, 0), device.block_node(4, 3),
                         device.wire_node(Device::Dir::kVertical, 6, 2, 1)}) {
    EXPECT_EQ(device.distance_lower_bound(t, t), 0);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Graph::Edge ed = g.edge(e);
      const Weight hu = device.distance_lower_bound(ed.u, t);
      const Weight hv = device.distance_lower_bound(ed.v, t);
      ASSERT_LE(hu, ed.weight + hv) << "edge " << e;
      ASSERT_LE(hv, ed.weight + hu) << "edge " << e;
    }
  }
}

TEST(DistanceBoundTest, LatticeFormDecodesLikeWireRef) {
  // Device::distance_bound decodes node tiles with multiply-shift division;
  // every node's tile must match the one derived from block_node/wire_ref,
  // and the bound must equal distance_lower_bound, over shapes whose
  // dimensions and widths include 1 and non-powers of two.
  struct Shape {
    int rows, cols, width;
  };
  for (const Shape shape : {Shape{1, 1, 1}, Shape{3, 7, 5}, Shape{9, 4, 12}, Shape{6, 13, 3}}) {
    const Device device(ArchSpec::xc4000(shape.rows, shape.cols, shape.width));
    SCOPED_TRACE(::testing::Message() << shape.rows << "x" << shape.cols << " w=" << shape.width);
    const Graph& g = device.graph();
    for (NodeId v = 0; v < g.node_count(); ++v) {
      Device::TilePos want;
      if (device.is_block(v)) {
        want = {2 * (v % shape.cols) + 1, 2 * (v / shape.cols) + 1};
      } else {
        const Device::WireRef ref = device.wire_ref(v);
        want = ref.dir == Device::Dir::kHorizontal ? Device::TilePos{2 * ref.x + 1, 2 * ref.y}
                                                   : Device::TilePos{2 * ref.x, 2 * ref.y + 1};
      }
      const Device::TilePos got = device.node_tile(v);
      ASSERT_EQ(got.x, want.x) << "node " << v;
      ASSERT_EQ(got.y, want.y) << "node " << v;
    }
    const DistanceBound bound = device.distance_bound();
    const NodeId last = g.node_count() - 1;
    for (const NodeId t : {NodeId{0}, last / 2, last}) {
      for (NodeId v = 0; v < g.node_count(); ++v) {
        ASSERT_EQ(bound(v, t), device.distance_lower_bound(v, t)) << v << " -> " << t;
      }
    }
  }
}

TEST(DistanceBoundTest, GoalBoundIsTheMinimumOverItsGoals) {
  const Device device(ArchSpec::xc3000(7, 9, 4));
  const DistanceBound bound = device.distance_bound();
  const std::vector<NodeId> goals{device.block_node(1, 1), device.block_node(6, 5),
                                  device.wire_node(Device::Dir::kVertical, 9, 3, 2)};
  GoalBound h;
  h.aim(bound, goals);
  for (NodeId v = 0; v < device.graph().node_count(); ++v) {
    Weight want = kInfiniteWeight;
    for (const NodeId t : goals) want = std::min(want, device.distance_lower_bound(v, t));
    ASSERT_EQ(h(v), want) << "node " << v;
  }
}

TEST(DistanceBoundTest, AimedShareWeighsTheAimedRegionAgainstTheBall) {
  const Device device(ArchSpec::xc4000(20, 20, 4));
  const DistanceBound bound = device.distance_bound();
  const NodeId corner = device.block_node(0, 0);
  const NodeId far_corner = device.block_node(19, 19);
  const NodeId centre = device.block_node(10, 10);
  // Toward the far corner the box between the two is the whole array, and
  // so is the ball: aiming saves nothing.
  const std::vector<NodeId> across{far_corner, centre};
  EXPECT_GT(bound.aimed_share(corner, across), 0.95);
  // From the centre toward two opposite corners the first run covers two
  // of the four quadrants, but a read on the path between the goals runs
  // through a free corner of their box, and reaching it takes the array.
  const std::vector<NodeId> opposite{corner, far_corner};
  EXPECT_GT(bound.aimed_share(centre, opposite), 0.95);
  // Nearby goals to one side: a sliver of the ball.
  const std::vector<NodeId> near{device.block_node(13, 10), device.block_node(13, 11)};
  EXPECT_LT(bound.aimed_share(centre, near), 0.3);
  // A bound without a lattice cannot estimate, and says aiming saves nothing.
  const auto zero = [](NodeId, NodeId) -> Weight { return 0; };
  EXPECT_EQ(DistanceBound(zero).aimed_share(centre, near), 1.0);
}

/// A circuit dense enough to congest a narrow array.
Circuit congested_circuit(int rows, int cols, std::uint64_t seed) {
  check::CircuitCase cc;
  cc.cols = cols;
  cc.rows = rows;
  cc.nets_2_3 = 14;
  cc.nets_4_10 = 6;
  cc.synth_seed = seed;
  return cc.circuit();
}

TEST(DistanceBoundTest, PaperRouteWithFaultReliefKeepsWeightsAtLeastBase) {
  Device device(ArchSpec::xc4000(6, 6, 2));
  FaultSpec faults;
  faults.seed = 11;
  faults.wire_permille = 120;
  faults.switch_permille = 60;
  device.install_faults(faults);
  RouterOptions options;
  options.fault_retries = 3;
  options.max_passes = 2;
  counters().reset();
  route_circuit(device, congested_circuit(6, 6, 2), options);
  ASSERT_GT(counters().congestion_reliefs.load(), 0u) << "no retry engaged relief";
  EXPECT_GT(expect_usable_weights_at_least_base(device.graph()), 0);

  // While a relief guard is live, at every backoff the retry ladder uses
  // (and at full relief), weights stay >= 1.0; the guard then restores
  // every weight bit for bit.
  Graph& g = device.graph();
  std::vector<Weight> before;
  for (EdgeId e = 0; e < g.edge_count(); ++e) before.push_back(g.edge_weight(e));
  for (const double scale : {0.5, 0.25, 0.125, 0.0}) {
    {
      const router_internal::CongestionRelief relief(g, scale);
      expect_usable_weights_at_least_base(g);
    }
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      ASSERT_EQ(g.edge_weight(e), before[static_cast<std::size_t>(e)]) << "edge " << e;
    }
  }
}

TEST(DistanceBoundTest, NegotiatedPricingKeepsWeightsAtLeastBase) {
  // A negotiated route resets the device when it ends, so drive its
  // congestion layer through the loop's own steps on real net wire sets:
  // rising present factors, doubled-up occupancy that overflows, history
  // accrual and rip-up, checking the weights the searches see after each.
  const Circuit circuit = congested_circuit(6, 6, 9);
  Device routed(ArchSpec::xc4000(6, 6, 3));
  const RoutingResult result = route_circuit(routed, circuit, RouterOptions{});
  std::vector<std::vector<NodeId>> wires;
  for (const NetRouteResult& net : result.nets) {
    wires.push_back(router_internal::wire_nodes_of(routed, net.edges));
  }
  ASSERT_GT(wires.size(), 2u);

  Device device(ArchSpec::xc4000(6, 6, 3));
  CongestionLayer layer(device.graph(), device.block_count());
  double present = 0.5;
  int priced = 0;
  for (int pass = 0; pass < 4; ++pass, present *= 1.5) {
    layer.begin_pass();
    layer.set_present_factor(present);
    for (std::size_t i = 0; i < wires.size(); ++i) {
      // Net i also claims net i+1's wires: every wire is shared.
      for (const NodeId w : wires[i]) layer.add_occupant(w);
      for (const NodeId w : wires[(i + 1) % wires.size()]) layer.add_occupant(w);
      expect_usable_weights_at_least_base(device.graph());
    }
    ASSERT_GT(layer.total_overflow(), 0);
    for (const NodeId v : layer.occupied()) {
      if (layer.occupancy(v) > layer.capacity()) layer.accrue_history(v, 1.0);
    }
    priced = expect_usable_weights_at_least_base(device.graph());
    for (const NodeId w : wires.front()) layer.remove_occupant(w);
    expect_usable_weights_at_least_base(device.graph());
  }
  EXPECT_GT(priced, 0);

  // And a real negotiated route leaves base weights behind.
  Device negotiated(ArchSpec::xc4000(6, 6, 3));
  RouterOptions options;
  options.mode = RouterMode::kNegotiated;
  route_circuit(negotiated, circuit, options);
  EXPECT_EQ(expect_usable_weights_at_least_base(negotiated.graph()), 0);
}

TEST(DistanceBoundTest, RepairEventKeepsWeightsAtLeastBase) {
  Device device(ArchSpec::xc4000(6, 6, 4));
  Circuit circuit = congested_circuit(6, 6, 2);
  RouterOptions options;
  options.record_commits = true;
  RoutingResult result = route_circuit(device, circuit, options);
  // Kill a handful of the wires the route committed.
  RepairEvent event;
  for (const NetRouteResult& net : result.nets) {
    for (const NodeId w : router_internal::wire_nodes_of(device, net.edges)) {
      if (event.faults.dead_wires.size() < 6) event.faults.dead_wires.push_back(w);
    }
  }
  event.faults.normalize();
  ASSERT_FALSE(event.faults.empty());
  const RepairOutcome outcome = repair_route(device, circuit, result, event, options);
  EXPECT_GT(outcome.cone_nets, 0);
  EXPECT_GT(expect_usable_weights_at_least_base(device.graph()), 0);
}

}  // namespace
}  // namespace fpr
