// CongestionLayer unit contract (DESIGN.md §13): present/history pricing on
// wire nodes, bit-exact edge repricing (weight = base + cost(u)/2 +
// cost(v)/2), begin_pass semantics, exact repricing of occupants at a grown
// present factor, and backend equivalence — the same occupancy/history
// trajectory produces bit-equal edge weights on the tiled and the
// materialized graph representation.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fpga/device.hpp"
#include "graph/congestion_layer.hpp"

namespace fpr {
namespace {

class CongestionLayerTest : public ::testing::Test {
 protected:
  CongestionLayerTest() : device_(ArchSpec::xc4000(4, 4, 4)) {}

  NodeId wire(int k) const {
    const NodeId v = device_.block_count() + static_cast<NodeId>(k);
    EXPECT_TRUE(device_.is_wire(v));
    return v;
  }

  /// Every edge weight of the graph, by edge id — the layer's entire
  /// observable output stream.
  std::vector<Weight> all_weights() const {
    const Graph& g = device_.graph();
    std::vector<Weight> w(static_cast<std::size_t>(g.edge_count()));
    for (EdgeId e = 0; e < g.edge_count(); ++e) w[static_cast<std::size_t>(e)] = g.edge_weight(e);
    return w;
  }

  Device device_;
};

TEST_F(CongestionLayerTest, FreshLayerPricesNothing) {
  CongestionLayer layer(device_.graph(), device_.block_count());
  const std::vector<Weight> base = all_weights();
  EXPECT_EQ(layer.total_overflow(), 0);
  EXPECT_TRUE(layer.occupied().empty());
  for (int k = 0; k < device_.wire_count(); ++k) {
    EXPECT_EQ(layer.occupancy(wire(k)), 0);
    EXPECT_EQ(layer.node_cost(wire(k)), 0.0);
    EXPECT_FALSE(layer.would_overflow(wire(k)));
  }
  // Block nodes are below the shared range and always free.
  EXPECT_EQ(layer.node_cost(0), 0.0);
  EXPECT_EQ(all_weights(), base);
}

TEST_F(CongestionLayerTest, PresentCostStepsWithOccupancy) {
  CongestionLayer layer(device_.graph(), device_.block_count());
  const NodeId v = wire(3);

  layer.add_occupant(v);
  EXPECT_EQ(layer.occupancy(v), 1);
  EXPECT_TRUE(layer.would_overflow(v));  // capacity 1: one more would share
  EXPECT_EQ(layer.total_overflow(), 0);  // ... but nothing overflows yet
  EXPECT_EQ(layer.node_cost(v), 0.5);    // present_factor * (1 + 1 - 1)

  layer.add_occupant(v);
  EXPECT_EQ(layer.occupancy(v), 2);
  EXPECT_EQ(layer.total_overflow(), 1);
  EXPECT_EQ(layer.node_cost(v), 1.0);  // present_factor * (2 + 1 - 1)

  layer.remove_occupant(v);
  layer.remove_occupant(v);
  EXPECT_EQ(layer.total_overflow(), 0);
  EXPECT_EQ(layer.node_cost(v), 0.0);
}

TEST_F(CongestionLayerTest, RepriceWritesSplitNodeCostAndRestoresExactly) {
  Graph& g = device_.graph();
  CongestionLayer layer(g, device_.block_count());
  const std::vector<Weight> base = all_weights();
  const NodeId v = wire(5);

  layer.add_occupant(v);
  layer.add_occupant(v);
  std::vector<EdgeId> incident(g.incident_edges(v).begin(), g.incident_edges(v).end());
  ASSERT_FALSE(incident.empty());
  for (const EdgeId e : incident) {
    const NodeId u = g.other_end(e, v);
    EXPECT_EQ(g.edge_weight(e), base[static_cast<std::size_t>(e)] + layer.node_cost(u) / 2 +
                                    layer.node_cost(v) / 2)
        << "edge " << e;
  }

  // Removing both occupants restores every weight bit-exactly (dyadic
  // arithmetic: no accumulated rounding).
  layer.remove_occupant(v);
  layer.remove_occupant(v);
  EXPECT_EQ(all_weights(), base);
}

TEST_F(CongestionLayerTest, BeginPassClearsOccupancyButKeepsHistory) {
  Graph& g = device_.graph();
  CongestionLayer layer(g, device_.block_count());
  const std::vector<Weight> base = all_weights();
  const NodeId v = wire(2);

  layer.add_occupant(v);
  layer.add_occupant(v);
  layer.accrue_history(v, 0.25);
  layer.accrue_history(v, 0.25);
  EXPECT_EQ(layer.history(v), 0.5);
  EXPECT_EQ(layer.node_cost(v), 1.5);  // present 1.0 + history 0.5

  layer.begin_pass();
  EXPECT_EQ(layer.occupancy(v), 0);
  EXPECT_EQ(layer.total_overflow(), 0);
  EXPECT_TRUE(layer.occupied().empty());
  EXPECT_EQ(layer.history(v), 0.5);    // history never decays
  EXPECT_EQ(layer.node_cost(v), 0.5);  // history only

  // Incident weights now carry exactly the history term.
  std::vector<EdgeId> incident(g.incident_edges(v).begin(), g.incident_edges(v).end());
  for (const EdgeId e : incident) {
    const NodeId u = g.other_end(e, v);
    EXPECT_EQ(g.edge_weight(e), base[static_cast<std::size_t>(e)] + layer.node_cost(u) / 2 +
                                    layer.node_cost(v) / 2)
        << "edge " << e;
  }
}

TEST_F(CongestionLayerTest, OccupiedListIsAscendingAndExact) {
  CongestionLayer layer(device_.graph(), device_.block_count());
  const std::vector<int> scrambled{7, 1, 11, 4, 1};  // 1 twice: still one entry
  for (const int k : scrambled) layer.add_occupant(wire(k));
  layer.remove_occupant(wire(4));  // back to zero: drops off the list
  const std::vector<NodeId> expected{wire(1), wire(7), wire(11)};
  EXPECT_EQ(layer.occupied(), expected);
}

TEST_F(CongestionLayerTest, ReoccupiedWireIsListedOnce) {
  // Add, remove to zero, add again: the wire re-enters occupancy through a
  // second 0->1 step, which must not list it a second time (the end-of-pass
  // sweep would count its overflow and accrue its history twice).
  CongestionLayer layer(device_.graph(), device_.block_count());
  const NodeId v = wire(6);
  layer.add_occupant(v);
  layer.remove_occupant(v);
  layer.add_occupant(v);
  layer.add_occupant(v);
  EXPECT_EQ(layer.occupied(), std::vector<NodeId>{v});

  int tally = 0;
  for (const NodeId w : layer.occupied()) tally += std::max(0, layer.occupancy(w) - layer.capacity());
  EXPECT_EQ(tally, 1);
  EXPECT_EQ(layer.total_overflow(), tally);

  // begin_pass forgets the listing too: the next 0->1 step lists it afresh.
  layer.begin_pass();
  EXPECT_TRUE(layer.occupied().empty());
  layer.add_occupant(v);
  EXPECT_EQ(layer.occupied(), std::vector<NodeId>{v});
}

TEST_F(CongestionLayerTest, PresentFactorAppliesToTheComingPass) {
  CongestionLayer layer(device_.graph(), device_.block_count());
  layer.begin_pass();
  layer.set_present_factor(2.0);
  const NodeId v = wire(9);
  layer.add_occupant(v);
  layer.add_occupant(v);
  EXPECT_EQ(layer.node_cost(v), 4.0);  // 2.0 * (2 + 1 - 1)
}

TEST_F(CongestionLayerTest, PresentFactorRepricesOccupantsExactly) {
  // Growing the factor with occupants priced in must leave the same edge
  // weights, bit for bit, as a fresh layer built at the new factor with the
  // same occupancy and history (all constants dyadic, so equality is exact).
  const ArchSpec arch = ArchSpec::xc4000(4, 4, 4);
  Device grown_device(arch);
  Device fresh_device(arch);
  CongestionLayer grown(grown_device.graph(), grown_device.block_count());
  CongestionLayer fresh(fresh_device.graph(), fresh_device.block_count());
  const NodeId first = grown_device.block_count();
  const std::vector<int> occupants{1, 2, 2, 5, 9, 9, 9, 14};
  const std::vector<int> histories{2, 9, 20};

  for (const int k : occupants) grown.add_occupant(first + k);
  for (const int k : histories) grown.accrue_history(first + k, 0.25);
  grown.set_present_factor(0.75);
  grown.set_present_factor(6.0);

  fresh.set_present_factor(6.0);
  for (const int k : histories) fresh.accrue_history(first + k, 0.25);
  for (const int k : occupants) fresh.add_occupant(first + k);

  ASSERT_EQ(grown_device.graph().edge_count(), fresh_device.graph().edge_count());
  for (EdgeId e = 0; e < grown_device.graph().edge_count(); ++e) {
    ASSERT_EQ(grown_device.graph().edge_weight(e), fresh_device.graph().edge_weight(e))
        << "edge " << e;
  }
  EXPECT_EQ(grown.node_cost(first + 9), fresh.node_cost(first + 9));
  EXPECT_EQ(grown.node_cost(first + 9), 6.0 * 3 + 0.25);  // 6.0 * (3 + 1 - 1) + history
}

TEST_F(CongestionLayerTest, TiledAndMaterializedBackendsAgreeBitExactly) {
  // Same device, same trajectory; one graph converted to the materialized
  // representation first. Every repriced weight and the aggregate mean must
  // be bit-equal — the layer goes through set_edge_weight, which keeps both
  // backends' weight streams in sync.
  // 8x8: above the tile-template sampling floor, so the stock device is
  // actually tiled and the differential is tiled-vs-materialized.
  const ArchSpec arch = ArchSpec::xc4000(8, 8, 4);
  Device tiled(arch);
  Device flat(arch);
  flat.graph().add_nodes(0);  // structural no-op: transparently materializes
  ASSERT_TRUE(tiled.graph().tiled());
  ASSERT_FALSE(flat.graph().tiled());

  CongestionLayer a(tiled.graph(), tiled.block_count());
  CongestionLayer b(flat.graph(), flat.block_count());
  const auto drive = [&](CongestionLayer& layer, const Device& device) {
    const NodeId first = device.block_count();
    for (int pass = 0; pass < 3; ++pass) {
      layer.begin_pass();
      layer.set_present_factor(0.5 * (1 << pass));
      for (int k = 0; k < device.wire_count(); k += 3) {
        layer.add_occupant(first + k);
        if (k % 6 == 0) layer.add_occupant(first + k);  // overflow some
      }
      for (int k = 0; k < device.wire_count(); k += 9) layer.remove_occupant(first + k);
      for (const NodeId v : layer.occupied()) {
        if (layer.would_overflow(v)) layer.accrue_history(v, 0.25);
      }
    }
  };
  drive(a, tiled);
  drive(b, flat);

  ASSERT_EQ(tiled.graph().edge_count(), flat.graph().edge_count());
  for (EdgeId e = 0; e < tiled.graph().edge_count(); ++e) {
    ASSERT_EQ(tiled.graph().edge_weight(e), flat.graph().edge_weight(e)) << "edge " << e;
  }
  EXPECT_EQ(tiled.graph().mean_active_edge_weight(), flat.graph().mean_active_edge_weight());
  EXPECT_EQ(a.total_overflow(), b.total_overflow());
  EXPECT_EQ(a.occupied(), b.occupied());
}

}  // namespace
}  // namespace fpr
