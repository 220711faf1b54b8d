#include "fpga/device3d.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "arbor/idom.hpp"
#include "core/contract.hpp"
#include "core/route.hpp"
#include "graph/dijkstra.hpp"

namespace fpr {
namespace {

Arch3dSpec small_spec(int layers, int via_spacing = 1) {
  Arch3dSpec spec;
  spec.layer = ArchSpec::xc4000(4, 4, 2);
  spec.layers = layers;
  spec.via_spacing = via_spacing;
  return spec;
}

TEST(Device3dTest, NodeCountsScaleWithLayers) {
  const Device3d one(small_spec(1));
  const Device3d three(small_spec(3));
  EXPECT_EQ(three.graph().node_count(), 3 * one.graph().node_count());
  EXPECT_EQ(three.block_count(), 3 * 16);
  EXPECT_EQ(one.via_count(), 0);
  EXPECT_GT(three.via_count(), 0);
}

TEST(Device3dTest, LayersPastIdRangeAreRefusedBeforeBuilding) {
  Arch3dSpec spec;
  spec.layer = ArchSpec::xc4000(3000, 3000, 8);  // one layer fits 32-bit ids
  ASSERT_TRUE(spec.layer.fits_ids());
  spec.layers = 3;  // three do not
  EXPECT_THROW(Device3d{spec}, ContractViolation);
}

TEST(Device3dTest, LayerAndKindClassification) {
  const Device3d device(small_spec(2));
  const NodeId b0 = device.block_node(0, 1, 2);
  const NodeId b1 = device.block_node(1, 1, 2);
  EXPECT_EQ(device.layer_of(b0), 0);
  EXPECT_EQ(device.layer_of(b1), 1);
  EXPECT_TRUE(device.is_block(b0));
  const NodeId w = device.wire_node(1, Device3d::Dir::kVertical, 2, 1, 0);
  EXPECT_TRUE(device.is_wire(w));
  EXPECT_EQ(device.layer_of(w), 1);
}

TEST(Device3dTest, CrossLayerReachability) {
  const Device3d device(small_spec(3));
  const auto spt = dijkstra(device.graph(), device.block_node(0, 0, 0));
  for (int layer = 0; layer < 3; ++layer) {
    EXPECT_TRUE(spt.reached(device.block_node(layer, 3, 3))) << layer;
  }
  // Crossing layers costs at least one via.
  EXPECT_GT(spt.distance(device.block_node(2, 0, 0)),
            spt.distance(device.block_node(0, 0, 0)));
}

TEST(Device3dTest, SparserViasLengthenCrossLayerRoutes) {
  const Device3d dense(small_spec(2, 1));
  const Device3d sparse(small_spec(2, 4));
  EXPECT_GT(dense.via_count(), sparse.via_count());
  const auto d_spt = dijkstra(dense.graph(), dense.block_node(0, 0, 0));
  const auto s_spt = dijkstra(sparse.graph(), sparse.block_node(0, 0, 0));
  EXPECT_LE(d_spt.distance(dense.block_node(1, 3, 3)),
            s_spt.distance(sparse.block_node(1, 3, 3)) + 1e-9);
}

TEST(Device3dTest, SteinerRoutingWorksAcrossLayers) {
  // The Section 6 claim: the graph algorithms generalize to 3-D unchanged.
  const Device3d device(small_spec(3));
  Net net;
  net.source = device.block_node(0, 0, 0);
  net.sinks = {device.block_node(1, 3, 2), device.block_node(2, 1, 3),
               device.block_node(0, 3, 3)};
  PathOracle oracle(device.graph());
  const auto tree = route(device.graph(), net, Algorithm::kIkmb, oracle);
  EXPECT_TRUE(tree.spans(net.terminals()));
  EXPECT_TRUE(tree.is_tree());
}

TEST(Device3dTest, ArborescenceInvariantHoldsInThreeDimensions) {
  const Device3d device(small_spec(2));
  Net net;
  net.source = device.block_node(0, 1, 1);
  net.sinks = {device.block_node(1, 3, 3), device.block_node(1, 0, 2),
               device.block_node(0, 2, 3)};
  PathOracle oracle(device.graph());
  const auto tree = idom(device.graph(), net.terminals(), oracle);
  ASSERT_TRUE(tree.spans(net.terminals()));
  const auto& spt = oracle.from(net.source);
  for (const NodeId s : net.sinks) {
    EXPECT_TRUE(weight_eq(tree.path_length(net.source, s), spt.distance(s)));
  }
}

TEST(Device3dTest, ViaWeightModelsInterLayerDelay) {
  Arch3dSpec costly = small_spec(2);
  costly.via_weight = 10.0;
  const Device3d cheap(small_spec(2));
  const Device3d expensive(costly);
  const auto c = dijkstra(cheap.graph(), cheap.block_node(0, 0, 0));
  const auto e = dijkstra(expensive.graph(), expensive.block_node(0, 0, 0));
  EXPECT_LT(c.distance(cheap.block_node(1, 0, 0)),
            e.distance(expensive.block_node(1, 0, 0)));
}

TEST(Device3dTest, WireNodeRejectsOutOfRangeLayerAndTrack) {
  const Device3d device(small_spec(2));
  const int w = device.spec().layer.channel_width;
  for (const Device3d::Dir dir : {Device3d::Dir::kHorizontal, Device3d::Dir::kVertical}) {
    EXPECT_NO_THROW((void)device.wire_node(1, dir, 1, 1, w - 1));
    EXPECT_THROW((void)device.wire_node(-1, dir, 1, 1, 0), ContractViolation);
    EXPECT_THROW((void)device.wire_node(2, dir, 1, 1, 0), ContractViolation);
    EXPECT_THROW((void)device.wire_node(0, dir, 1, 1, -1), ContractViolation);
    EXPECT_THROW((void)device.wire_node(0, dir, 1, 1, w), ContractViolation);
  }
}

// Layer counts, sparse via spacing, a heavier via weight and both switch
// families: the graph is materialized, carries one track-aligned via per
// track on every via_spacing-th horizontal channel tile, and connects the
// bottom layer to the top.
TEST(Device3dTest, SparseViaDevicesAreMaterializedAndConnected) {
  std::vector<Arch3dSpec> cases;
  cases.push_back({ArchSpec::xc4000(7, 8, 4), 2, 1, 1.0});
  cases.push_back({ArchSpec::xc4000(8, 15, 4), 2, 3, 1.5});
  cases.push_back({ArchSpec::xc3000(7, 14, 5), 3, 2, 2.0});
  for (const Arch3dSpec& spec : cases) {
    const int rows = spec.layer.rows, cols = spec.layer.cols, w = spec.layer.channel_width;
    SCOPED_TRACE(::testing::Message() << rows << "x" << cols << " w=" << w
                                      << " layers=" << spec.layers
                                      << " via_spacing=" << spec.via_spacing);
    const Device3d device(spec);
    EXPECT_FALSE(device.graph().tiled());
    const int via_columns = (cols + spec.via_spacing - 1) / spec.via_spacing;
    EXPECT_EQ(device.via_count(), (spec.layers - 1) * (rows + 1) * via_columns * w);
    const NodeId source = device.block_node(0, 0, 0);
    const NodeId sink = device.block_node(spec.layers - 1, cols - 1, rows - 1);
    const auto spt = dijkstra(device.graph(), source);
    ASSERT_TRUE(spt.reached(sink));
    // Vias join adjacent layers only, so the route passes through each one.
    std::vector<bool> visited(static_cast<std::size_t>(spec.layers), false);
    for (const NodeId v : spt.path_nodes_to(sink)) {
      visited[static_cast<std::size_t>(device.layer_of(v))] = true;
    }
    EXPECT_EQ(visited, std::vector<bool>(static_cast<std::size_t>(spec.layers), true));
  }
}

}  // namespace
}  // namespace fpr
