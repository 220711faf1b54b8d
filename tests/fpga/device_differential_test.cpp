// Differential suite for the tile-template builder (DESIGN.md §12): the
// stamped graph must be BIT-identical to the legacy per-element builder —
// same node ids, same edge ids in the same emission order, same weights,
// same adjacency layout — across arch families, sizes, widths, fault specs,
// and both sides of the flat-adjacency size cut.
// Any divergence is a compile-time template bug, and these tests are the
// contract that keeps the legacy builder around as the executable spec
// (the same role dijkstra_reference.hpp plays for the search engine).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/contract.hpp"
#include "fpga/device.hpp"
#include "fpga/device3d.hpp"
#include "fpga/faults.hpp"
#include "fpga/tile_template.hpp"
#include "graph/dijkstra.hpp"
#include "router/router.hpp"

namespace fpr {
namespace {

/// The adjacency arrays the traversal backends read. Two materialized
/// graphs compare CSR snapshots vector by vector. A tiled graph below the
/// size cut compares its flat slices against the other graph's (legacy CSR
/// offsets/neighbor/edge_id, or the other tiled graph's flat slices) and
/// its endpoint pairs against the other graph's edge records; above the cut
/// it has no arrays, and the incident-list and edge-record loops of
/// expect_graphs_identical are the whole check.
void expect_adjacency_identical(const Graph& a, const Graph& b) {
  if (!a.tiled() && !b.tiled()) {
    const CsrAdjacency& ca = a.csr();
    const CsrAdjacency& cb = b.csr();
    EXPECT_EQ(ca.offsets, cb.offsets);
    EXPECT_EQ(ca.neighbor, cb.neighbor);
    EXPECT_EQ(ca.edge_id, cb.edge_id);
    EXPECT_EQ(ca.weight, cb.weight);
    EXPECT_EQ(ca.slot, cb.slot);
    return;
  }
  const Graph& tiled = b.tiled() ? b : a;
  const Graph& other = b.tiled() ? a : b;
  const FlatAdjacency* flat = tiled.flat_adjacency();
  ASSERT_EQ(flat != nullptr, tiled.edge_count() <= Graph::kFlatAdjacencyMaxEdges);
  if (flat == nullptr) return;
  if (other.tiled()) {
    const FlatAdjacency* of = other.flat_adjacency();
    ASSERT_NE(of, nullptr);
    EXPECT_EQ(flat->offsets, of->offsets);
    EXPECT_EQ(flat->neighbor, of->neighbor);
    EXPECT_EQ(flat->edge_id, of->edge_id);
    EXPECT_EQ(flat->endpoints, of->endpoints);
    return;
  }
  const CsrAdjacency& csr = other.csr();
  EXPECT_EQ(flat->offsets, csr.offsets);
  EXPECT_EQ(flat->neighbor, csr.neighbor);
  EXPECT_EQ(flat->edge_id, csr.edge_id);
  ASSERT_EQ(flat->endpoints.size(), static_cast<std::size_t>(other.edge_count()) * 2);
  for (EdgeId e = 0; e < other.edge_count(); ++e) {
    const Graph::Edge ed = other.edge(e);
    ASSERT_EQ(flat->endpoints[static_cast<std::size_t>(e) * 2], ed.u) << "edge " << e;
    ASSERT_EQ(flat->endpoints[static_cast<std::size_t>(e) * 2 + 1], ed.v) << "edge " << e;
  }
}

/// Full structural + state byte-compare of two graphs: counts, per-edge
/// endpoints/weight/activity, per-node activity and incident order, and the
/// adjacency arrays (expect_adjacency_identical). EXPECT (not ASSERT) on
/// the arrays so one failing family reports everything that diverged.
void expect_graphs_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (EdgeId e = 0; e < a.edge_count(); ++e) {
    const Graph::Edge ea = a.edge(e);
    const Graph::Edge eb = b.edge(e);
    ASSERT_EQ(ea.u, eb.u) << "edge " << e;
    ASSERT_EQ(ea.v, eb.v) << "edge " << e;
    ASSERT_EQ(ea.weight, eb.weight) << "edge " << e;
    ASSERT_EQ(ea.active, eb.active) << "edge " << e;
  }
  for (NodeId v = 0; v < a.node_count(); ++v) {
    ASSERT_EQ(a.node_active(v), b.node_active(v)) << "node " << v;
    // Copy a's list first: above the size cut a tiled graph's span is
    // per-thread scratch that b's call would overwrite.
    const auto ia = a.incident_edges(v);
    const std::vector<EdgeId> va(ia.begin(), ia.end());
    const auto ib = b.incident_edges(v);
    ASSERT_EQ(va, std::vector<EdgeId>(ib.begin(), ib.end())) << "node " << v;
  }
  expect_adjacency_identical(a, b);
}

/// Device-level differential: the stamped device must also agree on the
/// derived id arithmetic (node_tile) the partition tree depends on.
void expect_devices_identical(const Device& legacy, const Device& stamped) {
  expect_graphs_identical(legacy.graph(), stamped.graph());
  ASSERT_EQ(legacy.block_count(), stamped.block_count());
  for (NodeId v = 0; v < legacy.graph().node_count(); ++v) {
    const Device::TilePos ta = legacy.node_tile(v);
    const Device::TilePos tb = stamped.node_tile(v);
    ASSERT_EQ(ta.x, tb.x) << "node " << v;
    ASSERT_EQ(ta.y, tb.y) << "node " << v;
  }
}

FaultSpec stress_faults(std::uint64_t seed) {
  FaultSpec spec;
  spec.seed = seed;
  spec.wire_permille = 45;
  spec.switch_permille = 30;
  spec.pin_permille = 15;
  spec.clusters = 1;
  spec.cluster_radius = 1;
  return spec;
}

Circuit medium_circuit(int rows, int cols) {
  Circuit c;
  c.name = "differential";
  c.rows = rows;
  c.cols = cols;
  c.nets.push_back({{0, 0}, {{cols - 1, rows - 1}}});
  c.nets.push_back({{0, rows - 1}, {{cols - 1, 0}, {cols / 2, rows / 2}}});
  c.nets.push_back({{1, 1}, {{cols - 2, 1}, {1, rows - 2}, {cols - 2, rows - 2}}, true});
  c.nets.push_back({{cols / 2, 0}, {{cols / 2, rows - 1}}});
  c.nets.push_back({{2, rows / 2}, {{cols - 3, rows / 2}, {cols / 2, 1}}});
  return c;
}

void expect_routing_identical(const RoutingResult& a, const RoutingResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.failed_nets, b.failed_nets);
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  EXPECT_EQ(a.total_wire_nodes, b.total_wire_nodes);
  EXPECT_EQ(a.work_used, b.work_used);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_EQ(a.nets[i].status, b.nets[i].status) << "net " << i;
    EXPECT_EQ(a.nets[i].edges, b.nets[i].edges) << "net " << i;
  }
}

// ---------------------------------------------------------------------------
// Engagement: the template path must actually be in play at tiled sizes and
// must transparently fall back below the sampling floor.

TEST(DeviceDifferentialTest, TemplateEngagesAtScaleAndFallsBackBelowFloor) {
  const Device small(ArchSpec::xc4000(4, 4, 4));
  EXPECT_FALSE(small.tiled());  // below the 7x7 sampling floor: legacy build

  const TileTemplateStats before = tile_template_stats();
  const Device big(ArchSpec::xc4000(9, 9, 4));
  const TileTemplateStats after = tile_template_stats();
  EXPECT_TRUE(big.tiled());
  EXPECT_EQ(after.compile_failures, before.compile_failures);
  EXPECT_GE(after.instantiations, before.instantiations + 1);
}

TEST(DeviceDifferentialTest, TemplateCompiledOncePerFamilyAcrossSizes) {
  // Same (pattern, width, fc) family at three sizes: at most one compile,
  // three instantiations — the width-search reuse property (every probe at
  // one width re-stamps the cached template instead of re-learning it).
  const TileTemplateStats before = tile_template_stats();
  const Device a(ArchSpec::xc4000(7, 7, 6));
  const Device b(ArchSpec::xc4000(10, 8, 6));
  const Device c(ArchSpec::xc4000(13, 13, 6));
  const TileTemplateStats after = tile_template_stats();
  EXPECT_TRUE(a.tiled());
  EXPECT_TRUE(b.tiled());
  EXPECT_TRUE(c.tiled());
  EXPECT_LE(after.compiles, before.compiles + 1);
  EXPECT_GE(after.cache_hits, before.cache_hits + 2);
  EXPECT_GE(after.instantiations, before.instantiations + 3);
}

// ---------------------------------------------------------------------------
// Structural bit-identity, 2-D.

TEST(DeviceDifferentialTest, StampedMatchesLegacyXc4000) {
  for (const auto& [rows, cols, width] :
       std::vector<std::tuple<int, int, int>>{{7, 7, 4}, {9, 8, 6}, {12, 12, 5}}) {
    SCOPED_TRACE(testing::Message() << rows << "x" << cols << " w=" << width);
    const ArchSpec spec = ArchSpec::xc4000(rows, cols, width);
    const Device legacy(spec, DeviceBuild::kLegacy);
    const Device stamped(spec);
    ASSERT_TRUE(stamped.tiled());
    ASSERT_FALSE(legacy.tiled());
    expect_devices_identical(legacy, stamped);
  }
}

TEST(DeviceDifferentialTest, StampedMatchesLegacyXc3000) {
  for (const auto& [rows, cols, width] :
       std::vector<std::tuple<int, int, int>>{{7, 9, 5}, {11, 7, 8}}) {
    SCOPED_TRACE(testing::Message() << rows << "x" << cols << " w=" << width);
    const ArchSpec spec = ArchSpec::xc3000(rows, cols, width);
    const Device legacy(spec, DeviceBuild::kLegacy);
    const Device stamped(spec);
    ASSERT_TRUE(stamped.tiled());
    expect_devices_identical(legacy, stamped);
  }
}

// ---------------------------------------------------------------------------
// Structural bit-identity, 3-D (layers, via spacing, via weights — the
// hwire role's x-period becomes via_spacing, the hardest template case).

TEST(DeviceDifferentialTest, StampedMatchesLegacy3d) {
  std::vector<Arch3dSpec> cases;
  cases.push_back({ArchSpec::xc4000(7, 8, 4), 2, 1, 1.0});
  cases.push_back({ArchSpec::xc4000(8, 15, 4), 2, 3, 1.5});
  cases.push_back({ArchSpec::xc3000(7, 14, 5), 3, 2, 2.0});
  for (const Arch3dSpec& spec : cases) {
    SCOPED_TRACE(testing::Message()
                 << spec.layer.rows << "x" << spec.layer.cols << " w=" << spec.layer.channel_width
                 << " layers=" << spec.layers << " via_spacing=" << spec.via_spacing);
    const Device3d legacy(spec, DeviceBuild::kLegacy);
    const Device3d stamped(spec);
    ASSERT_TRUE(stamped.tiled());
    ASSERT_FALSE(legacy.tiled());
    EXPECT_EQ(legacy.via_count(), stamped.via_count());
    expect_graphs_identical(legacy.graph(), stamped.graph());
  }
}

// ---------------------------------------------------------------------------
// Fault-injection invariance: sampling is per-element id hashing, and the
// template preserves every id, so the drawn defect set must be identical —
// and so must the post-install graph state.

TEST(DeviceDifferentialTest, FaultDrawsIdenticalAcrossBuilders) {
  const ArchSpec spec = ArchSpec::xc4000(10, 10, 6);
  Device legacy(spec, DeviceBuild::kLegacy);
  Device stamped(spec);
  ASSERT_TRUE(stamped.tiled());

  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const FaultSpec fs = stress_faults(seed);
    const FaultModel ma = FaultModel::draw(legacy, fs);
    const FaultModel mb = FaultModel::draw(stamped, fs);
    ASSERT_EQ(std::vector<NodeId>(ma.dead_wires().begin(), ma.dead_wires().end()),
              std::vector<NodeId>(mb.dead_wires().begin(), mb.dead_wires().end()));
    ASSERT_EQ(std::vector<EdgeId>(ma.dead_edges().begin(), ma.dead_edges().end()),
              std::vector<EdgeId>(mb.dead_edges().begin(), mb.dead_edges().end()));

    legacy.install_faults(fs);
    stamped.install_faults(fs);
    expect_graphs_identical(legacy.graph(), stamped.graph());
  }
}

// ---------------------------------------------------------------------------
// Behavioral bit-identity: shortest-path trees and full routed circuits.

TEST(DeviceDifferentialTest, DijkstraTreesIdenticalAcrossBuilders) {
  const ArchSpec spec = ArchSpec::xc3000(9, 9, 6);
  Device legacy(spec, DeviceBuild::kLegacy);
  Device stamped(spec);
  ASSERT_TRUE(stamped.tiled());
  legacy.install_faults(stress_faults(7));
  stamped.install_faults(stress_faults(7));

  for (const NodeId source : {NodeId{0}, legacy.block_node(4, 4), legacy.block_node(8, 0)}) {
    const ShortestPathTree ta = dijkstra(legacy.graph(), source);
    const ShortestPathTree tb = dijkstra(stamped.graph(), source);
    ASSERT_EQ(ta.dist, tb.dist) << "source " << source;
    ASSERT_EQ(ta.parent, tb.parent) << "source " << source;
    ASSERT_EQ(ta.parent_edge, tb.parent_edge) << "source " << source;
  }
}

TEST(DeviceDifferentialTest, RoutingBitIdenticalAcrossBuilders) {
  const ArchSpec spec = ArchSpec::xc4000(9, 9, 6);
  const Circuit circuit = medium_circuit(9, 9);
  RouterOptions options;

  Device legacy(spec, DeviceBuild::kLegacy);
  Device stamped(spec);
  ASSERT_TRUE(stamped.tiled());
  expect_routing_identical(route_circuit(legacy, circuit, options),
                           route_circuit(stamped, circuit, options));
  expect_graphs_identical(legacy.graph(), stamped.graph());

  // And again under injected faults (exercises retries + reset interplay).
  legacy.reset();
  stamped.reset();
  legacy.install_faults(stress_faults(5));
  stamped.install_faults(stress_faults(5));
  expect_routing_identical(route_circuit(legacy, circuit, options),
                           route_circuit(stamped, circuit, options));
  expect_graphs_identical(legacy.graph(), stamped.graph());
}

// ---------------------------------------------------------------------------
// Both sides of the flat-adjacency size cut (Graph::kFlatAdjacencyMaxEdges):
// below it the tiled graph reads stamped flat slices, just above it the
// template arithmetic. Each side must match the legacy build in structure,
// in Dijkstra trees after the router's mutation vocabulary plus faults, and
// in a routed circuit.

TEST(DeviceDifferentialTest, BothSidesOfFlatAdjacencyCutMatchLegacy) {
  struct Side {
    ArchSpec spec;
    bool flat;
  };
  // 46x46 w=12 has 253,896 edges, 47x47 w=12 265,056: they straddle the
  // 2^18-edge cut.
  for (const Side& side : {Side{ArchSpec::xc4000(46, 46, 12), true},
                           Side{ArchSpec::xc4000(47, 47, 12), false}}) {
    const int n = side.spec.rows;
    SCOPED_TRACE(testing::Message() << n << "x" << n << (side.flat ? " flat" : " arithmetic"));
    Device legacy(side.spec, DeviceBuild::kLegacy);
    Device stamped(side.spec);
    ASSERT_TRUE(stamped.tiled());
    ASSERT_EQ(stamped.graph().edge_count() <= Graph::kFlatAdjacencyMaxEdges, side.flat);
    ASSERT_EQ(stamped.graph().flat_adjacency() != nullptr, side.flat);
    expect_graphs_identical(legacy.graph(), stamped.graph());

    // Dijkstra trees after node removals, weight bumps and installed faults.
    const auto mutate = [n](Device& d) {
      Graph& g = d.graph();
      for (NodeId v = d.block_count(); v < g.node_count(); v += 97) g.remove_node(v);
      for (EdgeId e = 0; e < g.edge_count(); e += 53) g.add_edge_weight(e, 0.5);
      d.install_faults(stress_faults(static_cast<std::uint64_t>(n)));
    };
    mutate(legacy);
    mutate(stamped);
    expect_graphs_identical(legacy.graph(), stamped.graph());
    for (const NodeId source : {legacy.block_node(0, 0), legacy.block_node(n / 2, n / 3)}) {
      const ShortestPathTree ta = dijkstra(legacy.graph(), source);
      const ShortestPathTree tb = dijkstra(stamped.graph(), source);
      ASSERT_EQ(ta.dist, tb.dist) << "source " << source;
      ASSERT_EQ(ta.parent, tb.parent) << "source " << source;
      ASSERT_EQ(ta.parent_edge, tb.parent_edge) << "source " << source;
    }

    // One routed circuit after reset(), which keeps the installed faults:
    // every net's edges.
    legacy.reset();
    stamped.reset();
    const Circuit circuit = medium_circuit(n, n);
    const RouterOptions options;
    expect_routing_identical(route_circuit(legacy, circuit, options),
                             route_circuit(stamped, circuit, options));
  }
}

// ---------------------------------------------------------------------------
// reset() fast path: O(touched) replay must land on exactly the state the
// historical full-scan reinit produced — including the re-applied faults.

TEST(DeviceDifferentialTest, ResetFastPathMatchesFreshDeviceWithFaults) {
  for (const bool tiled : {false, true}) {
    SCOPED_TRACE(tiled ? "tiled" : "legacy");
    const ArchSpec spec = ArchSpec::xc4000(9, 9, 5);
    Device mutated(spec, tiled ? DeviceBuild::kAuto : DeviceBuild::kLegacy);
    ASSERT_EQ(mutated.tiled(), tiled);
    mutated.install_faults(stress_faults(11));

    // Route a circuit: removes wires, bumps congestion weights, removes
    // edges — a realistic touched set, not a synthetic one.
    RouterOptions options;
    (void)route_circuit(mutated, medium_circuit(9, 9), options);
    mutated.reset();

    Device fresh(spec, tiled ? DeviceBuild::kAuto : DeviceBuild::kLegacy);
    fresh.install_faults(stress_faults(11));
    expect_graphs_identical(fresh.graph(), mutated.graph());
    EXPECT_EQ(fresh.used_wire_count(), mutated.used_wire_count());
  }
}

TEST(DeviceDifferentialTest, RepeatedResetRouteCyclesAreDeterministic) {
  const ArchSpec spec = ArchSpec::xc3000(8, 8, 6);
  Device device(spec);
  device.install_faults(stress_faults(23));
  RouterOptions options;
  const RoutingResult first = route_circuit(device, medium_circuit(8, 8), options);
  for (int cycle = 0; cycle < 3; ++cycle) {
    device.reset();
    expect_routing_identical(first, route_circuit(device, medium_circuit(8, 8), options));
  }
}

// ---------------------------------------------------------------------------
// tile_siblings: the allocation-free callback form must visit exactly the
// vector overload's siblings, in the same ascending order.

TEST(DeviceDifferentialTest, TileSiblingCallbackMatchesVectorOverload) {
  const Device device(ArchSpec::xc4000(8, 8, 5));
  ASSERT_TRUE(device.tiled());
  for (NodeId wire = device.block_count(); wire < device.graph().node_count();
       wire += 37) {  // stride keeps the sweep cheap but hits both wire roles
    std::vector<NodeId> via_callback;
    device.for_each_tile_sibling(wire, [&](NodeId v) { via_callback.push_back(v); });
    ASSERT_EQ(via_callback, device.tile_siblings(wire)) << "wire " << wire;
  }
}

// ---------------------------------------------------------------------------
// Mutation model on a tiled graph: structural edits transparently
// materialize; state edits stay in the compact representation.

TEST(DeviceDifferentialTest, StateMutationsKeepTiledRepresentation) {
  const ArchSpec spec = ArchSpec::xc4000(8, 8, 4);
  Device legacy(spec, DeviceBuild::kLegacy);
  Device stamped(spec);
  ASSERT_TRUE(stamped.tiled());

  // The router's whole mutation vocabulary, applied to both builds.
  const auto mutate = [](Graph& g) {
    g.set_edge_weight(3, 2.5);
    g.add_edge_weight(10, 0.25);
    g.remove_edge(4);
    g.remove_node(g.node_count() / 2);
    g.remove_edge(7);
    g.restore_edge(4);
    g.restore_node(g.node_count() / 2);
  };
  mutate(legacy.graph());
  mutate(stamped.graph());
  EXPECT_TRUE(stamped.graph().tiled());  // state edits never materialize
  expect_graphs_identical(legacy.graph(), stamped.graph());
}

TEST(DeviceDifferentialTest, StructuralMutationMaterializesInPlace) {
  const ArchSpec spec = ArchSpec::xc4000(7, 7, 4);
  Device legacy(spec, DeviceBuild::kLegacy);
  Device stamped(spec);
  ASSERT_TRUE(stamped.tiled());

  // Pre-materialization state edits must survive the conversion.
  legacy.graph().set_edge_weight(2, 9.0);
  stamped.graph().set_edge_weight(2, 9.0);
  legacy.graph().remove_node(5);
  stamped.graph().remove_node(5);
  // A tiled graph has no CSR snapshot; the materialized one below does.
  EXPECT_THROW((void)stamped.graph().csr(), ContractViolation);

  const EdgeId ea = legacy.graph().add_edge(0, 1, 4.0);
  const EdgeId eb = stamped.graph().add_edge(0, 1, 4.0);
  EXPECT_EQ(ea, eb);
  EXPECT_FALSE(stamped.graph().tiled());  // structural edit: materialized
  expect_graphs_identical(legacy.graph(), stamped.graph());
}

}  // namespace
}  // namespace fpr
