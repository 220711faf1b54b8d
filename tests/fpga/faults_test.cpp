// Fault-injection layer: FaultSpec serialization round-trips, draw_faults
// determinism and category targeting, and Device fault persistence across
// reset() (the property rip-up-and-reroute depends on), for the installed
// set and the live-event overlay together.

#include "fpga/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/contract.hpp"
#include "core/rng.hpp"
#include "fpga/device.hpp"
#include "router/router.hpp"

namespace fpr {
namespace {

FaultSpec sample_spec() {
  FaultSpec spec;
  spec.seed = 7;
  spec.wire_permille = 25;
  spec.switch_permille = 10;
  spec.pin_permille = 5;
  spec.clusters = 1;
  spec.cluster_radius = 2;
  return spec;
}

TEST(FaultSpecTest, DescribeMatchesReplayFormat) {
  EXPECT_EQ(sample_spec().describe(),
            "faults seed=7 wires=25 switches=10 pins=5 clusters=1 radius=2");
}

TEST(FaultSpecTest, DescribeParseRoundTrip) {
  const FaultSpec spec = sample_spec();
  const auto parsed = FaultSpec::parse(spec.describe());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);

  // Defaulted fields survive a partial line.
  const auto sparse = FaultSpec::parse("faults seed=3 wires=100");
  ASSERT_TRUE(sparse.has_value());
  EXPECT_EQ(sparse->seed, 3u);
  EXPECT_EQ(sparse->wire_permille, 100);
  EXPECT_EQ(sparse->switch_permille, 0);
  EXPECT_EQ(sparse->cluster_radius, 1);
}

TEST(FaultSpecTest, ParseIgnoresUnknownKeysForForwardCompat) {
  const auto parsed = FaultSpec::parse("faults seed=5 wires=10 vias=99 future=x");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, 5u);
  EXPECT_EQ(parsed->wire_permille, 10);
}

TEST(FaultSpecTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(FaultSpec::parse("").has_value());
  EXPECT_FALSE(FaultSpec::parse("circuit seed=1").has_value());        // wrong tag
  EXPECT_FALSE(FaultSpec::parse("faults seed").has_value());           // no '='
  EXPECT_FALSE(FaultSpec::parse("faults wires=abc").has_value());      // non-numeric
  EXPECT_FALSE(FaultSpec::parse("faults wires=-3").has_value());       // negative
  EXPECT_FALSE(FaultSpec::parse("faults wires=1001").has_value());     // above 1000
  EXPECT_FALSE(FaultSpec::parse("faults seed=99999999999999999999").has_value());  // overflow
}

TEST(FaultSpecTest, ValidityAndAny) {
  FaultSpec spec;
  EXPECT_TRUE(spec.valid());
  EXPECT_FALSE(spec.any());  // all-zero spec injects nothing
  spec.pin_permille = 1;
  EXPECT_TRUE(spec.any());
  spec.pin_permille = 1001;
  EXPECT_FALSE(spec.valid());
}

TEST(FaultModelTest, DrawIsDeterministic) {
  const Device device(ArchSpec::xc4000(6, 6, 4));
  const FaultSpec spec = sample_spec();
  const FaultEvent a = draw_faults(device, spec);
  const FaultEvent b = draw_faults(device, spec);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == b);

  FaultSpec other = spec;
  other.seed = 8;
  EXPECT_FALSE(a == draw_faults(device, other));
}

TEST(FaultModelTest, WireFaultsNeverHitBlockNodes) {
  const Device device(ArchSpec::xc3000(5, 7, 3));
  FaultSpec spec;
  spec.seed = 11;
  spec.wire_permille = 500;  // dense draw to exercise the whole id range
  spec.clusters = 2;
  const FaultEvent model = draw_faults(device, spec);
  ASSERT_FALSE(model.empty());
  for (const NodeId v : model.dead_wires) {
    EXPECT_TRUE(device.is_wire(v)) << "fault hit non-wire node " << v;
  }
  // Membership queries agree with the materialized lists.
  EXPECT_TRUE(model.wire_faulted(model.dead_wires.front()));
  EXPECT_FALSE(model.wire_faulted(device.block_node(0, 0)));
}

TEST(FaultModelTest, CategoriesTargetTheRightEdgeKind) {
  const Device device(ArchSpec::xc4000(5, 5, 3));
  FaultSpec pins_only;
  pins_only.seed = 2;
  pins_only.pin_permille = 200;
  const FaultEvent pin_model = draw_faults(device, pins_only);
  for (const EdgeId e : pin_model.dead_edges) {
    EXPECT_TRUE(device.is_connection_edge(e)) << "pin fault hit edge " << e;
  }
  FaultSpec switches_only;
  switches_only.seed = 2;
  switches_only.switch_permille = 200;
  const FaultEvent switch_model = draw_faults(device, switches_only);
  for (const EdgeId e : switch_model.dead_edges) {
    EXPECT_TRUE(device.is_switch_edge(e)) << "switch fault hit edge " << e;
  }
}

TEST(FaultModelTest, CategoryStreamsAreIndependent) {
  // Raising the switch rate must not change which wires die: the knobs
  // sample from separate salted hash streams.
  const Device device(ArchSpec::xc4000(6, 6, 4));
  FaultSpec a;
  a.seed = 9;
  a.wire_permille = 80;
  FaultSpec b = a;
  b.switch_permille = 300;
  const FaultEvent ma = draw_faults(device, a);
  const FaultEvent mb = draw_faults(device, b);
  EXPECT_EQ(ma.dead_wires, mb.dead_wires);
  EXPECT_GT(mb.dead_edges.size(), ma.dead_edges.size());
}

TEST(FaultModelTest, ClusterKillsChebyshevNeighborhoodOnly) {
  const Device device(ArchSpec::xc4000(8, 8, 3));
  FaultSpec spec;
  spec.seed = 13;
  spec.clusters = 1;
  spec.cluster_radius = 1;
  const FaultEvent model = draw_faults(device, spec);
  ASSERT_FALSE(model.dead_wires.empty());

  // Recompute the hashed cluster center the way draw_faults() does and confirm
  // every dead wire's channel tile lies inside the Chebyshev ball.
  const std::uint64_t stream = mix64(spec.seed ^ salt64("faults.clusters"));
  const int cx = static_cast<int>(mix64(stream, 0) % 8);
  const int cy = static_cast<int>(mix64(stream, 1) % 8);
  for (const NodeId v : model.dead_wires) {
    const Device::WireRef ref = device.wire_ref(v);
    EXPECT_LE(std::max(std::abs(ref.x - cx), std::abs(ref.y - cy)), spec.cluster_radius)
        << "wire " << v << " at (" << ref.x << "," << ref.y << ") outside cluster ("
        << cx << "," << cy << ")";
  }
}

TEST(DeviceFaultTest, InstallFaultsDeactivatesAndResetPreserves) {
  Device device(ArchSpec::xc4000(6, 6, 4));
  const int total_edges = device.graph().edge_count();
  device.install_faults(sample_spec());
  ASSERT_TRUE(device.has_faults());
  const FaultEvent* model = device.faults();
  ASSERT_NE(model, nullptr);
  ASSERT_FALSE(model->empty());

  const auto faults_applied = [&]() {
    for (const NodeId v : model->dead_wires) {
      if (device.graph().node_active(v)) return false;
    }
    for (const EdgeId e : model->dead_edges) {
      if (device.graph().edge_active(e)) return false;
    }
    return true;
  };
  EXPECT_TRUE(faults_applied());

  // reset() restores routing state but re-applies the defects — and is
  // idempotent: a second reset changes nothing.
  device.graph().remove_node(device.wire_node(Device::Dir::kHorizontal, 0, 0, 0));
  device.reset();
  EXPECT_TRUE(faults_applied());
  const int used_after_one = device.used_wire_count();
  device.reset();
  EXPECT_TRUE(faults_applied());
  EXPECT_EQ(device.used_wire_count(), used_after_one);

  // Dead wires are defects, not occupancy: a freshly reset faulted device
  // has no USED wires.
  EXPECT_EQ(device.used_wire_count(), 0);

  device.clear_faults();
  EXPECT_FALSE(device.has_faults());
  EXPECT_EQ(device.graph().active_edge_count(), total_edges);
  for (NodeId v = 0; v < device.graph().node_count(); ++v) {
    EXPECT_TRUE(device.graph().node_active(v));
  }
}

TEST(DeviceFaultTest, ResetWithoutFaultsIsIdempotent) {
  Device device(ArchSpec::xc3000(4, 4, 3));
  const int total_edges = device.graph().edge_count();
  device.graph().remove_node(device.wire_node(Device::Dir::kVertical, 0, 0, 0));
  device.graph().add_edge_weight(0, 2.0);
  device.reset();
  device.reset();
  EXPECT_EQ(device.graph().active_edge_count(), total_edges);
  EXPECT_EQ(device.graph().edge_weight(0), 1.0);
  EXPECT_EQ(device.used_wire_count(), 0);
}

TEST(DeviceFaultTest, CopiedDeviceSharesTheFaultModel) {
  // Width probes copy the device; the copy must carry the same defect set
  // without re-sampling it.
  Device device(ArchSpec::xc4000(5, 5, 3));
  device.install_faults(sample_spec());
  const Device copy(device);
  ASSERT_TRUE(copy.has_faults());
  EXPECT_EQ(copy.faults(), device.faults());  // shared, not re-drawn
}

// The installed set and the live-event overlay are two layers of one dead
// set: an event may name a wire the installed set already killed, or a wire
// a routed net holds. Either wire stays dead and uncounted as routing
// demand through reset(), and clearing one layer keeps the other.
TEST(DeviceFaultTest, EventOverlayOverlappingTheInstalledSetStaysDead) {
  Device device(ArchSpec::xc4000(6, 6, 4));
  FaultSpec scattered;
  scattered.seed = 7;
  scattered.wire_permille = 25;
  device.install_faults(scattered);
  const FaultEvent installed = *device.faults();
  ASSERT_FALSE(installed.dead_wires.empty());
  const NodeId already_dead = installed.dead_wires.front();

  Circuit circuit;
  circuit.rows = circuit.cols = 6;
  circuit.nets.push_back({{0, 0}, {{5, 5}}});
  const RoutingResult routed = route_circuit(device, circuit, RouterOptions{});
  ASSERT_TRUE(routed.success);
  NodeId consumed = -1;
  for (const EdgeId e : routed.nets[0].edges) {
    const Graph::Edge ends = device.graph().edge(e);
    if (device.is_wire(ends.u)) consumed = ends.u;
  }
  ASSERT_TRUE(device.is_wire(consumed));
  ASSERT_FALSE(installed.wire_faulted(consumed));
  const int used = device.used_wire_count();
  ASSERT_GT(used, 0);

  FaultEvent event;
  event.dead_wires = {consumed, already_dead};
  event.normalize();
  device.apply_fault_event(event);
  const auto dead = [&](NodeId v) { return !device.graph().node_active(v); };
  EXPECT_TRUE(dead(already_dead));
  EXPECT_TRUE(dead(consumed));
  // The consumed wire is now a defect, and the doubly named one counts once.
  EXPECT_EQ(device.used_wire_count(), used - 1);

  device.reset();
  EXPECT_TRUE(dead(already_dead));
  EXPECT_TRUE(dead(consumed));
  EXPECT_EQ(device.used_wire_count(), 0);

  device.clear_fault_events();
  ASSERT_TRUE(device.has_faults());
  EXPECT_TRUE(*device.faults() == installed);
  EXPECT_TRUE(dead(already_dead));
  EXPECT_FALSE(dead(consumed));
  EXPECT_EQ(device.used_wire_count(), 0);

  device.apply_fault_event(event);
  device.clear_faults();
  EXPECT_FALSE(device.has_faults());
  EXPECT_TRUE(device.fault_event_overlay() == event);
  EXPECT_TRUE(dead(already_dead));
  EXPECT_TRUE(dead(consumed));
  EXPECT_EQ(device.used_wire_count(), 0);
}

}  // namespace
}  // namespace fpr
