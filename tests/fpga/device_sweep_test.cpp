// Parameterized structural properties of the device builder across array
// sizes, channel widths and architecture families — the invariants every
// width-search experiment silently relies on.

#include <gtest/gtest.h>

#include "fpga/device.hpp"
#include "graph/dijkstra.hpp"

namespace fpr {
namespace {

// Int-sized so SweepCase has no padding: gtest names each case after the
// raw bytes of its parameter, and uninitialised padding bytes would make the
// discovered test names differ from run to run.
enum Family : int { kXc4000 = 0, kXc3000 = 1 };

struct SweepCase {
  int rows, cols, width;
  Family family;
};

class DeviceSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  static ArchSpec arch(const SweepCase& c) {
    return c.family == kXc3000 ? ArchSpec::xc3000(c.rows, c.cols, c.width)
                                 : ArchSpec::xc4000(c.rows, c.cols, c.width);
  }
};

TEST_P(DeviceSweepTest, NodeCountFormula) {
  const auto& c = GetParam();
  const Device device(arch(c));
  const int expected_wires =
      (c.rows + 1) * c.cols * c.width + (c.cols + 1) * c.rows * c.width;
  EXPECT_EQ(device.block_count(), c.rows * c.cols);
  EXPECT_EQ(device.wire_count(), expected_wires);
}

TEST_P(DeviceSweepTest, EveryBlockPinFanoutIsFourFc) {
  const auto& c = GetParam();
  const ArchSpec spec = arch(c);
  const Device device(spec);
  for (int y = 0; y < c.rows; ++y) {
    for (int x = 0; x < c.cols; ++x) {
      EXPECT_EQ(device.graph().incident_edges(device.block_node(x, y)).size(),
                static_cast<std::size_t>(4 * spec.fc()));
    }
  }
}

TEST_P(DeviceSweepTest, InteriorWireFanoutRespectsFs) {
  // A wire segment meets two switch blocks; at each interior one it can
  // reach Fs other wires, plus its connection-block pin edges.
  const auto& c = GetParam();
  const ArchSpec spec = arch(c);
  const Device device(spec);
  const Graph& g = device.graph();
  int max_wire_degree = 0;
  for (NodeId v = device.block_count(); v < g.node_count(); ++v) {
    int wire_neighbors = 0;
    for (const EdgeId e : g.incident_edges(v)) {
      if (device.is_wire(g.other_end(e, v))) ++wire_neighbors;
    }
    max_wire_degree = std::max(max_wire_degree, wire_neighbors);
  }
  // Augmented (Fs=6) pattern additionally receives shifted-track edges from
  // each side, so the per-end bound is 2*Fs; the disjoint pattern is exact.
  EXPECT_LE(max_wire_degree, 2 * 2 * spec.fs());
  EXPECT_GE(max_wire_degree, spec.fs());
}

TEST_P(DeviceSweepTest, FullyConnected) {
  const auto& c = GetParam();
  const Device device(arch(c));
  const auto spt = dijkstra(device.graph(), device.block_node(0, 0));
  for (NodeId v = 0; v < device.graph().node_count(); ++v) {
    EXPECT_TRUE(spt.reached(v)) << "node " << v;
  }
}

TEST_P(DeviceSweepTest, WireRefRoundTripsEveryWire) {
  const auto& c = GetParam();
  const Device device(arch(c));
  for (NodeId v = device.block_count(); v < device.graph().node_count(); ++v) {
    const auto ref = device.wire_ref(v);
    EXPECT_EQ(device.wire_node(ref.dir, ref.x, ref.y, ref.track), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DeviceSweepTest,
                         ::testing::Values(SweepCase{2, 2, 1, kXc4000}, SweepCase{3, 5, 2, kXc4000},
                                           SweepCase{5, 3, 4, kXc3000}, SweepCase{4, 4, 7, kXc3000},
                                           SweepCase{6, 7, 3, kXc4000}, SweepCase{7, 6, 5, kXc3000},
                                           SweepCase{1, 8, 2, kXc4000}, SweepCase{8, 1, 2, kXc3000}));

}  // namespace
}  // namespace fpr
