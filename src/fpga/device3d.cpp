#include "fpga/device3d.hpp"

#include <cstdint>
#include <limits>

#include "core/contract.hpp"

#include "fpga/switchbox.hpp"

namespace fpr {

Device3d::Device3d(const Arch3dSpec& spec) : spec_(spec) {
  FPR_CHECK(spec.valid(), "Device3D spec with " << spec.layers
                              << " layers — layers >= 1 and a valid per-layer spec required");
  const ArchSpec& a = spec_.layer;
  const int rows = a.rows, cols = a.cols, w = a.channel_width;
  // Vias add at most one edge per horizontal wire, so (nodes + edge_bound)
  // per layer bounds both the node and the edge count.
  constexpr std::int64_t kMaxId = std::numeric_limits<NodeId>::max();
  FPR_CHECK(a.fits_ids() && (a.node_count() + a.edge_bound()) * spec_.layers <= kMaxId,
            "Device3D spec " << a.describe() << " x " << spec_.layers
                             << " layers — more nodes or edges than 32-bit ids hold");

  // The check above bounds every product below, so the narrowing is exact.
  blocks_per_layer_ = static_cast<NodeId>(std::int64_t{rows} * cols);
  const auto hwires = static_cast<NodeId>((std::int64_t{rows} + 1) * cols * w);
  hwire_base_ = blocks_per_layer_;
  vwire_base_ = blocks_per_layer_ + hwires;
  per_layer_nodes_ = static_cast<NodeId>(a.node_count());
  graph_.add_nodes(per_layer_nodes_ * spec_.layers);

  // Fc evenly spaced track indices.
  std::vector<int> tracks;
  for (int i = 0; i < a.fc(); ++i) tracks.push_back(i * w / a.fc());
  const auto pairs = switchbox_track_pairs(a.switch_pattern, w);

  for (int layer = 0; layer < spec_.layers; ++layer) {
    // Connection blocks (as in the 2-D Device).
    for (int y = 0; y < rows; ++y) {
      for (int x = 0; x < cols; ++x) {
        const NodeId b = block_node(layer, x, y);
        for (const int t : tracks) {
          graph_.add_edge(b, wire_node(layer, Dir::kHorizontal, x, y, t), 1.0);
          graph_.add_edge(b, wire_node(layer, Dir::kHorizontal, x, y + 1, t), 1.0);
          graph_.add_edge(b, wire_node(layer, Dir::kVertical, x, y, t), 1.0);
          graph_.add_edge(b, wire_node(layer, Dir::kVertical, x + 1, y, t), 1.0);
        }
      }
    }
    // Switch blocks.
    for (int y = 0; y <= rows; ++y) {
      for (int x = 0; x <= cols; ++x) {
        struct Side {
          bool present;
          Dir dir;
          int sx, sy;
        };
        const Side sides[4] = {
            {x >= 1, Dir::kHorizontal, x - 1, y},
            {x <= cols - 1, Dir::kHorizontal, x, y},
            {y >= 1, Dir::kVertical, x, y - 1},
            {y <= rows - 1, Dir::kVertical, x, y},
        };
        for (int s1 = 0; s1 < 4; ++s1) {
          if (!sides[s1].present) continue;
          for (int s2 = s1 + 1; s2 < 4; ++s2) {
            if (!sides[s2].present) continue;
            for (const auto& [ta, tb] : pairs) {
              graph_.add_edge(wire_node(layer, sides[s1].dir, sides[s1].sx, sides[s1].sy, ta),
                              wire_node(layer, sides[s2].dir, sides[s2].sx, sides[s2].sy, tb),
                              1.0);
            }
          }
        }
      }
    }
    // Vias to the layer above: track-aligned, on every via_spacing-th
    // horizontal channel tile.
    if (layer + 1 < spec_.layers) {
      for (int y = 0; y <= rows; ++y) {
        for (int x = 0; x < cols; x += spec_.via_spacing) {
          for (int t = 0; t < w; ++t) {
            graph_.add_edge(wire_node(layer, Dir::kHorizontal, x, y, t),
                            wire_node(layer + 1, Dir::kHorizontal, x, y, t),
                            spec_.via_weight);
            ++via_count_;
          }
        }
      }
    }
  }
}

NodeId Device3d::block_node(int layer, int x, int y) const {
  FPR_CHECK(layer >= 0 && layer < spec_.layers,
            "block_node layer " << layer << " outside [0, " << spec_.layers << ")");
  FPR_CHECK(x >= 0 && x < spec_.layer.cols && y >= 0 && y < spec_.layer.rows,
            "block_node (" << x << ", " << y << ") outside the " << spec_.layer.cols << "x"
                           << spec_.layer.rows << " layer");
  return static_cast<NodeId>(layer) * per_layer_nodes_ +
         static_cast<NodeId>(y * spec_.layer.cols + x);
}

NodeId Device3d::wire_node(int layer, Dir dir, int x, int y, int track) const {
  const int w = spec_.layer.channel_width;
  FPR_CHECK(layer >= 0 && layer < spec_.layers,
            "wire_node layer " << layer << " outside [0, " << spec_.layers << ")");
  const NodeId base = static_cast<NodeId>(layer) * per_layer_nodes_;
  if (dir == Dir::kHorizontal) {
    FPR_CHECK(x >= 0 && x < spec_.layer.cols && y >= 0 && y <= spec_.layer.rows && track >= 0 &&
                  track < w,
              "horizontal wire_node (" << x << ", " << y << ") track " << track
                                       << " outside the " << spec_.layer.cols << "x"
                                       << spec_.layer.rows << " layer at width " << w);
    return base + hwire_base_ + static_cast<NodeId>((y * spec_.layer.cols + x) * w + track);
  }
  FPR_CHECK(x >= 0 && x <= spec_.layer.cols && y >= 0 && y < spec_.layer.rows && track >= 0 &&
                track < w,
            "vertical wire_node (" << x << ", " << y << ") track " << track << " outside the "
                                   << spec_.layer.cols << "x" << spec_.layer.rows
                                   << " layer at width " << w);
  return base + vwire_base_ + static_cast<NodeId>((y * (spec_.layer.cols + 1) + x) * w + track);
}

bool Device3d::is_block(NodeId v) const {
  return v % per_layer_nodes_ < blocks_per_layer_;
}

}  // namespace fpr
