#include "fpga/device.hpp"

#include <algorithm>
#include <cstdlib>

#include "core/contract.hpp"
#include "fpga/switchbox.hpp"
#include "fpga/tile_template.hpp"

namespace fpr {

namespace {

/// Fc evenly spaced track indices in [0, W).
std::vector<int> fc_tracks(int fc, int channel_width) {
  std::vector<int> tracks;
  tracks.reserve(static_cast<std::size_t>(fc));
  for (int i = 0; i < fc; ++i) {
    tracks.push_back(i * channel_width / fc);
  }
  return tracks;
}

}  // namespace

Device::Device(const ArchSpec& spec, DeviceBuild build) : spec_(spec) {
  FPR_CHECK(spec.valid(), "Device spec " << spec.rows << "x" << spec.cols << " width "
                                         << spec.channel_width
                                         << " — rows/cols/channel_width must all be >= 1");
  const int rows = spec_.rows;
  const int cols = spec_.cols;
  const int w = spec_.channel_width;

  block_count_ = static_cast<NodeId>(rows * cols);
  const NodeId hwires = static_cast<NodeId>((rows + 1) * cols * w);
  const NodeId vwires = static_cast<NodeId>((cols + 1) * rows * w);
  hwire_base_ = block_count_;
  vwire_base_ = block_count_ + hwires;
  const auto ucols = static_cast<std::uint32_t>(cols);
  const FixedDivisor by_width(static_cast<std::uint32_t>(w));
  segments_[0] = {0, FixedDivisor(1), FixedDivisor(ucols), ucols, 1, 1};
  segments_[1] = {static_cast<std::uint32_t>(hwire_base_), by_width, FixedDivisor(ucols), ucols,
                  1, 0};
  segments_[2] = {static_cast<std::uint32_t>(vwire_base_), by_width, FixedDivisor(ucols + 1),
                  ucols + 1, 0, 1};

  std::shared_ptr<const TiledTopology> topo;
  if (build == DeviceBuild::kAuto) topo = tiled_topology_for(spec_);
  if (topo != nullptr) {
    // Stamped path: node ids, edge ids, insertion order and weights all come
    // from the verified template; the id-layout invariants the accessors
    // below rely on are cross-checked here, and the legacy emission order
    // (every connection-block edge before the first switch-block edge) makes
    // the CB/SB boundary pure arithmetic.
    FPR_CHECK(topo->node_count == block_count_ + hwires + vwires,
              "tile template synthesized " << topo->node_count << " nodes for a device of "
                                           << block_count_ + hwires + vwires);
    connection_edge_count_ =
        static_cast<EdgeId>(static_cast<std::int64_t>(rows) * cols * spec_.fc() * 4);
    FPR_CHECK(topo->edge_count >= connection_edge_count_,
              "tile template synthesized " << topo->edge_count << " edges, fewer than the "
                                           << connection_edge_count_ << " connection-block edges");
    graph_ = Graph::from_tiled(std::move(topo));
  } else {
    build_legacy();
  }
  // Base state is in place; from here on every mutation is recorded so
  // reset() can undo a routing pass in O(touched).
  graph_.enable_touch_tracking();
}

void Device::build_legacy() {
  const int rows = spec_.rows;
  const int cols = spec_.cols;
  const int w = spec_.channel_width;
  const NodeId hwires = static_cast<NodeId>((rows + 1) * cols * w);
  const NodeId vwires = static_cast<NodeId>((cols + 1) * rows * w);
  graph_.add_nodes(block_count_ + hwires + vwires);

  // Connection blocks: each logic block reaches Fc tracks of the channel
  // segment on each of its four sides.
  const std::vector<int> tracks = fc_tracks(spec_.fc(), w);
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      const NodeId b = block_node(x, y);
      for (const int t : tracks) {
        graph_.add_edge(b, wire_node(Dir::kHorizontal, x, y, t), 1.0);      // south
        graph_.add_edge(b, wire_node(Dir::kHorizontal, x, y + 1, t), 1.0);  // north
        graph_.add_edge(b, wire_node(Dir::kVertical, x, y, t), 1.0);        // west
        graph_.add_edge(b, wire_node(Dir::kVertical, x + 1, y, t), 1.0);    // east
      }
    }
  }

  connection_edge_count_ = graph_.edge_count();
  FPR_CHECK(connection_edge_count_ ==
                static_cast<EdgeId>(static_cast<std::int64_t>(rows) * cols * spec_.fc() * 4),
            "legacy builder emitted " << connection_edge_count_
                                      << " connection-block edges; the arithmetic id scheme "
                                         "expects rows*cols*fc*4");

  // Switch blocks: at every channel intersection (x, y), x in [0, cols],
  // y in [0, rows], connect the wire segments of every pair of present
  // sides with the architecture's track pattern.
  const auto pairs = switchbox_track_pairs(spec_.switch_pattern, w);
  for (int y = 0; y <= rows; ++y) {
    for (int x = 0; x <= cols; ++x) {
      // The four wire groups meeting at this intersection (or -1 if absent
      // at the device perimeter).
      struct Side {
        bool present;
        Dir dir;
        int sx, sy;
      };
      const Side sides[4] = {
          {x >= 1, Dir::kHorizontal, x - 1, y},        // west
          {x <= cols - 1, Dir::kHorizontal, x, y},     // east
          {y >= 1, Dir::kVertical, x, y - 1},          // south
          {y <= rows - 1, Dir::kVertical, x, y},       // north
      };
      for (int a = 0; a < 4; ++a) {
        if (!sides[a].present) continue;
        for (int b = a + 1; b < 4; ++b) {
          if (!sides[b].present) continue;
          for (const auto& [ta, tb] : pairs) {
            graph_.add_edge(wire_node(sides[a].dir, sides[a].sx, sides[a].sy, ta),
                            wire_node(sides[b].dir, sides[b].sx, sides[b].sy, tb), 1.0);
          }
        }
      }
    }
  }
}

NodeId Device::block_node(int x, int y) const {
  FPR_CHECK(x >= 0 && x < spec_.cols && y >= 0 && y < spec_.rows,
            "block_node (" << x << ", " << y << ") outside the " << spec_.cols << "x"
                           << spec_.rows << " array");
  return static_cast<NodeId>(y * spec_.cols + x);
}

NodeId Device::wire_node(Dir dir, int x, int y, int track) const {
  const int w = spec_.channel_width;
  if (dir == Dir::kHorizontal) {
    FPR_CHECK(x >= 0 && x < spec_.cols && y >= 0 && y <= spec_.rows && track >= 0 && track < w,
              "horizontal wire_node (" << x << ", " << y << ") track " << track
                                       << " outside the " << spec_.cols << "x" << spec_.rows
                                       << " array at width " << w);
    return hwire_base_ + static_cast<NodeId>((y * spec_.cols + x) * w + track);
  }
  FPR_CHECK(x >= 0 && x <= spec_.cols && y >= 0 && y < spec_.rows && track >= 0 && track < w,
            "vertical wire_node (" << x << ", " << y << ") track " << track << " outside the "
                                   << spec_.cols << "x" << spec_.rows << " array at width "
                                   << w);
  return vwire_base_ + static_cast<NodeId>((y * (spec_.cols + 1) + x) * w + track);
}

Device::WireRef Device::wire_ref(NodeId v) const {
  FPR_CHECK(is_wire(v), "wire_ref(" << v << ") — node is not a wire (wires are ["
                                    << block_count_ << ", " << graph_.node_count() << "))");
  const int w = spec_.channel_width;
  WireRef ref;
  if (v < vwire_base_) {
    const int idx = v - hwire_base_;
    ref.dir = Dir::kHorizontal;
    ref.track = idx % w;
    ref.x = (idx / w) % spec_.cols;
    ref.y = (idx / w) / spec_.cols;
  } else {
    const int idx = v - vwire_base_;
    ref.dir = Dir::kVertical;
    ref.track = idx % w;
    ref.x = (idx / w) % (spec_.cols + 1);
    ref.y = (idx / w) / (spec_.cols + 1);
  }
  return ref;
}

Device::TilePos Device::node_tile(NodeId v) const {
  FPR_CHECK(v >= 0 && v < graph_.node_count(),
            "node_tile(" << v << ") — not a node (nodes are [0, " << graph_.node_count() << "))");
  return tile_of(v);
}

Weight Device::distance_lower_bound(NodeId v, NodeId t) const {
  const TilePos a = node_tile(v);
  const TilePos b = node_tile(t);
  const int manhattan = std::abs(a.x - b.x) + std::abs(a.y - b.y);
  return static_cast<Weight>((manhattan + 1) / 2);
}

DistanceBound Device::distance_bound() const {
  // Edges span at most 2 units; blocks and wires lie in [0, 2 cols] x
  // [0, 2 rows].
  return DistanceBound::lattice<&Device::tile_of>(*this,
                                                  LatticePoint{2 * spec_.cols, 2 * spec_.rows});
}

std::vector<NodeId> Device::tile_siblings(NodeId wire) const {
  const WireRef ref = wire_ref(wire);
  std::vector<NodeId> siblings;
  siblings.reserve(static_cast<std::size_t>(spec_.channel_width) - 1);
  for (int t = 0; t < spec_.channel_width; ++t) {
    const NodeId v = wire_node(ref.dir, ref.x, ref.y, t);
    if (v != wire) siblings.push_back(v);
  }
  return siblings;
}

int Device::used_wire_count() const {
  int used = 0;
  for (NodeId v = block_count_; v < graph_.node_count(); ++v) {
    if (!graph_.node_active(v)) ++used;
  }
  // Faulted wires are permanently inactive but were never consumed by a
  // net; reporting them as "used" would make degradation stats double-count
  // defects as routing demand. Event-dead wires likewise — minus any
  // overlap with the installed fault set, which was already subtracted.
  if (faults_ != nullptr) used -= static_cast<int>(faults_->dead_wires().size());
  for (const NodeId v : events_.dead_wires) {
    if (faults_ == nullptr || !faults_->wire_faulted(v)) --used;
  }
  return used;
}

void Device::install_faults(const FaultSpec& spec) {
  FPR_CHECK(spec.valid(), "install_faults: invalid spec " << spec.describe());
  faults_ = std::make_shared<const FaultModel>(FaultModel::draw(*this, spec));
  reset();
}

void Device::clear_faults() {
  faults_.reset();
  reset();
}

void Device::apply_fault_event(const FaultEvent& event) {
  for (const NodeId v : event.dead_wires) {
    FPR_CHECK(is_wire(v), "apply_fault_event: node " << v << " is not a wire (wires are ["
                                                     << block_count_ << ", "
                                                     << graph_.node_count() << "))");
    // Activity-guarded: a wire already consumed by a net (or already dead)
    // stays as-is; the overlay record below is what makes it permanent.
    if (graph_.node_active(v)) graph_.remove_node(v);
  }
  for (const EdgeId e : event.dead_edges) {
    FPR_CHECK(e >= 0 && e < graph_.edge_count(),
              "apply_fault_event: edge " << e << " outside [0, " << graph_.edge_count() << ")");
    if (graph_.edge_active(e)) graph_.remove_edge(e);
  }
  events_.merge(event);
}

void Device::clear_fault_events() {
  events_ = FaultEvent{};
  reset();
}

void Device::reset() {
  if (graph_.touch_tracking()) {
    // Replay only what this pass mutated, in ascending id order — the same
    // subsequence of operations the full scan below would perform (elements
    // it skips were never mutated), so the restored state is bit-identical.
    std::vector<NodeId> nodes(graph_.touched_nodes().begin(), graph_.touched_nodes().end());
    std::vector<EdgeId> edges(graph_.touched_edges().begin(), graph_.touched_edges().end());
    std::sort(nodes.begin(), nodes.end());
    std::sort(edges.begin(), edges.end());
    graph_.clear_touched();
    for (const NodeId v : nodes) {
      if (!graph_.node_active(v)) graph_.restore_node(v);
    }
    for (const EdgeId e : edges) {
      if (!graph_.edge_active(e)) graph_.restore_edge(e);
      if (graph_.edge_weight(e) != 1.0) graph_.set_edge_weight(e, 1.0);
    }
  } else {
    for (NodeId v = 0; v < graph_.node_count(); ++v) {
      if (!graph_.node_active(v)) graph_.restore_node(v);
    }
    for (EdgeId e = 0; e < graph_.edge_count(); ++e) {
      if (!graph_.edge_active(e)) graph_.restore_edge(e);
      if (graph_.edge_weight(e) != 1.0) graph_.set_edge_weight(e, 1.0);
    }
  }
  if (faults_ != nullptr) {
    // Defects outlive routing state: every pass starts from the same
    // faulted-but-empty device.
    for (const NodeId v : faults_->dead_wires()) graph_.remove_node(v);
    for (const EdgeId e : faults_->dead_edges()) graph_.remove_edge(e);
  }
  // The live-event overlay outlives routing state the same way. Guarded
  // because an event may name an element the installed fault set already
  // killed above.
  for (const NodeId v : events_.dead_wires) {
    if (graph_.node_active(v)) graph_.remove_node(v);
  }
  for (const EdgeId e : events_.dead_edges) {
    if (graph_.edge_active(e)) graph_.remove_edge(e);
  }
}

}  // namespace fpr
