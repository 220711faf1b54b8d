#pragma once

#include <memory>
#include <vector>

#include "fpga/arch.hpp"
#include "fpga/faults.hpp"
#include "graph/graph.hpp"

namespace fpr {

/// Which routing-graph builder a Device (or Device3d) uses.
enum class DeviceBuild {
  /// Stamp the graph from a verified tile template when one is available
  /// for the spec (tile_template.hpp), else fall back to the legacy
  /// incremental builder. The resulting graph is bit-identical either way.
  kAuto,
  /// Force the legacy per-element builder. Retained as the executable
  /// specification the template compiler learns from and the differential
  /// suite compares against (same policy as dijkstra_reference.hpp).
  kLegacy,
};

/// A concrete FPGA device: the routing graph induced by an ArchSpec
/// (Section 2, Figure 2), with the bookkeeping the router needs to commit
/// wire segments to nets and to track per-channel-tile occupancy.
///
/// Graph layout:
///  - one node per logic block (nets terminate on block nodes; a block node
///    stands for the cluster of physically distinct pins of that block, so
///    block nodes are shared between nets while wire nodes are exclusive);
///  - one node per wire segment: track t of the horizontal channel y
///    (y in [0, rows], i.e. channels below row 0 through above the top row)
///    at tile x, and symmetrically for vertical channels;
///  - connection-block edges from each block to Fc evenly-spaced tracks of
///    the four adjacent channel segments;
///  - switch-block edges between wire segments meeting at each channel
///    intersection, following the ArchSpec's SwitchPattern.
///
/// All base edge weights are 1.0 (one unit of wirelength per hop); the
/// router layers congestion on top and reset() restores this base state.
class Device {
 public:
  explicit Device(const ArchSpec& spec, DeviceBuild build = DeviceBuild::kAuto);

  const ArchSpec& spec() const { return spec_; }
  Graph& graph() { return graph_; }
  const Graph& graph() const { return graph_; }

  /// True when the graph was stamped from a tile template (and still uses
  /// the tiled representation).
  bool tiled() const { return graph_.tiled(); }

  enum class Dir { kHorizontal, kVertical };

  struct WireRef {
    Dir dir = Dir::kHorizontal;
    int x = 0;      // tile column (horizontal) or channel index (vertical)
    int y = 0;      // channel index (horizontal) or tile row (vertical)
    int track = 0;
  };

  NodeId block_node(int x, int y) const;
  NodeId wire_node(Dir dir, int x, int y, int track) const;

  bool is_block(NodeId v) const { return v < block_count_; }
  bool is_wire(NodeId v) const { return v >= block_count_ && v < graph_.node_count(); }

  /// Decodes a wire node id; precondition is_wire(v).
  WireRef wire_ref(NodeId v) const;

  /// Position of a node on the unified half-tile grid that interleaves
  /// blocks and channels: block (x, y) sits at (2x+1, 2y+1), a horizontal
  /// channel-y wire at tile x sits at (2x+1, 2y), a vertical channel-x wire
  /// at tile y sits at (2x, 2y+1). The grid spans [0, 2*cols] x [0, 2*rows]
  /// and every edge of the routing graph (connection-block or switch-block)
  /// connects nodes within Chebyshev distance 2 — the locality bound the
  /// pattern router's corridor margins are built on (router/patterns.hpp).
  struct TilePos {
    int x = 0;
    int y = 0;
  };
  TilePos node_tile(NodeId v) const;

  /// All wire nodes sharing a channel tile with `wire` (itself excluded);
  /// these are the segments competing for the same channel capacity, the
  /// ones the router's congestion model penalizes.
  std::vector<NodeId> tile_siblings(NodeId wire) const;

  /// Allocation-free form of tile_siblings() for hot paths: invokes
  /// `fn(sibling)` for each sibling in ascending id order. The W tracks of
  /// a channel tile occupy consecutive node ids, so this is pure index
  /// arithmetic — the vector overload above is kept for tests.
  template <typename Fn>
  void for_each_tile_sibling(NodeId wire, Fn&& fn) const {
    const WireRef ref = wire_ref(wire);  // FPR_CHECKs is_wire(wire)
    const NodeId first = wire - static_cast<NodeId>(ref.track);
    for (int t = 0; t < spec_.channel_width; ++t) {
      const NodeId v = first + static_cast<NodeId>(t);
      if (v != wire) fn(v);
    }
  }

  int block_count() const { return block_count_; }
  int wire_count() const { return graph_.node_count() - block_count_; }

  /// Edge-id classification: the constructor adds every connection-block
  /// edge before the first switch-block edge, so one boundary id splits
  /// the two categories. The fault model uses this to target dead
  /// connection-block pins vs dead switchbox connections separately.
  bool is_connection_edge(EdgeId e) const { return e >= 0 && e < connection_edge_count_; }
  bool is_switch_edge(EdgeId e) const {
    return e >= connection_edge_count_ && e < graph_.edge_count();
  }

  /// Number of wire nodes currently consumed by nets (inactive and NOT
  /// faulted — injected defects are permanent, not routing state).
  int used_wire_count() const;

  /// Draws the defect set `spec` induces on this device (FaultModel::draw)
  /// and applies it. Faults are persistent: every subsequent reset()
  /// restores the base state and then re-applies them, so rip-up passes
  /// never resurrect a dead wire. Replaces any previously installed fault
  /// set. FPR_CHECKs that the spec is valid.
  void install_faults(const FaultSpec& spec);

  /// Removes every injected fault and restores the pristine device.
  void clear_faults();

  /// The installed fault set, or nullptr for a pristine device.
  const FaultModel* faults() const { return faults_.get(); }
  bool has_faults() const { return faults_ != nullptr && !faults_->empty(); }

  /// Applies a live fault event on top of whatever is installed AND routed:
  /// the named elements join a cumulative overlay that — like installed
  /// FaultSpec defects — is re-applied by every subsequent reset(), so a
  /// later rip-up pass never resurrects an element that died mid-service.
  /// Unlike install_faults() this does NOT reset routing state: currently
  /// active elements are removed in place, already-inactive ones (consumed
  /// by a net, or already dead) are only recorded — committed routing on
  /// unrelated wires is byte-untouched, which is the precondition of the
  /// incremental repair engine (router/repair.hpp). FPR_CHECKs id ranges.
  void apply_fault_event(const FaultEvent& event);

  /// Cumulative union of every event applied since construction (or the
  /// last clear_fault_events()). Replaying this on a fresh device — probe
  /// devices, journal replay — reproduces the exact overlay.
  const FaultEvent& fault_event_overlay() const { return events_; }
  bool has_fault_events() const { return !events_.empty(); }
  bool event_wire_faulted(NodeId v) const { return events_.wire_faulted(v); }
  bool event_edge_faulted(EdgeId e) const { return events_.edge_faulted(e); }

  /// Drops the event overlay and restores the device (routing state
  /// included — same semantics as clear_faults()).
  void clear_fault_events();

  /// Restores every node/edge to active and every weight to the base 1.0,
  /// then re-applies the installed faults (if any). O(touched state), not
  /// O(V + E): the graph records which elements each pass mutated and only
  /// those are replayed — in the exact ascending-id order the historical
  /// full-scan reset used, so the resulting state (weights, activity,
  /// aggregate float trajectories) is bit-identical to it.
  void reset();

 private:
  void build_legacy();

  ArchSpec spec_;
  Graph graph_;
  NodeId block_count_ = 0;
  NodeId hwire_base_ = 0;  // first horizontal wire node
  NodeId vwire_base_ = 0;  // first vertical wire node
  EdgeId connection_edge_count_ = 0;  // edges below this id are CB edges
  // shared_ptr so Device copies (one per width probe) share the immutable
  // model instead of re-sampling it.
  std::shared_ptr<const FaultModel> faults_;
  FaultEvent events_;  // live-event overlay, re-applied by reset()
};

}  // namespace fpr
