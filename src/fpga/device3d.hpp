#pragma once

#include <vector>

#include "fpga/arch.hpp"
#include "graph/graph.hpp"

namespace fpr {

/// Three-dimensional FPGA device — the paper's Section 6 extension
/// ("all of our methods generalize to three-dimensional FPGAs [1, 2]").
///
/// `layers` identical symmetrical-array layers are stacked; horizontal wire
/// segments of vertically adjacent layers are joined by programmable vias
/// at every `via_spacing`-th channel tile (track-aligned). Because every
/// routing algorithm in this library operates on arbitrary weighted graphs,
/// they run on the 3-D routing graph unchanged — which is precisely the
/// point the paper makes.
struct Arch3dSpec {
  ArchSpec layer;       // per-layer architecture
  int layers = 2;
  int via_spacing = 1;  // vias every k-th tile (1 = everywhere)
  Weight via_weight = 1.0;

  bool valid() const { return layer.valid() && layers >= 1 && via_spacing >= 1; }
};

class Device3d {
 public:
  /// Builds the materialized routing graph element by element.
  explicit Device3d(const Arch3dSpec& spec);

  const Arch3dSpec& spec() const { return spec_; }
  Graph& graph() { return graph_; }
  const Graph& graph() const { return graph_; }

  enum class Dir { kHorizontal, kVertical };

  NodeId block_node(int layer, int x, int y) const;
  NodeId wire_node(int layer, Dir dir, int x, int y, int track) const;

  bool is_block(NodeId v) const;
  bool is_wire(NodeId v) const { return !is_block(v) && v < graph_.node_count(); }

  int layer_of(NodeId v) const { return v / per_layer_nodes_; }

  int block_count() const { return spec_.layers * blocks_per_layer_; }
  int via_count() const { return via_count_; }

 private:
  Arch3dSpec spec_;
  Graph graph_;
  NodeId per_layer_nodes_ = 0;
  NodeId blocks_per_layer_ = 0;
  NodeId hwire_base_ = 0;  // within-layer offsets
  NodeId vwire_base_ = 0;
  int via_count_ = 0;
};

}  // namespace fpr
