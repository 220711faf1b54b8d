#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace fpr {

/// A routing solution for one net: a set of edges of the routing graph that
/// (when valid) forms a tree spanning the net's terminals.
///
/// The container dedupes its edge set and offers the metrics the paper
/// evaluates: total wirelength (cost), per-sink pathlength, maximum
/// source-sink pathlength, plus structural validation used by the tests
/// (is it a tree? does it span N? are all leaves terminals?).
///
/// The layout is flat (DESIGN.md §5): the sorted edge ids, the sorted node
/// ids, and a CSR adjacency with one (edge, neighbour) slot per incidence,
/// each node's slots in ascending edge-id order. Every walk is FIFO over
/// that order, so on an edge set that is not a tree the path queries give
/// the first-arrival answer of a breadth-first search.
class RoutingTree {
 public:
  RoutingTree(const Graph& g, std::vector<EdgeId> edges);

  const Graph& graph() const { return *g_; }
  const std::vector<EdgeId>& edges() const { return edges_; }
  bool empty() const { return edges_.empty(); }

  /// Sum of edge weights ("wirelength" in the paper's terminology).
  Weight cost() const;

  /// Every node touched by some edge, sorted ascending.
  std::vector<NodeId> nodes() const;

  bool contains_node(NodeId v) const { return index_of(v) >= 0; }

  /// True iff the edge set is acyclic and connected over its touched nodes.
  bool is_tree() const;

  /// True iff every terminal is touched and they are mutually connected.
  /// A single-terminal net is spanned by an empty tree; a non-empty tree
  /// spans a lone terminal only if it actually touches it (a terminal left
  /// at degree 0 next to unrelated wiring is rejected).
  bool spans(std::span<const NodeId> terminals) const;

  /// Cost of the unique tree path between two touched nodes
  /// (kInfiniteWeight if either is absent or they are disconnected).
  Weight path_length(NodeId from, NodeId to) const;

  /// max over sinks of path_length(source, sink).
  Weight max_path_length(NodeId source, std::span<const NodeId> sinks) const;

  /// max over sinks of the tree-path EDGE COUNT from the source — the
  /// physical pathlength on unit-length wire models, independent of any
  /// congestion weighting layered onto the graph. Returns -1 if some sink
  /// is not connected to the source in the tree.
  int max_path_edge_count(NodeId source, std::span<const NodeId> sinks) const;

  /// Repeatedly removes degree-1 nodes that are not in `keep` (the KMB
  /// pendant-edge cleanup, and general Steiner-leaf pruning), to the unique
  /// fixpoint.
  void prune_leaves(std::span<const NodeId> keep);

 private:
  /// One incidence: the edge's index into edges_ and the other end's index
  /// into nodes_.
  struct Slot {
    std::int32_t edge;
    std::int32_t nbr;
  };

  void rebuild_adjacency();

  /// Index of v in nodes_, or -1 if no edge touches it.
  std::int32_t index_of(NodeId v) const;

  /// FIFO walk from nodes_[root] over the slots in order. Returns one value
  /// per node: `at_root` at the root, `step(value of the node it is first
  /// reached from, edge id)` at every other node reached, `unreached` at the
  /// rest.
  template <class T, class Step>
  std::vector<T> walk(std::int32_t root, T at_root, T unreached, Step step) const;

  const Graph* g_;
  std::vector<EdgeId> edges_;           // sorted, unique
  std::vector<NodeId> nodes_;           // sorted unique endpoints of edges_
  std::vector<std::int32_t> offsets_;   // nodes_.size() + 1 entries
  std::vector<Slot> slots_;             // 2 * edges_.size(), grouped by node
};

/// The distinct terminals of a net, sorted ascending: the canonical
/// terminal list every Steiner construction and its checks work on.
std::vector<NodeId> distinct_terminals(std::span<const NodeId> net);

}  // namespace fpr
