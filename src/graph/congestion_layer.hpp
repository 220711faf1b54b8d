#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace fpr {

/// Negotiated-congestion cost layer over a routing graph (DESIGN.md §13).
///
/// PathFinder-style congestion resolution prices *sharing* instead of
/// forbidding it: every shared node charges a present-overflow term that
/// grows within a run, plus a history term that accrues across passes on
/// chronically contested nodes. This repo's routing graphs put capacity on
/// wire NODES (capacity 1 — a physical wire segment carries one signal), so
/// the layer keeps per-wire occupancy/history and folds the node costs into
/// the graph's per-EDGE weight arrays, the only cost stream the Dijkstra
/// backends read:
///
///     weight(e) = base(e) + cost(u)/2 + cost(v)/2
///     cost(v)   = present(v) + history(v)          (0 for block nodes)
///     present(v)= occupancy(v) >= capacity
///                   ? present_factor * (occupancy(v) + 1 - capacity) : 0
///
/// Splitting a node's cost across its incident edges charges any path
/// *through* the node the full cost (in one edge and out another), and a
/// path *terminating* there half — a harmless underestimate for sinks,
/// which are block pins and carry no cost anyway. All constants in this
/// repo are dyadic, so the repricing arithmetic is bit-exact on every
/// platform and identical on the materialized and tiled graphs (both keep
/// weights in the one per-edge state array set_edge_weight writes, and it
/// bumps the revision, so PathOracle invalidation stays correct for free).
///
/// Thread-safety: const accessors are safe to read concurrently; every
/// mutator reprices through the graph and must be called from the owning
/// (serial commit) thread only, like every other graph mutation.
class CongestionLayer {
 public:
  /// Snapshots the current weights of `g` as the base costs. Construct on
  /// the pristine (just-reset) graph; `first_shared` is the id of the first
  /// capacity-carrying node (Device::block_count() — blocks below it are
  /// shareable by design and never priced).
  CongestionLayer(Graph& g, NodeId first_shared, int capacity = 1);

  int capacity() const { return capacity_; }
  double present_factor() const { return present_factor_; }

  /// Sets the present-overflow factor for the coming pass and reprices
  /// every occupied node at it, so the weights equal bit for bit those of a
  /// fresh layer built at `f` with the same occupancy and history.
  void set_present_factor(double f);

  /// Clears all occupancy (history persists) and restores the affected edge
  /// weights, in ascending node-id order. O(previously occupied), not
  /// O(graph).
  void begin_pass();

  /// Occupancy bookkeeping for one wire node, repricing its incident edges
  /// in place. add_occupant is called as a net commits a wire (so later
  /// nets in the same pass see the updated present cost); remove_occupant
  /// as a net is ripped back out. A node that drops to zero and is occupied
  /// again is still listed once by occupied().
  void add_occupant(NodeId v);
  void remove_occupant(NodeId v);

  /// Adds `inc` to the node's history term and reprices. Called by the
  /// negotiation loop's end-of-pass sweep over overflowed wires; history
  /// never decays.
  void accrue_history(NodeId v, double inc);

  int occupancy(NodeId v) const { return occ_[index(v)]; }
  double history(NodeId v) const { return history_[index(v)]; }

  /// True when admitting one more occupant would push `v` over capacity —
  /// the pattern-probe prune and the end-of-run feasibility test.
  bool would_overflow(NodeId v) const { return occ_[index(v)] >= capacity_; }

  /// Sum over nodes of max(0, occupancy - capacity): the convergence
  /// measure. O(1) — maintained as a running counter.
  int total_overflow() const { return overflow_; }

  /// Currently occupied shared nodes, ascending. O(occupied log occupied).
  std::vector<NodeId> occupied() const;

  /// Present + history cost of node `v` (0 for ids below first_shared).
  double node_cost(NodeId v) const {
    if (v < first_) return 0;
    const std::size_t i = index(v);
    const int over = occ_[i] + 1 - capacity_;
    const double present = over > 0 ? present_factor_ * static_cast<double>(over) : 0.0;
    return present + history_[i];
  }

 private:
  std::size_t index(NodeId v) const {
    FPR_CHECK(v >= first_ && v < first_ + static_cast<NodeId>(occ_.size()),
              "CongestionLayer: node " << v << " outside the shared range [" << first_ << ", "
                                       << first_ + static_cast<NodeId>(occ_.size()) << ")");
    return static_cast<std::size_t>(v - first_);
  }

  /// Rewrites the weights of every edge incident to `v` from the current
  /// node costs. Copies the incident span first: on a tiled graph above
  /// the flat-adjacency size cut incident_edges() returns a thread-local
  /// scratch span that the next incident_edges() call (e.g. inside cost
  /// evaluation of the other endpoint) would clobber.
  void reprice(NodeId v);

  Graph& g_;
  NodeId first_ = 0;
  int capacity_ = 1;
  double present_factor_ = 0.5;

  std::vector<Weight> base_;    // per-edge base weight snapshot
  std::vector<int> occ_;        // per shared node
  std::vector<double> history_; // per shared node
  std::vector<NodeId> touched_; // occupied at some point since last begin_pass
  std::vector<char> listed_;    // per shared node: already in touched_
  std::vector<EdgeId> scratch_; // incident-span copy for reprice()
  long long total_occ_ = 0;
  int overflow_ = 0;
};

}  // namespace fpr
