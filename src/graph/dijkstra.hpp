#pragma once

#include <span>
#include <vector>

#include "graph/budget.hpp"
#include "graph/distance_bound.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace fpr {

/// Single-source shortest paths from one node (Dijkstra [16]).
///
/// Distances to deactivated or unreachable nodes are kInfiniteWeight.
/// Ties are broken deterministically (smaller node id first), so the parent
/// forest — and every algorithm built on it — is reproducible.
struct ShortestPathTree {
  NodeId source = kInvalidNode;
  std::vector<Weight> dist;
  std::vector<NodeId> parent;       // predecessor node on a shortest path
  std::vector<EdgeId> parent_edge;  // edge to that predecessor

  /// Empty for a complete run. For a radius-bounded run (dijkstra_within),
  /// flags the nodes whose distances are final; everything else is unknown
  /// (not "unreachable").
  std::vector<char> settled;

  /// Targets dijkstra_within skipped because they were deactivated — they
  /// can never be settled, so they must not hold the radius limit open.
  /// Nonzero values make that (previously silent) degradation observable.
  int inactive_targets = 0;

  /// True when the run stopped because a WorkBudget ran out of node
  /// expansions (see graph/budget.hpp). The tree is partial: `settled`
  /// flags the nodes whose labels are final, exactly as for a
  /// radius-bounded early stop, and queries outside it must consult
  /// knows(). Budget-aborted runs are deterministic — the same budget
  /// always settles the same node set.
  bool budget_aborted = false;

  bool reached(NodeId v) const { return dist[static_cast<std::size_t>(v)] < kInfiniteWeight; }

  /// True when this tree can answer queries about v: either the run was
  /// complete, or v was settled before the early stop.
  bool knows(NodeId v) const {
    return settled.empty() || settled[static_cast<std::size_t>(v)] != 0;
  }

  bool complete() const { return settled.empty(); }

  Weight distance(NodeId v) const { return dist[static_cast<std::size_t>(v)]; }

  /// Edges of the source -> v shortest path (empty when v == source).
  /// Returns an empty path when v is unreachable — previously that was
  /// undefined behavior in Release builds (the assert compiled out and the
  /// walk indexed with kInvalidNode).
  std::vector<EdgeId> path_edges_to(NodeId v) const;

  /// Nodes of the source -> v shortest path, source first. Empty when v is
  /// unreachable (same contract as path_edges_to).
  std::vector<NodeId> path_nodes_to(NodeId v) const;
};

/// Runs Dijkstra over the usable part of g. O((V + E) log V).
///
/// The engine walks the graph's adjacency — the flat adjacency
/// (Graph::flat_adjacency()) of a materialized graph or of a tiled graph at
/// or below the size cut, or the tile template above it — reading weights
/// and activity from Graph::state_view(), with a thread-local epoch-stamped
/// arena and an indexed 4-ary heap with decrease-key — see DESIGN.md §8.
/// Output is bit-identical to the historical binary-heap engine (kept in
/// graph/dijkstra_reference.hpp and pinned by
/// tests/graph/dijkstra_differential_test.cpp).
ShortestPathTree dijkstra(const Graph& g, NodeId source);

/// Allocation-free variant: runs into `out`, reusing its vectors' capacity.
/// Repeated calls with the same tree object allocate nothing at steady
/// state (the router's two-pin baseline and the microbench use this).
///
/// `budget` (optional) charges one unit per node expansion and stops the
/// run — marking the tree budget_aborted, with `settled` flagging the
/// final labels — once the budget is spent. A null budget reproduces the
/// historical engine bit-for-bit.
void dijkstra(const Graph& g, NodeId source, ShortestPathTree& out, WorkBudget* budget = nullptr);

/// Point-to-point shortest paths from `source` toward `target`: the same
/// settle loop keyed by f = d + bound(v, target) (A*), so it labels the
/// nodes that can lie on a shortest source-target path instead of a whole
/// Dijkstra ball. Once the target settles at d*, it keeps popping while
/// the minimum key is <= d*, so every node with f <= d* is settled. Every
/// settled node's dist, parent and parent_edge equal dijkstra()'s bit for
/// bit: ties are recovered to Dijkstra's rule (among tight predecessors,
/// the one Dijkstra settles first; within it the lowest edge id), which
/// needs a consistent bound — see DistanceBound and DESIGN.md §8.
///
/// `settled` flags the final labels; queries outside it must consult
/// knows(). A run that drains the component (unreachable or inactive
/// target) is marked complete. `budget` charges one unit per pop; on a
/// budget stop at key F only the nodes popped with f < F count as settled,
/// so the result is deterministic for a given budget.
void dijkstra_to(const Graph& g, NodeId source, NodeId target, DistanceBound bound,
                 ShortestPathTree& out, WorkBudget* budget = nullptr);

/// Radius-bounded Dijkstra: settles at least every reachable node in
/// `targets`, then keeps expanding until the frontier key exceeds
/// radius_factor * (max settled target distance) + slack, and marks what it
/// settled. On large FPGA routing graphs this prices a local net at the
/// cost of its neighborhood instead of the whole device; the generous
/// default radius covers the Steiner "corridor" (nodes on shortest paths
/// between targets plus their neighbors) from every target's viewpoint.
/// If the search exhausts the component anyway, the result is marked
/// complete. Queries outside the settled set must consult knows() —
/// PathOracle does this and transparently falls back to a full run.
/// Deactivated targets are skipped (counted in ShortestPathTree::
/// inactive_targets) rather than left pending forever; if every target is
/// inactive the run is unbounded, like dijkstra().
ShortestPathTree dijkstra_within(const Graph& g, NodeId source, std::span<const NodeId> targets,
                                 double radius_factor = 1.3, Weight slack = 4.0);

/// Reuse variant of dijkstra_within (see the dijkstra() overload above).
/// `budget` as in the dijkstra() reuse overload: node-expansion-bounded,
/// deterministic early abort.
void dijkstra_within(const Graph& g, NodeId source, std::span<const NodeId> targets,
                     ShortestPathTree& out, double radius_factor = 1.3, Weight slack = 4.0,
                     WorkBudget* budget = nullptr);

}  // namespace fpr
