#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/budget.hpp"
#include "graph/dijkstra_arena.hpp"
#include "graph/distance_bound.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace fpr {

/// Single-source shortest paths from one node (Dijkstra [16]).
///
/// Distances to deactivated or unreachable nodes are kInfiniteWeight.
/// Ties are broken deterministically (smaller node id first), so the parent
/// forest — and every algorithm built on it — is reproducible.
///
/// The tree owns its search state (DijkstraArena): labels, heap and heap
/// positions stay where the run stopped. A tree from dijkstra_within_paused
/// is a *paused* run that grows on reads: every read of a node (knows,
/// reached, distance, parent, parent_edge, path_edges_to, path_nodes_to)
/// first resumes the run until that node settles or the heap drains, and
/// complete() drains it. Given a DistanceBound the run is goal-directed:
/// it keys on f = d + h with h the bound's minimum over the live targets
/// (GoalBound), pauses once the last target pops and the run of equal keys
/// it popped in has drained, and a read resumes the same keyed loop until
/// the node read pops and its own tie run drains. Either way every read of
/// a paused tree answers bit for bit as dijkstra() would — DESIGN.md §8.
/// Reading a paused tree mutates it, so a tree must not be read from two
/// threads at once (DESIGN.md §7). Every other tree is sealed: reads never
/// grow it.
class ShortestPathTree {
 public:
  NodeId source() const { return source_; }

  /// Number of nodes of the graph the run searched.
  NodeId node_count() const { return node_count_; }

  /// Targets the scoped run skipped because they were deactivated — they
  /// can never be settled, so they must not hold the pause off.
  /// Nonzero values make that (previously silent) degradation observable.
  int inactive_targets() const { return inactive_targets_; }

  /// True when the run (or the latest growth of a paused tree) stopped
  /// because a WorkBudget ran out of node expansions (see
  /// graph/budget.hpp). The tree is partial: only the nodes settled before
  /// the stop are known, and queries outside them must consult knows().
  /// Budget stops are deterministic — the same budget always settles the
  /// same node set.
  bool budget_aborted() const { return budget_aborted_; }

  bool reached(NodeId v) const {
    grow_to(v);
    return arena_.touched(v);
  }

  /// True when this tree can answer queries about v: either the run was
  /// complete, or v settled before the run stopped.
  bool knows(NodeId v) const {
    grow_to(v);
    return settled(v);
  }

  /// True when the run drained the source's component, so every node is
  /// known. A paused tree grows until its heap drains first.
  bool complete() const {
    grow_to(kInvalidNode);
    return arena_.heap_empty();
  }

  Weight distance(NodeId v) const {
    grow_to(v);
    return arena_.dist(v);
  }

  /// Predecessor of v on its shortest path and the edge to it;
  /// kInvalidNode / kInvalidEdge for the source and for unreached nodes.
  NodeId parent(NodeId v) const {
    grow_to(v);
    return arena_.parent(v);
  }
  EdgeId parent_edge(NodeId v) const {
    grow_to(v);
    return arena_.parent_edge(v);
  }

  /// Edges of the source -> v shortest path (empty when v == source).
  /// Returns an empty path when v is unreachable — previously that was
  /// undefined behavior in Release builds (the assert compiled out and the
  /// walk indexed with kInvalidNode). A parent chain longer than
  /// node_count() (a corrupt arena) fails an FPR_CHECK instead of
  /// allocating without bound.
  std::vector<EdgeId> path_edges_to(NodeId v) const;

  /// path_edges_to(v), appended to `out`: no allocation once `out` has the
  /// capacity.
  void append_path_edges_to(NodeId v, std::vector<EdgeId>& out) const;

  /// Nodes of the source -> v shortest path, source first. Empty when v is
  /// unreachable (same contract as path_edges_to).
  std::vector<NodeId> path_nodes_to(NodeId v) const;

  /// True when v is settled already: knows(v) without growing the tree.
  /// The one read that never mutates a paused tree, so threads that share
  /// a tree may make it at once while nobody grows it (DESIGN.md §7).
  bool knows_now(NodeId v) const { return settled(v); }

  /// Allocates the search state for a graph of `node_count` nodes and a
  /// run toward up to `targets` targets, all but the heap's frontier
  /// (DijkstraArena::reserve). Pool work reserves its trees on the calling
  /// thread: memory a worker allocates stays in its own malloc arena and
  /// swells the peak RSS.
  void reserve(NodeId node_count, std::size_t targets);

  // ---- paused runs (PathOracle) ----

  /// True for a tree from dijkstra_within_paused: reads may grow it.
  bool paused() const { return graph_ != nullptr; }

  /// The budget growth charges, one unit per pop; nullptr charges nothing.
  /// PathOracle re-points its trees whenever its own budget changes.
  void charge_growth_to(WorkBudget* budget) { budget_ = budget; }

  /// Growth observability: the pops of the run that filled this tree, and
  /// the number of resumes (reads that had to grow it) and their pops.
  std::int64_t run_pops() const { return run_pops_; }
  std::int64_t resumes() const { return resumes_; }
  std::int64_t resume_pops() const { return resume_pops_; }

 private:
  friend void dijkstra(const Graph&, NodeId, ShortestPathTree&, WorkBudget*);
  friend void dijkstra_to(const Graph&, NodeId, NodeId, DistanceBound, ShortestPathTree&,
                          WorkBudget*);
  friend void dijkstra_within_paused(const Graph&, NodeId, std::span<const NodeId>,
                                     ShortestPathTree&, WorkBudget*, const DistanceBound*);

  /// Resets the tree and seeds a run from `source` toward `targets`. With a
  /// `bound`, at least one live target other than the source and no
  /// zero-weight edge the run is goal-directed, aimed at those targets.
  void start(const Graph& g, NodeId source, std::span<const NodeId> targets, WorkBudget* budget,
             const DistanceBound* bound);

  /// Runs the settle loop in the tree's mode; returns the number of pops.
  std::int64_t settle(NodeId probe, bool pause) const;

  /// The one settle loop (dijkstra.cpp), shared by first runs and growth.
  /// Pops until the heap drains, the budget runs out, `probe` settles, or —
  /// with `pause` — the last pending target settles. The goal-directed mode
  /// stops only once the run of pops at that node's key has drained.
  template <typename Bound>
  std::int64_t settle(const Graph& g, const Bound& h, NodeId probe, bool pause) const;

  /// Resumes a paused run until `probe` settles (kInvalidNode: until the
  /// heap drains). No-op on a sealed tree or when nothing is left to grow.
  void grow_to(NodeId probe) const {
    if (graph_ == nullptr || arena_.heap_empty()) return;
    if (probe != kInvalidNode && settled(probe)) return;
    resume(probe);
  }
  void resume(NodeId probe) const;

  /// A node is settled once it popped and, goal-directed, its tie run
  /// drained; a plain pop counts as drained at once.
  bool settled(NodeId v) const {
    return arena_.heap_empty() || arena_.settled_by_pop(v, drained_pops_);
  }

  /// Ends growth: the tree answers from what it has settled from now on.
  void seal() { graph_ = nullptr; }

  NodeId source_ = kInvalidNode;
  NodeId node_count_ = 0;
  int inactive_targets_ = 0;
  bool goal_directed_ = false;
  GoalBound goal_;                // the key's h, when goal-directed
  const Graph* graph_ = nullptr;  // non-null while paused
  std::uint64_t revision_ = 0;    // graph_->revision() when the run started
  WorkBudget* budget_ = nullptr;
  // Search state: a paused tree's reads advance it.
  mutable DijkstraArena arena_;
  mutable std::vector<NodeId> pending_;  // live targets of the first run
  mutable bool budget_aborted_ = false;
  // Pops so far, the pops of the drained tie runs (the settled ones; every
  // pop in the plain mode), and, goal-directed, the key of the latest pop.
  mutable std::int32_t popped_ = 0;
  mutable std::int32_t drained_pops_ = 0;
  mutable Weight tie_key_ = -1;
  std::int64_t run_pops_ = 0;
  mutable std::int64_t resumes_ = 0;
  mutable std::int64_t resume_pops_ = 0;
};

/// Runs Dijkstra over the usable part of g. O((V + E) log V).
///
/// The engine walks the graph's adjacency — the flat adjacency
/// (Graph::flat_adjacency()) of a materialized graph or of a tiled graph at
/// or below the size cut, or the tile template above it — reading weights
/// and activity from Graph::state_view(), into the tree's own arena with an
/// indexed 4-ary heap with decrease-key — see DESIGN.md §8. Output is
/// bit-identical to the historical binary-heap engine (kept in
/// graph/dijkstra_reference.hpp and pinned by
/// tests/graph/dijkstra_differential_test.cpp).
ShortestPathTree dijkstra(const Graph& g, NodeId source);

/// Reuse variant: runs into `out`, reusing its arena's memory (the router's
/// two-pin baseline and the microbench use this).
///
/// `budget` (optional) charges one unit per node expansion and stops the
/// run — marking the tree budget_aborted, with only the nodes expanded
/// before the stop known — once the budget is spent. A null budget
/// reproduces the historical engine bit-for-bit.
void dijkstra(const Graph& g, NodeId source, ShortestPathTree& out, WorkBudget* budget = nullptr);

/// Point-to-point shortest paths from `source` toward `target`: the
/// goal-directed settle loop with one goal, sealed once it pauses. It
/// labels the nodes that can lie on a shortest source-target path instead
/// of a whole Dijkstra ball: the target pops at d*, the run of pops at key
/// d* drains, so every node with f = d + bound(v, target) <= d* is
/// settled. Every settled node's dist, parent and parent_edge equal
/// dijkstra()'s bit for bit: ties are recovered to Dijkstra's rule (among
/// tight predecessors, the one Dijkstra settles first; within it the lowest
/// edge id), which needs a consistent bound — see DistanceBound and
/// DESIGN.md §8.
///
/// Queries outside the settled set must consult knows(). A run that drains
/// the component (unreachable or inactive target) is complete. `budget`
/// charges one unit per pop; on a budget stop at key F only the nodes
/// popped with f < F count as settled, so the result is deterministic for
/// a given budget. The tree is sealed: it never grows. PathOracle runs the
/// paused form (dijkstra_within_paused with a bound); this wrapper keeps
/// the one-target case pinned by its own differential suite. With
/// target == source, or on a graph with a zero-weight edge, the run is the
/// plain one and stops once the target pops.
void dijkstra_to(const Graph& g, NodeId source, NodeId target, DistanceBound bound,
                 ShortestPathTree& out, WorkBudget* budget = nullptr);

/// Scoped Dijkstra, paused: settles every reachable node in `targets` and
/// stops right after the last one settles. Reads then grow the tree on
/// demand, each until the node it reads settles (see ShortestPathTree), so
/// every answer is dijkstra()'s. Growth charges the budget last given to
/// charge_growth_to (initially `budget`), and both that budget and `g` must
/// outlive every read that can grow the tree. Growth also requires the
/// graph unchanged: growing after g.revision() moved is an FPR_CHECK
/// failure. PathOracle's scoped trees are paused runs.
///
/// On large FPGA routing graphs this prices a local net at the cost of the
/// nodes its queries read instead of the whole device. Deactivated targets
/// are skipped (counted in inactive_targets()) rather than left pending
/// forever; if every target is inactive the run never pauses, like
/// dijkstra().
///
/// With a non-null `bound` the run is goal-directed: keyed on f = d + h,
/// where h(v) is the minimum of the bound over the live targets other than
/// the source (GoalBound), it pops the nodes that lie toward the targets
/// instead of a Dijkstra ball around the source. It pauses once the last
/// target pops and the run of pops at that key has drained; a read resumes
/// the same keyed loop until the node read pops, then drains that node's
/// tie run. Reads still answer exactly as dijkstra() does. With no live
/// target other than the source, or on a graph with a zero-weight edge
/// (Graph::has_zero_weight_edge), the run is the plain one. The bound must be
/// consistent toward every target, and the object it refers to must
/// outlive every read that can grow the tree (the tree keeps a copy of the
/// DistanceBound itself).
void dijkstra_within_paused(const Graph& g, NodeId source, std::span<const NodeId> targets,
                            ShortestPathTree& out, WorkBudget* budget = nullptr,
                            const DistanceBound* bound = nullptr);

}  // namespace fpr
