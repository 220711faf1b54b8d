#include "graph/dijkstra.hpp"

#include <algorithm>

#include "core/contract.hpp"

namespace fpr {

std::vector<EdgeId> ShortestPathTree::path_edges_to(NodeId v) const {
  if (!reached(v)) return {};  // unreachable: empty path, never an invalid walk
  // reached() grew the tree to v; every node on v's parent chain settled
  // before v's label was written, so the walk reads the arena directly.
  std::vector<EdgeId> edges;
  while (v != source_) {
    edges.push_back(arena_.parent_edge(v));
    v = arena_.parent(v);
  }
  std::reverse(edges.begin(), edges.end());
  return edges;
}

std::vector<NodeId> ShortestPathTree::path_nodes_to(NodeId v) const {
  if (!reached(v)) return {};
  std::vector<NodeId> nodes{v};
  while (v != source_) {
    v = arena_.parent(v);
    nodes.push_back(v);
  }
  std::reverse(nodes.begin(), nodes.end());
  return nodes;
}

namespace {

/// The plain engine's bound: h == 0, so every key is the label itself and
/// the goal-directed branches below compile away — the zero bound is
/// today's Dijkstra loop.
struct ZeroBound {
  static constexpr bool kGoalDirected = false;
  Weight operator()(NodeId /*v*/) const { return 0; }
};

/// The goal-directed mode's bound: the tree's GoalBound.
struct GoalKey {
  static constexpr bool kGoalDirected = true;
  const GoalBound& goal;
  Weight operator()(NodeId v) const { return goal(v); }
};

}  // namespace

void ShortestPathTree::start(const Graph& g, NodeId source, std::span<const NodeId> targets,
                             WorkBudget* budget, const DistanceBound* bound) {
  source_ = source;
  node_count_ = g.node_count();
  inactive_targets_ = 0;
  goal_directed_ = false;
  graph_ = &g;
  revision_ = g.revision();
  budget_ = budget;
  pending_.clear();
  budget_aborted_ = false;
  popped_ = 0;
  drained_pops_ = 0;
  tie_key_ = -1;
  run_pops_ = 0;
  resumes_ = 0;
  resume_pops_ = 0;
  arena_.begin_run(node_count_);
  // An inactive source touches nothing: the heap starts empty, so the tree
  // is complete and all-infinite (the target scan is skipped, leaving
  // inactive_targets at 0, as the historical engine did).
  if (!g.node_active(source)) return;

  DijkstraScratch& scratch = DijkstraScratch::thread_local_instance();
  scratch.begin(node_count_);
  for (const NodeId v : targets) {
    if (!g.node_active(v)) {
      // A removed target can never be settled; counting it would keep the
      // pending set non-empty forever, so the run would never pause and
      // every scoped run would silently degrade to a full-graph Dijkstra.
      ++inactive_targets_;
      continue;
    }
    if (v != source && !scratch.pending(v)) {
      scratch.mark_pending(v);
      pending_.push_back(v);
    }
  }
  // With every target inactive (or coincident with the source) there is no
  // settle event to pause at and nothing to aim at: the run is explicitly
  // unbounded, exactly like a plain dijkstra() call.
  if (bound != nullptr && !pending_.empty()) {
    goal_directed_ = true;
    goal_.aim(*bound, pending_);
  }
  arena_.relax(source, 0, goal_directed_ ? goal_(source) : 0, kInvalidNode, kInvalidEdge);
}

std::int64_t ShortestPathTree::settle(NodeId probe, bool pause) const {
  return goal_directed_ ? settle(*graph_, GoalKey{goal_}, probe, pause)
                        : settle(*graph_, ZeroBound{}, probe, pause);
}

/// The settle loop, generic over the bound and the adjacency backend.
///
/// Determinism contract (pinned by dijkstra_differential_test): settle
/// order is the successive minimum of (tentative distance, node id), and
/// within a settled node edges relax in ascending edge id (flat slice order
/// == incident-list order == tiled slot order), so dist/parent/parent_edge
/// are bit-identical to the historical engine. A paused run resumes this
/// same loop on the same heap, so where it pauses cannot change what it
/// settles.
///
/// With a GoalKey the same loop is the goal-directed mode: the heap key is
/// f = d + h(v), and pops come in (f, id) order, so a node's first tight
/// relaxer need not be Dijkstra's. Dijkstra's parent of v is the tight
/// predecessor u (d(u) + w(e) == d(v)) it settles first — the source, then
/// ascending (d, id) — via u's lowest tight edge. Every tight relaxation
/// offers its u, and an offer replaces the parent iff Dijkstra would settle
/// u before both the current parent and v. With a consistent bound keys pop
/// in non-decreasing order and f(u) <= f(v) for every tight predecessor, so
/// once every pop at v's key has been made (the tie run has drained), all
/// of them have offered: a node counts as settled only from then on. A stop
/// at a target or a probe therefore drains its tie run first, and a budget
/// stop leaves the trailing run unsettled until a later call drains it.
///
/// Returns the number of pops.
template <typename Bound>
std::int64_t ShortestPathTree::settle(const Graph& g, const Bound& h, NodeId probe,
                                      bool pause) const {
  constexpr bool kGoal = Bound::kGoalDirected;
  DijkstraArena& arena = arena_;
  DijkstraScratch& scratch = DijkstraScratch::thread_local_instance();
  scratch.begin(node_count_);
  for (const NodeId v : pending_) scratch.mark_pending(v);
  auto pending_count = static_cast<std::int64_t>(pending_.size());
  budget_aborted_ = false;
  std::int64_t pops = 0;
  // Goal-directed only, in locals so stores to the label arrays cannot
  // force reloads: the pop counter, the pops of the drained tie runs, the
  // key of the latest pop, and the key whose tie run ends the call.
  std::int32_t popped = popped_;
  std::int32_t drained = drained_pops_;
  Weight tie_key = tie_key_;
  Weight limit = kInfiniteWeight;
  // A probe popped in the tie run a budget stop left undrained settles
  // once that run drains.
  if (kGoal && probe != kInvalidNode && arena.popped(probe)) limit = tie_key;
  // Settle loop, generic over the adjacency backend. Both backends relax a
  // settled node's edges in ascending edge-id order, so the two produce
  // bit-identical trees.
  const auto run = [&](auto&& relax_neighbors) {
    while (!arena.heap_empty()) {
      const NodeId u = arena.heap_min();
      const Weight key = arena.heap_min_key();
      if constexpr (kGoal) {
        if (key != tie_key) {
          // Keys pop in non-decreasing order, so the run at tie_key has
          // drained: every node it popped is settled.
          drained = popped;
          if (key > limit) break;
          tie_key = key;
        }
      }
      if (budget_ != nullptr && !budget_->charge()) {
        // Budget spent: u is NOT settled (its label may still be tentative).
        // (key, u) stays the heap minimum, so the settled set is exactly
        // the nodes expanded before the stop — deterministic for a given
        // budget regardless of platform or thread count. In the
        // goal-directed mode the nodes popped at f == key stay unsettled:
        // their tie run has not drained.
        budget_aborted_ = true;
        break;
      }
      arena.heap_pop_min();
      ++pops;
      // The popped label: the key itself for plain Dijkstra; the stored
      // label for the goal-directed mode, whose key is f = d + h.
      Weight d = key;
      if constexpr (kGoal) {
        arena.mark_popped(u, popped++);
        d = arena.dist(u);
      }
      bool stop = u == probe;
      if (pending_count > 0 && scratch.pending(u)) {
        scratch.clear_pending(u);
        if (--pending_count == 0 && pause) stop = true;
      }
      relax_neighbors(u, d);
      if (stop) {
        if constexpr (!kGoal) break;
        limit = key;  // drain u's tie run, then stop
      }
    }
  };
  // Usability is an explicit activity test (the settled node u is active,
  // so the edge and its far end decide), and the weight is read per edge.
  const Graph::StateView sv = g.state_view();
  const auto relax_slot = [&](NodeId u, Weight d, NodeId v, EdgeId e) {
    if (sv.edge_active[static_cast<std::size_t>(e)] == 0 ||
        sv.node_active[static_cast<std::size_t>(v)] == 0) {
      return;
    }
    const Weight nd = d + sv.weight[static_cast<std::size_t>(e)];
    const Weight dv = arena.dist(v);
    if (nd < dv) {
      arena.relax(v, nd, kGoal ? nd + h(v) : nd, u, e);
    } else if constexpr (kGoal) {
      // A tight offer. Dijkstra settles the source first, then by
      // ascending (dist, id); d <= dv, so u comes before v unless v is the
      // source or a zero-weight edge ties them with u's id higher. The
      // tests are combined without branches: which way they go is hard
      // to predict.
      if (nd != dv || v == source_) return;
      const NodeId p = arena.parent(v);
      const Weight dp = arena.dist(p);
      const bool before_v = (d < dv) | (u < v) | (u == source_);
      const bool before_p = (p != source_) & ((u == source_) | (d < dp) | ((d == dp) & (u < p)));
      if (before_v & before_p) arena.set_origin(v, u, e);
    }
  };
  if (sv.flat != nullptr) {
    // Materialized graphs and tiled graphs below the size cut: walk the
    // flat slices.
    const EdgeId* offsets = sv.flat->offsets.data();
    const NodeId* neighbor = sv.flat->neighbor.data();
    const EdgeId* edge_id = sv.flat->edge_id.data();
    run([&](NodeId u, Weight d) {
      const EdgeId begin = offsets[static_cast<std::size_t>(u)];
      const EdgeId end = offsets[static_cast<std::size_t>(u) + 1];
      for (EdgeId k = begin; k < end; ++k) {
        relax_slot(u, d, neighbor[static_cast<std::size_t>(k)],
                   edge_id[static_cast<std::size_t>(k)]);
      }
    });
  } else {
    // Tiled graphs above the cut: synthesize each settled node's slots from
    // the template, which is most of the large-array memory win.
    run([&](NodeId u, Weight d) {
      sv.topo->for_each_slot(u,
                             [&](NodeId v, EdgeId e, const TiledSlot&) { relax_slot(u, d, v, e); });
    });
  }
  if constexpr (kGoal) {
    popped_ = popped;
    drained_pops_ = drained;
    tie_key_ = tie_key;
  }
  // Only the first run pauses at the targets; growth runs to its probe.
  pending_.clear();
  return pops;
}

void ShortestPathTree::resume(NodeId probe) const {
  FPR_CHECK(graph_->revision() == revision_,
            "paused shortest-path tree from node " << source_ << " grown after its graph changed"
                                                   << " (revision " << revision_ << " -> "
                                                   << graph_->revision() << ")");
  if (budget_ != nullptr && budget_->exhausted()) {
    budget_aborted_ = true;
    return;
  }
  ++resumes_;
  resume_pops_ += settle(probe, false);
}

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  ShortestPathTree t;
  dijkstra(g, source, t);
  return t;
}

void dijkstra(const Graph& g, NodeId source, ShortestPathTree& out, WorkBudget* budget) {
  out.start(g, source, {}, budget, nullptr);
  out.run_pops_ = out.settle(kInvalidNode, false);
  out.seal();
}

void dijkstra_within_paused(const Graph& g, NodeId source, std::span<const NodeId> targets,
                            ShortestPathTree& out, WorkBudget* budget,
                            const DistanceBound* bound) {
  out.start(g, source, targets, budget, bound);
  out.run_pops_ = out.settle(kInvalidNode, true);
}

void dijkstra_to(const Graph& g, NodeId source, NodeId target, DistanceBound bound,
                 ShortestPathTree& out, WorkBudget* budget) {
  const NodeId goal[] = {target};
  out.start(g, source, goal, budget, &bound);
  // The target as the probe as well: with target == source the run is the
  // plain one, and it stops once the source pops.
  out.run_pops_ = out.settle(target, true);
  out.seal();
}

}  // namespace fpr
