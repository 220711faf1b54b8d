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

/// The point-to-point mode's bound: a DistanceBound aimed at one target.
struct GoalBound {
  static constexpr bool kGoalDirected = true;
  DistanceBound bound;
  NodeId target;
  Weight operator()(NodeId v) const { return bound(v, target); }
};

}  // namespace

void ShortestPathTree::start(const Graph& g, NodeId source, std::span<const NodeId> targets,
                             WorkBudget* budget, bool goal_directed, Weight source_key) {
  source_ = source;
  node_count_ = g.node_count();
  inactive_targets_ = 0;
  goal_directed_ = goal_directed;
  graph_ = &g;
  revision_ = g.revision();
  budget_ = budget;
  pending_.clear();
  budget_aborted_ = false;
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
    // The point-to-point goal may be the source itself: it settles first
    // and bounds the run at d* = 0.
    if ((goal_directed || v != source) && !scratch.pending(v)) {
      scratch.mark_pending(v);
      pending_.push_back(v);
    }
  }
  // With every target inactive (or coincident with the source) there is no
  // settle event to pause at: the run is explicitly unbounded, exactly like
  // a plain dijkstra() call.
  arena_.relax(source, 0, source_key, kInvalidNode, kInvalidEdge);
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
/// With a GoalBound the same loop is the point-to-point mode (dijkstra_to):
/// the heap key is f = d + h(v), the pending set holds just the goal, and
/// the limit becomes d* once the goal settles. Settle order is then (f, id),
/// so a node's first tight relaxer need not be Dijkstra's. Dijkstra's
/// parent of v is the tight predecessor u (d(u) + w(e) == d(v)) it settles
/// first — the source, then ascending (d, id) — via u's lowest tight edge.
/// Every tight relaxation offers its u, and an offer replaces the parent
/// iff Dijkstra would settle u before both the current parent and v. With a
/// consistent bound f(u) <= f(v) for every tight predecessor, so all of
/// them are popped, and have offered, before any node with f <= d* (or f
/// below a budget stop's key) is marked settled.
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
  Weight limit = kInfiniteWeight;  // d* once the point-to-point goal settles
  budget_aborted_ = false;
  std::int64_t pops = 0;
  // Point-to-point only: the key of the latest pops and the pop-log index
  // where that run of equal keys began (a budget stop drops the run).
  std::size_t tie_run_begin = 0;
  Weight tie_run_key = -1;
  // Settle loop, generic over the adjacency backend. Both backends relax a
  // settled node's edges in ascending edge-id order, so the two produce
  // bit-identical trees.
  const auto run = [&](auto&& relax_neighbors) {
    while (!arena.heap_empty()) {
      const NodeId u = arena.heap_min();
      const Weight key = arena.heap_min_key();
      if (key > limit) break;
      if (budget_ != nullptr && !budget_->charge()) {
        // Budget spent: u is NOT settled (its label may still be tentative).
        // (key, u) stays the heap minimum, so the settled set is exactly
        // the nodes expanded before the stop — deterministic for a given
        // budget regardless of platform or thread count. In the
        // point-to-point mode a node popped at f == key may still lack a
        // tight predecessor with the same f, so that last run is dropped.
        budget_aborted_ = true;
        if constexpr (kGoal) {
          if (tie_run_key == key) {
            const std::vector<NodeId>& log = scratch.settle_log();
            for (std::size_t i = tie_run_begin; i < log.size(); ++i) arena.mark_unsettled(log[i]);
          }
        }
        break;
      }
      arena.heap_pop_min();
      ++pops;
      if constexpr (kGoal) {
        if (key != tie_run_key) {
          tie_run_key = key;
          tie_run_begin = scratch.settle_log().size();
        }
        scratch.log_settle(u);
        arena.mark_settled(u);
      }
      // The popped label: the key itself for plain Dijkstra; the stored
      // label for the point-to-point mode, whose key is f = d + h.
      const Weight d = kGoal ? arena.dist(u) : key;
      bool last_target = false;
      if (pending_count > 0 && scratch.pending(u)) {
        scratch.clear_pending(u);
        if (--pending_count == 0) {
          if constexpr (kGoal) limit = d;
          last_target = true;
        }
      }
      relax_neighbors(u, d);
      if (u == probe || (pause && last_target)) break;
    }
  };
  // Usability is an explicit activity test (the settled node u is active,
  // so the edge and its far end decide), and the weight is read per edge.
  const Graph::StateView sv = g.state_view();
  // Dijkstra settles the source first, then by ascending (dist, id).
  const auto settles_before = [&](NodeId a, NodeId b) {
    if (b == source_) return false;
    if (a == source_) return true;
    const Weight da = arena.dist(a);
    const Weight db = arena.dist(b);
    return da < db || (da == db && a < b);
  };
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
      if (nd == dv && settles_before(u, v) && settles_before(u, arena.parent(v))) {
        arena.set_origin(v, u, e);
      }
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
  resume_pops_ += settle(*graph_, ZeroBound{}, probe, false);
}

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  ShortestPathTree t;
  dijkstra(g, source, t);
  return t;
}

void dijkstra(const Graph& g, NodeId source, ShortestPathTree& out, WorkBudget* budget) {
  out.start(g, source, {}, budget, false, 0);
  out.run_pops_ = out.settle(g, ZeroBound{}, kInvalidNode, false);
  out.seal();
}

void dijkstra_within_paused(const Graph& g, NodeId source, std::span<const NodeId> targets,
                            ShortestPathTree& out, WorkBudget* budget) {
  out.start(g, source, targets, budget, false, 0);
  out.run_pops_ = out.settle(g, ZeroBound{}, kInvalidNode, true);
}

void dijkstra_to(const Graph& g, NodeId source, NodeId target, DistanceBound bound,
                 ShortestPathTree& out, WorkBudget* budget) {
  const GoalBound h{bound, target};
  const NodeId goal[] = {target};
  out.start(g, source, goal, budget, true, h(source));
  out.run_pops_ = out.settle(g, h, kInvalidNode, false);
  out.seal();
}

}  // namespace fpr
