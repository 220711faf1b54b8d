#include "graph/dijkstra.hpp"

#include <algorithm>

#include "graph/dijkstra_arena.hpp"

namespace fpr {

std::vector<EdgeId> ShortestPathTree::path_edges_to(NodeId v) const {
  if (!reached(v)) return {};  // unreachable: empty path, never an invalid walk
  std::vector<EdgeId> edges;
  while (v != source) {
    const auto e = parent_edge[static_cast<std::size_t>(v)];
    edges.push_back(e);
    v = parent[static_cast<std::size_t>(v)];
  }
  std::reverse(edges.begin(), edges.end());
  return edges;
}

std::vector<NodeId> ShortestPathTree::path_nodes_to(NodeId v) const {
  if (!reached(v)) return {};
  std::vector<NodeId> nodes{v};
  while (v != source) {
    v = parent[static_cast<std::size_t>(v)];
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

/// How a run ended, for export_tree.
struct StopPoint {
  bool early = false;            // stopped before draining the heap
  Weight key = 0;                // heap minimum (key, node) at the stop
  NodeId node = kInvalidNode;
  std::size_t settled_pops = 0;  // point-to-point: final prefix of the settle log
};

/// Copies the arena's epoch-valid labels into the caller-visible tree.
/// resize() keeps existing capacity, so reusing one tree object across runs
/// allocates nothing once it has seen the largest graph.
///
/// On a plain run stopped early the settled set is derived rather than
/// tracked: nodes settle in strictly increasing (dist, node id) order, and
/// when the search breaks, (stop.key, stop.node) is the minimum entry still
/// in the heap — so a touched node is settled iff its label is
/// lexicographically below that entry. This keeps per-node "done"
/// bookkeeping out of the hot loop entirely. The point-to-point mode keys by
/// f = d + h instead, which breaks that derivation, so it marks the prefix
/// of its settle log that is final.
template <bool kGoalDirected>
void export_tree(const DijkstraArena& arena, NodeId node_count, const StopPoint& stop,
                 ShortestPathTree& out) {
  arena.export_labels(node_count, out.dist, out.parent, out.parent_edge);
  if (!stop.early) {
    out.settled.clear();
    return;
  }
  out.settled.resize(static_cast<std::size_t>(node_count));
  if constexpr (kGoalDirected) {
    std::fill(out.settled.begin(), out.settled.end(), char{0});
    const std::vector<NodeId>& log = arena.settle_log();
    for (std::size_t i = 0; i < stop.settled_pops; ++i) {
      out.settled[static_cast<std::size_t>(log[i])] = 1;
    }
  } else {
    for (NodeId v = 0; v < node_count; ++v) {
      const Weight dv = out.dist[static_cast<std::size_t>(v)];
      out.settled[static_cast<std::size_t>(v)] =
          static_cast<char>(dv < stop.key || (dv == stop.key && v < stop.node));
    }
  }
}

/// Shared core: Dijkstra over the graph's adjacency backend with this thread's
/// arena, optionally stopping once all `targets` are settled and the
/// frontier has moved past the derived radius.
///
/// Determinism contract (pinned by dijkstra_differential_test): settle
/// order is the successive minimum of (tentative distance, node id), and
/// within a settled node edges relax in ascending edge id (flat slice order
/// == incident-list order == tiled slot order), so dist/parent/parent_edge
/// are bit-identical to the historical engine.
/// One deliberate divergence: when the search exhausts the component, the
/// result is always marked complete, where the old engine could still
/// report stopped-early if a superseded heap entry above the limit survived
/// to the top (see dijkstra_reference.hpp).
///
/// With a GoalBound the same loop is the point-to-point mode (dijkstra_to):
/// the heap key is f = d + h(v), `targets` holds just the goal, and the
/// limit becomes d* once the goal settles. Settle order is then (f, id), so
/// a node's first tight relaxer need not be Dijkstra's. Dijkstra's parent
/// of v is the tight predecessor u (d(u) + w(e) == d(v)) it settles first —
/// the source, then ascending (d, id) — via u's lowest tight edge. Every
/// tight relaxation offers its u, and an offer replaces the parent iff
/// Dijkstra would settle u before both the current parent and v. With a
/// consistent bound f(u) <= f(v) for every tight predecessor, so all of
/// them are popped, and have offered, before any node with f <= d* (or
/// f below a budget stop's key) is exported as settled.
template <typename Bound>
void dijkstra_impl(const Graph& g, NodeId source, std::span<const NodeId> targets,
                   double radius_factor, Weight slack, ShortestPathTree& out,
                   WorkBudget* budget, const Bound& h) {
  constexpr bool kGoal = Bound::kGoalDirected;
  const NodeId node_count = g.node_count();
  out.source = source;
  out.inactive_targets = 0;
  out.budget_aborted = false;
  DijkstraArena& arena = DijkstraArena::thread_local_instance();
  arena.begin_run(node_count);
  if (!g.node_active(source)) {
    // Everything untouched: exports as all-infinite, like the old engine
    // (which also skipped the target scan, leaving inactive_targets at 0).
    export_tree<kGoal>(arena, node_count, StopPoint{}, out);
    return;
  }
  if (budget != nullptr && budget->exhausted()) {
    // A request whose budget is already spent performs no expansions at
    // all: every label stays infinite and nothing is settled (stop point
    // (0, kInvalidNode) marks no label as final — no distance of 0 exists
    // because even the source was never relaxed).
    out.budget_aborted = true;
    export_tree<kGoal>(arena, node_count, StopPoint{true, 0, kInvalidNode, 0}, out);
    return;
  }

  NodeId pending_count = 0;
  for (const NodeId v : targets) {
    if (!g.node_active(v)) {
      // A removed target can never be settled; counting it would keep
      // pending_count above zero forever, the radius limit infinite, and
      // silently degrade every scoped run to a full-graph Dijkstra.
      ++out.inactive_targets;
      continue;
    }
    // The point-to-point goal may be the source itself: it settles first
    // and bounds the run at d* = 0.
    if ((kGoal || v != source) && !arena.pending(v)) {
      arena.mark_pending(v);
      ++pending_count;
    }
  }
  // With every target inactive (or coincident with the source) there is no
  // settle event to derive a radius from: run explicitly unbounded, exactly
  // like a plain dijkstra() call.

  arena.relax(source, 0, h(source), kInvalidNode, kInvalidEdge);

  Weight limit = kInfiniteWeight;  // becomes finite once all targets settle
  StopPoint stop;
  // Point-to-point only: the key of the latest pops and the settle-log
  // index where that run began (a budget stop drops the run).
  std::size_t tie_run_begin = 0;
  Weight tie_run_key = -1;
  // Settle loop, generic over the adjacency backend. Both backends relax a
  // settled node's edges in ascending edge-id order, so the two produce
  // bit-identical trees.
  const auto run = [&](auto&& relax_neighbors) {
    while (!arena.heap_empty()) {
      const NodeId u = arena.heap_min();
      const Weight key = arena.heap_min_key();
      if (key > limit) {
        stop = {true, key, u, arena.settle_log().size()};
        break;
      }
      if (budget != nullptr && !budget->charge()) {
        // Budget spent: u is NOT settled (its label may still be tentative).
        // (key, u) is the heap minimum, so the derived settled set is
        // exactly the nodes expanded before the abort — deterministic for a
        // given budget regardless of platform or thread count. In the
        // point-to-point mode a node popped at f == key may still lack a
        // tight predecessor with the same f, so that last run is dropped.
        out.budget_aborted = true;
        stop = {true, key, u,
                tie_run_key == key ? tie_run_begin : arena.settle_log().size()};
        break;
      }
      arena.heap_pop_min();
      if constexpr (kGoal) {
        if (key != tie_run_key) {
          tie_run_key = key;
          tie_run_begin = arena.settle_log().size();
        }
        arena.log_settle(u);
      }
      // The popped label: the key itself for plain Dijkstra; the stored
      // label for the point-to-point mode, whose key is f = d + h.
      const Weight d = kGoal ? arena.dist(u) : key;
      if (pending_count > 0 && arena.pending(u)) {
        arena.clear_pending(u);
        if (--pending_count == 0) {
          limit = radius_factor * d + slack;
        }
      }
      relax_neighbors(u, d);
    }
  };
  // Usability is an explicit activity test (the settled node u is active,
  // so the edge and its far end decide), and the weight is read per edge.
  const Graph::StateView sv = g.state_view();
  // Dijkstra settles the source first, then by ascending (dist, id).
  const auto settles_before = [&](NodeId a, NodeId b) {
    if (b == source) return false;
    if (a == source) return true;
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
  export_tree<kGoal>(arena, node_count, stop, out);
}

}  // namespace

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  ShortestPathTree t;
  dijkstra_impl(g, source, {}, 0, 0, t, nullptr, ZeroBound{});
  return t;
}

void dijkstra(const Graph& g, NodeId source, ShortestPathTree& out, WorkBudget* budget) {
  dijkstra_impl(g, source, {}, 0, 0, out, budget, ZeroBound{});
}

ShortestPathTree dijkstra_within(const Graph& g, NodeId source, std::span<const NodeId> targets,
                                 double radius_factor, Weight slack) {
  ShortestPathTree t;
  dijkstra_impl(g, source, targets, radius_factor, slack, t, nullptr, ZeroBound{});
  return t;
}

void dijkstra_within(const Graph& g, NodeId source, std::span<const NodeId> targets,
                     ShortestPathTree& out, double radius_factor, Weight slack,
                     WorkBudget* budget) {
  dijkstra_impl(g, source, targets, radius_factor, slack, out, budget, ZeroBound{});
}

void dijkstra_to(const Graph& g, NodeId source, NodeId target, DistanceBound bound,
                 ShortestPathTree& out, WorkBudget* budget) {
  // The limit is 1.0 * d* + 0 == d* exactly.
  const NodeId goal[] = {target};
  dijkstra_impl(g, source, goal, 1.0, 0, out, budget, GoalBound{bound, target});
}

}  // namespace fpr
