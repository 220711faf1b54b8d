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

/// Copies the arena's epoch-valid labels into the caller-visible tree.
/// resize() keeps existing capacity, so reusing one tree object across runs
/// allocates nothing once it has seen the largest graph.
///
/// On a stopped-early run the settled set is derived rather than tracked:
/// nodes settle in strictly increasing (dist, node id) order, and when the
/// search breaks, (stop_d, stop_node) is the minimum entry still in the
/// heap — so a touched node is settled iff its label is lexicographically
/// below that entry. This keeps per-node "done" bookkeeping out of the hot
/// loop entirely.
void export_tree(const DijkstraArena& arena, NodeId node_count, bool stopped_early,
                 Weight stop_d, NodeId stop_node, ShortestPathTree& out) {
  arena.export_labels(node_count, out.dist, out.parent, out.parent_edge);
  if (stopped_early) {
    out.settled.resize(static_cast<std::size_t>(node_count));
    for (NodeId v = 0; v < node_count; ++v) {
      const Weight dv = out.dist[static_cast<std::size_t>(v)];
      out.settled[static_cast<std::size_t>(v)] =
          static_cast<char>(dv < stop_d || (dv == stop_d && v < stop_node));
    }
  } else {
    out.settled.clear();
  }
}

/// Shared core: Dijkstra over the graph's adjacency backend with this thread's
/// arena, optionally stopping once all `targets` are settled and the
/// frontier has moved past the derived radius.
///
/// Determinism contract (pinned by dijkstra_differential_test): settle
/// order is the successive minimum of (tentative distance, node id), and
/// within a settled node edges relax in CSR order == incident-list order,
/// so dist/parent/parent_edge are bit-identical to the historical engine.
/// One deliberate divergence: when the search exhausts the component, the
/// result is always marked complete, where the old engine could still
/// report stopped-early if a superseded heap entry above the limit survived
/// to the top (see dijkstra_reference.hpp).
void dijkstra_impl(const Graph& g, NodeId source, std::span<const NodeId> targets,
                   double radius_factor, Weight slack, ShortestPathTree& out,
                   WorkBudget* budget) {
  const NodeId node_count = g.node_count();
  out.source = source;
  out.inactive_targets = 0;
  out.budget_aborted = false;
  DijkstraArena& arena = DijkstraArena::thread_local_instance();
  arena.begin_run(node_count);
  if (!g.node_active(source)) {
    // Everything untouched: exports as all-infinite, like the old engine
    // (which also skipped the target scan, leaving inactive_targets at 0).
    export_tree(arena, node_count, false, 0, kInvalidNode, out);
    return;
  }
  if (budget != nullptr && budget->exhausted()) {
    // A request whose budget is already spent performs no expansions at
    // all: every label stays infinite and nothing is settled (stop point
    // (0, kInvalidNode) marks no label as final — no distance of 0 exists
    // because even the source was never relaxed).
    out.budget_aborted = true;
    export_tree(arena, node_count, true, 0, kInvalidNode, out);
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
    if (v != source && !arena.pending(v)) {
      arena.mark_pending(v);
      ++pending_count;
    }
  }
  // With every target inactive (or coincident with the source) there is no
  // settle event to derive a radius from: run explicitly unbounded, exactly
  // like a plain dijkstra() call.

  arena.relax(source, 0, kInvalidNode, kInvalidEdge);

  Weight limit = kInfiniteWeight;  // becomes finite once all targets settle
  bool stopped_early = false;
  Weight stop_d = 0;
  NodeId stop_node = kInvalidNode;
  // Settle loop, generic over the adjacency backend. Both backends relax a
  // settled node's edges in ascending edge-id order (CSR slice order ==
  // incident-list order == tiled slot order), so the two produce
  // bit-identical trees.
  const auto run = [&](auto&& relax_neighbors) {
    while (!arena.heap_empty()) {
      const NodeId u = arena.heap_min();
      const Weight d = arena.heap_min_key();
      if (d > limit) {
        stopped_early = true;
        stop_d = d;
        stop_node = u;
        break;
      }
      if (budget != nullptr && !budget->charge()) {
        // Budget spent: u is NOT settled (its label may still be tentative).
        // (d, u) is the heap minimum, so the derived settled set is exactly
        // the nodes expanded before the abort — deterministic for a given
        // budget regardless of platform or thread count.
        stopped_early = true;
        out.budget_aborted = true;
        stop_d = d;
        stop_node = u;
        break;
      }
      arena.heap_pop_min();
      if (pending_count > 0 && arena.pending(u)) {
        arena.clear_pending(u);
        if (--pending_count == 0) {
          limit = radius_factor * d + slack;
        }
      }
      relax_neighbors(u, d);
    }
  };
  if (g.tiled()) {
    // Tiled backends: no CSR snapshot and no per-slot weight stream, so
    // usability is an explicit activity test here (the materialized path
    // folds it into an infinite weight) and the weight is read per edge.
    const Graph::TiledView tv = g.tiled_view();
    const auto relax_slot = [&](NodeId u, Weight d, NodeId v, EdgeId e) {
      if (tv.edge_active[static_cast<std::size_t>(e)] == 0 ||
          tv.node_active[static_cast<std::size_t>(v)] == 0) {
        return;
      }
      const Weight nd = d + tv.weight[static_cast<std::size_t>(e)];
      if (nd < arena.dist(v)) {
        arena.relax(v, nd, u, e);
      }
    };
    if (tv.flat != nullptr) {
      // Below the size cut: walk the stamped flat slices (slot order).
      const EdgeId* offsets = tv.flat->offsets.data();
      const NodeId* neighbor = tv.flat->neighbor.data();
      const EdgeId* edge_id = tv.flat->edge_id.data();
      run([&](NodeId u, Weight d) {
        const EdgeId begin = offsets[static_cast<std::size_t>(u)];
        const EdgeId end = offsets[static_cast<std::size_t>(u) + 1];
        for (EdgeId k = begin; k < end; ++k) {
          relax_slot(u, d, neighbor[static_cast<std::size_t>(k)],
                     edge_id[static_cast<std::size_t>(k)]);
        }
      });
    } else {
      // Above it: synthesize each settled node's slots from the template,
      // which is most of the large-array memory win.
      const TiledTopology* topo = tv.topo;
      run([&](NodeId u, Weight d) {
        topo->for_each_slot(u,
                            [&](NodeId v, EdgeId e, const TiledSlot&) { relax_slot(u, d, v, e); });
      });
    }
  } else {
    const CsrAdjacency& csr = g.csr();
    const EdgeId* offsets = csr.offsets.data();
    const NodeId* neighbor = csr.neighbor.data();
    const EdgeId* edge_id = csr.edge_id.data();
    const Weight* weight = csr.weight.data();
    run([&](NodeId u, Weight d) {
      const EdgeId begin = offsets[static_cast<std::size_t>(u)];
      const EdgeId end = offsets[static_cast<std::size_t>(u) + 1];
      for (EdgeId k = begin; k < end; ++k) {
        const NodeId v = neighbor[static_cast<std::size_t>(k)];
        // Unusable edges carry kInfiniteWeight here, so they can never pass
        // the strict-improvement test — no explicit usability branch needed.
        const Weight nd = d + weight[static_cast<std::size_t>(k)];
        if (nd < arena.dist(v)) {
          arena.relax(v, nd, u, edge_id[static_cast<std::size_t>(k)]);
        }
      }
    });
  }
  export_tree(arena, node_count, stopped_early, stop_d, stop_node, out);
}

}  // namespace

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  ShortestPathTree t;
  dijkstra_impl(g, source, {}, 0, 0, t, nullptr);
  return t;
}

void dijkstra(const Graph& g, NodeId source, ShortestPathTree& out, WorkBudget* budget) {
  dijkstra_impl(g, source, {}, 0, 0, out, budget);
}

ShortestPathTree dijkstra_within(const Graph& g, NodeId source, std::span<const NodeId> targets,
                                 double radius_factor, Weight slack) {
  ShortestPathTree t;
  dijkstra_impl(g, source, targets, radius_factor, slack, t, nullptr);
  return t;
}

void dijkstra_within(const Graph& g, NodeId source, std::span<const NodeId> targets,
                     ShortestPathTree& out, double radius_factor, Weight slack,
                     WorkBudget* budget) {
  dijkstra_impl(g, source, targets, radius_factor, slack, out, budget);
}

}  // namespace fpr
