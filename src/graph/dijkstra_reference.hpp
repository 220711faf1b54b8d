#pragma once

#include <algorithm>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

/// The pre-CSR Dijkstra engine, frozen verbatim: per-call vector
/// initialization, lazy-deletion binary priority_queue of (dist, node)
/// pairs, incident-list adjacency.
///
/// NOT used by production code. It exists so that
///  - the differential test (tests/graph/dijkstra_differential_test.cpp)
///    can assert the CSR/arena engine produces bit-identical
///    dist/parent/parent_edge forests, and
///  - bench/micro_dijkstra can report the speedup of the current engine
///    over this baseline into the BENCH_dijkstra.json perf trajectory.
///
/// It fills its own label-array tree type (fpr::reference::Tree) rather
/// than ShortestPathTree, whose labels live in the search state and are
/// read through growing accessors.
///
/// Known quirk, preserved on purpose: when a radius-bounded run exhausts
/// the whole component, this engine may still report it as stopped-early
/// (settled flags populated) if a superseded heap entry above the radius
/// limit survived to the top. The production engine reports such runs as
/// complete — a strict semantic upgrade; the differential test pins down
/// exactly this relationship.
namespace fpr::reference {

/// A shortest-path tree as plain label arrays: `settled` is empty for a
/// complete run and flags the final labels of a stopped-early one.
struct Tree {
  NodeId source = kInvalidNode;
  std::vector<Weight> dist;
  std::vector<NodeId> parent;
  std::vector<EdgeId> parent_edge;
  std::vector<char> settled;
  int inactive_targets = 0;

  bool reached(NodeId v) const { return dist[static_cast<std::size_t>(v)] < kInfiniteWeight; }
  bool complete() const { return settled.empty(); }
};

inline Tree dijkstra_impl(const Graph& g, NodeId source, std::span<const NodeId> targets,
                          double radius_factor, Weight slack) {
  const auto n = static_cast<std::size_t>(g.node_count());
  Tree t;
  t.source = source;
  t.dist.assign(n, kInfiniteWeight);
  t.parent.assign(n, kInvalidNode);
  t.parent_edge.assign(n, kInvalidEdge);
  if (!g.node_active(source)) return t;

  std::vector<char> pending(targets.empty() ? 0 : n, 0);
  NodeId pending_count = 0;
  for (const NodeId v : targets) {
    if (!g.node_active(v)) {
      ++t.inactive_targets;
      continue;
    }
    auto& flag = pending[static_cast<std::size_t>(v)];
    if (flag == 0 && v != source) {
      flag = 1;
      ++pending_count;
    }
  }

  using Entry = std::pair<Weight, NodeId>;  // (dist, node); node breaks ties
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  t.dist[static_cast<std::size_t>(source)] = 0;
  heap.emplace(0, source);

  std::vector<char> done(n, 0);
  Weight limit = kInfiniteWeight;  // becomes finite once all targets settle
  bool stopped_early = false;
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    if (d > limit) {
      stopped_early = true;
      break;
    }
    heap.pop();
    auto& du = done[static_cast<std::size_t>(u)];
    if (du) continue;
    du = 1;
    if (pending_count > 0 && pending[static_cast<std::size_t>(u)]) {
      pending[static_cast<std::size_t>(u)] = 0;
      if (--pending_count == 0) {
        limit = radius_factor * d + slack;
      }
    }
    for (const EdgeId e : g.incident_edges(u)) {
      if (!g.edge_usable(e)) continue;
      const NodeId v = g.other_end(e, u);
      const Weight nd = d + g.edge_weight(e);
      auto& dv = t.dist[static_cast<std::size_t>(v)];
      if (nd < dv) {
        dv = nd;
        t.parent[static_cast<std::size_t>(v)] = u;
        t.parent_edge[static_cast<std::size_t>(v)] = e;
        heap.emplace(nd, v);
      }
    }
  }
  if (stopped_early) {
    t.settled = std::move(done);
  }
  return t;
}

inline Tree dijkstra(const Graph& g, NodeId source) {
  return dijkstra_impl(g, source, {}, 0, 0);
}

inline Tree dijkstra_within(const Graph& g, NodeId source, std::span<const NodeId> targets,
                             double radius_factor = 1.3, Weight slack = 4.0) {
  return dijkstra_impl(g, source, targets, radius_factor, slack);
}

}  // namespace fpr::reference
