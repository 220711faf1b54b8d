#include "graph/graph.hpp"

#include <utility>

#include "core/contract.hpp"

namespace fpr {

Graph::Graph(NodeId node_count) { add_nodes(node_count); }

void Graph::copy_logical_state(const Graph& other) {
  edges_ = other.edges_;
  incident_ = other.incident_;
  traversal_weight_ = other.traversal_weight_;
  topo_ = other.topo_;
  flat_ = other.flat_;
  tiled_weight_ = other.tiled_weight_;
  tiled_edge_active_ = other.tiled_edge_active_;
  tiled_lower_end_ = other.tiled_lower_end_;
  node_active_ = other.node_active_;
  revision_ = other.revision_;
  structural_revision_ = other.structural_revision_;
  usable_edges_ = other.usable_edges_;
  usable_weight_sum_ = other.usable_weight_sum_;
  track_touched_ = other.track_touched_;
  node_dirty_ = other.node_dirty_;
  edge_dirty_ = other.edge_dirty_;
  touched_nodes_ = other.touched_nodes_;
  touched_edges_ = other.touched_edges_;
  csr_structural_.store(kCsrStale, std::memory_order_relaxed);
}

Graph::Graph(const Graph& other) { copy_logical_state(other); }

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) copy_logical_state(other);
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : edges_(std::move(other.edges_)),
      incident_(std::move(other.incident_)),
      traversal_weight_(std::move(other.traversal_weight_)),
      topo_(std::move(other.topo_)),
      flat_(std::move(other.flat_)),
      tiled_weight_(std::move(other.tiled_weight_)),
      tiled_edge_active_(std::move(other.tiled_edge_active_)),
      tiled_lower_end_(std::move(other.tiled_lower_end_)),
      node_active_(std::move(other.node_active_)),
      revision_(other.revision_),
      structural_revision_(other.structural_revision_),
      usable_edges_(other.usable_edges_),
      usable_weight_sum_(other.usable_weight_sum_),
      track_touched_(other.track_touched_),
      node_dirty_(std::move(other.node_dirty_)),
      edge_dirty_(std::move(other.edge_dirty_)),
      touched_nodes_(std::move(other.touched_nodes_)),
      touched_edges_(std::move(other.touched_edges_)) {
  csr_structural_.store(kCsrStale, std::memory_order_relaxed);
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    edges_ = std::move(other.edges_);
    incident_ = std::move(other.incident_);
    traversal_weight_ = std::move(other.traversal_weight_);
    topo_ = std::move(other.topo_);
    flat_ = std::move(other.flat_);
    tiled_weight_ = std::move(other.tiled_weight_);
    tiled_edge_active_ = std::move(other.tiled_edge_active_);
    tiled_lower_end_ = std::move(other.tiled_lower_end_);
    node_active_ = std::move(other.node_active_);
    revision_ = other.revision_;
    structural_revision_ = other.structural_revision_;
    usable_edges_ = other.usable_edges_;
    usable_weight_sum_ = other.usable_weight_sum_;
    track_touched_ = other.track_touched_;
    node_dirty_ = std::move(other.node_dirty_);
    edge_dirty_ = std::move(other.edge_dirty_);
    touched_nodes_ = std::move(other.touched_nodes_);
    touched_edges_ = std::move(other.touched_edges_);
    csr_structural_.store(kCsrStale, std::memory_order_relaxed);
  }
  return *this;
}

Graph Graph::from_tiled(std::shared_ptr<const TiledTopology> topo) {
  FPR_CHECK(topo != nullptr, "from_tiled(nullptr)");
  topo->validate();
  Graph g;
  const NodeId n = topo->node_count;
  const EdgeId m = topo->edge_count;
  g.node_active_.assign(static_cast<std::size_t>(n), 1);
  g.tiled_weight_.assign(static_cast<std::size_t>(m), 0);
  g.tiled_edge_active_.assign(static_cast<std::size_t>(m), 1);

  // Below the size cut the stamping pass also fills the flat adjacency,
  // whose endpoint pairs replace tiled_lower_end_.
  std::shared_ptr<FlatAdjacency> flat;
  if (m <= kFlatAdjacencyMaxEdges) {
    flat = std::make_shared<FlatAdjacency>();
    flat->offsets.resize(static_cast<std::size_t>(n) + 1);
    flat->neighbor.resize(static_cast<std::size_t>(m) * 2);
    flat->edge_id.resize(static_cast<std::size_t>(m) * 2);
    flat->endpoints.assign(static_cast<std::size_t>(m) * 2, kInvalidNode);
  } else {
    g.tiled_lower_end_.assign(static_cast<std::size_t>(m), kInvalidNode);
  }
  const auto lower_of = [&](EdgeId e) -> NodeId& {
    return flat != nullptr ? flat->endpoints[static_cast<std::size_t>(e) * 2]
                           : g.tiled_lower_end_[static_cast<std::size_t>(e)];
  };

  // Stamping pass: one tile-row-at-a-time walk over every synthesized slot.
  // Each edge must be emitted by exactly two nodes — its smaller endpoint
  // first in node order — with matching base weights; together with the
  // range checks this proves the template's id arithmetic covers [0, m)
  // exactly, so the traversal backend can index state arrays unchecked.
  std::int64_t applied = 0;
  topo->for_each_node([&](NodeId v, const TiledTopology::Decoded& d) {
    if (flat != nullptr) flat->offsets[static_cast<std::size_t>(v)] = static_cast<EdgeId>(applied);
    topo->apply(d, [&](NodeId nbr, EdgeId e, const TiledSlot& slot) {
      FPR_CHECK(nbr >= 0 && nbr < n,
                "tiled template: node " << v << " synthesizes neighbor " << nbr
                                        << " outside [0, " << n << ")");
      FPR_CHECK(nbr != v, "tiled template: self-loop at node " << v);
      FPR_CHECK(e >= 0 && e < m, "tiled template: node " << v << " synthesizes edge " << e
                                                         << " outside [0, " << m << ")");
      NodeId& lower = lower_of(e);
      if (v < nbr) {
        FPR_CHECK(lower == kInvalidNode,
                  "tiled template: edge " << e << " emitted twice as a lower endpoint (nodes "
                                          << lower << " and " << v << ")");
        lower = v;
        g.tiled_weight_[static_cast<std::size_t>(e)] = slot.base_weight;
      } else {
        FPR_CHECK(lower == nbr, "tiled template: edge " << e << " endpoints disagree (" << v
                                                        << " expected lower end " << nbr
                                                        << ", recorded " << lower << ")");
        FPR_CHECK(g.tiled_weight_[static_cast<std::size_t>(e)] == slot.base_weight,
                  "tiled template: edge " << e << " base weight mismatch between endpoints");
        if (flat != nullptr) {
          NodeId& upper = flat->endpoints[static_cast<std::size_t>(e) * 2 + 1];
          FPR_CHECK(upper == kInvalidNode,
                    "tiled template: edge " << e << " emitted twice as an upper endpoint (nodes "
                                            << upper << " and " << v << ")");
          upper = v;
        }
      }
      if (flat != nullptr) {
        // Every slot reaching here is a distinct (edge, endpoint) pair, so
        // applied < 2m and the write stays inside the arrays.
        flat->neighbor[static_cast<std::size_t>(applied)] = nbr;
        flat->edge_id[static_cast<std::size_t>(applied)] = e;
      }
      ++applied;
    });
  });
  FPR_CHECK(applied == static_cast<std::int64_t>(m) * 2,
            "tiled template: " << applied << " slot applications for " << m
                               << " edges (expected exactly 2 per edge)");
  for (EdgeId e = 0; e < m; ++e) {
    FPR_CHECK(lower_of(e) != kInvalidNode, "tiled template: edge id " << e << " is never emitted");
  }
  if (flat != nullptr) flat->offsets[static_cast<std::size_t>(n)] = static_cast<EdgeId>(applied);

  g.usable_edges_ = m;
  g.usable_weight_sum_ = 0;
  for (EdgeId e = 0; e < m; ++e) {
    g.usable_weight_sum_ += g.tiled_weight_[static_cast<std::size_t>(e)];
  }
  g.topo_ = std::move(topo);
  g.flat_ = std::move(flat);
  g.revision_ = 1;
  g.structural_revision_ = 1;
  return g;
}

void Graph::materialize() {
  if (topo_ == nullptr) return;
  const std::shared_ptr<const TiledTopology> topo = std::move(topo_);
  topo_ = nullptr;
  flat_ = nullptr;
  const auto n = static_cast<std::size_t>(topo->node_count);
  const auto m = static_cast<std::size_t>(topo->edge_count);
  edges_.assign(m, Edge{});
  incident_.assign(n, {});
  traversal_weight_.assign(m, kInfiniteWeight);
  // Node-major walk reproduces the materialized invariants exactly:
  // incident lists in ascending edge order, each edge's `u` its smaller
  // (first-emitted) endpoint.
  topo->for_each_node([&](NodeId v, const TiledTopology::Decoded& d) {
    topo->apply(d, [&](NodeId nbr, EdgeId e, const TiledSlot&) {
      incident_[static_cast<std::size_t>(v)].push_back(e);
      if (v < nbr) {
        Edge& ed = edges_[static_cast<std::size_t>(e)];
        ed.u = v;
        ed.v = nbr;
        ed.weight = tiled_weight_[static_cast<std::size_t>(e)];
        ed.active = tiled_edge_active_[static_cast<std::size_t>(e)] != 0;
        if (ed.active && node_active(v) && node_active(nbr)) {
          traversal_weight_[static_cast<std::size_t>(e)] = ed.weight;
        }
      }
    });
  });
  tiled_weight_.clear();
  tiled_weight_.shrink_to_fit();
  tiled_edge_active_.clear();
  tiled_edge_active_.shrink_to_fit();
  tiled_lower_end_.clear();
  tiled_lower_end_.shrink_to_fit();
}

NodeId Graph::add_nodes(NodeId count) {
  FPR_CHECK(count >= 0, "add_nodes count=" << count << " must be non-negative");
  materialize();
  const NodeId first = node_count();
  incident_.resize(incident_.size() + static_cast<std::size_t>(count));
  node_active_.resize(node_active_.size() + static_cast<std::size_t>(count), 1);
  if (track_touched_) node_dirty_.resize(node_active_.size(), 0);
  ++revision_;
  ++structural_revision_;
  return first;
}

EdgeId Graph::add_edge(NodeId u, NodeId v, Weight w) {
  FPR_CHECK(u >= 0 && u < node_count(),
            "add_edge endpoint u=" << u << " outside node range [0, " << node_count() << ")");
  FPR_CHECK(v >= 0 && v < node_count(),
            "add_edge endpoint v=" << v << " outside node range [0, " << node_count() << ")");
  FPR_CHECK(u != v, "add_edge self-loop at node " << u
                        << " — self-loops are never useful in a routing graph");
  FPR_CHECK(w >= 0, "add_edge {" << u << ", " << v << "} weight " << w
                        << " — routing costs are non-negative");
  materialize();
  const EdgeId id = edge_count();
  edges_.push_back(Edge{u, v, w, true});
  incident_[static_cast<std::size_t>(u)].push_back(id);
  incident_[static_cast<std::size_t>(v)].push_back(id);
  const bool usable = node_active(u) && node_active(v);
  traversal_weight_.push_back(usable ? w : kInfiniteWeight);
  if (usable) {
    ++usable_edges_;
    usable_weight_sum_ += w;
  }
  if (track_touched_) edge_dirty_.resize(edges_.size(), 0);
  ++revision_;
  ++structural_revision_;
  return id;
}

Graph::Edge Graph::tiled_edge(EdgeId e) const {
  FPR_CHECK(e >= 0 && e < edge_count(),
            "edge " << e << " outside edge range [0, " << edge_count() << ")");
  Edge ed;
  ed.u = tiled_lower_end(e);
  ed.v = tiled_upper_end(e);
  ed.weight = tiled_weight_[static_cast<std::size_t>(e)];
  ed.active = tiled_edge_active_[static_cast<std::size_t>(e)] != 0;
  return ed;
}

NodeId Graph::tiled_upper_end(EdgeId e) const {
  if (flat_ != nullptr) return flat_->endpoints[static_cast<std::size_t>(e) * 2 + 1];
  const NodeId u = tiled_lower_end_[static_cast<std::size_t>(e)];
  NodeId found = kInvalidNode;
  topo_->for_each_slot(u, [&](NodeId nbr, EdgeId slot_e, const TiledSlot&) {
    if (slot_e == e) found = nbr;
  });
  FPR_CHECK(found != kInvalidNode,
            "tiled edge " << e << ": recorded endpoint " << u << " does not emit it");
  return found;
}

bool Graph::tiled_edge_usable(EdgeId e) const {
  if (!tiled_edge_active_[static_cast<std::size_t>(e)]) return false;
  if (!node_active(tiled_lower_end(e))) return false;
  return node_active(tiled_upper_end(e));
}

std::span<const EdgeId> Graph::tiled_incident_edges(NodeId v) const {
  if (flat_ != nullptr) return flat_->edges_of(v);
  // Thread-local scratch: concurrent routes (the width search's parallel
  // probes) synthesize incident lists, each thread into its own buffer. The
  // span is valid until this thread's next call (documented in graph.hpp).
  // fpr-lint: allow(global-state) per-thread scratch buffer, overwritten on every call; lifetime contract documented in graph.hpp
  static thread_local std::vector<EdgeId> scratch;
  scratch.clear();
  topo_->for_each_slot(v, [&](NodeId, EdgeId e, const TiledSlot&) { scratch.push_back(e); });
  return scratch;
}

void Graph::sync_csr_weight(EdgeId e, Weight w) {
  if (csr_structural_.load(std::memory_order_relaxed) != structural_revision_) return;
  const auto s = static_cast<std::size_t>(e) * 2;
  csr_.weight[static_cast<std::size_t>(csr_.slot[s])] = w;
  csr_.weight[static_cast<std::size_t>(csr_.slot[s + 1])] = w;
}

void Graph::sync_edge_usability(EdgeId e, bool usable_now) {
  const auto idx = static_cast<std::size_t>(e);
  const bool usable_before = traversal_weight_[idx] != kInfiniteWeight;
  if (usable_before == usable_now) return;
  const Weight w = edges_[idx].weight;
  if (usable_now) {
    ++usable_edges_;
    usable_weight_sum_ += w;
    traversal_weight_[idx] = w;
    sync_csr_weight(e, w);
  } else {
    --usable_edges_;
    usable_weight_sum_ -= w;
    traversal_weight_[idx] = kInfiniteWeight;
    sync_csr_weight(e, kInfiniteWeight);
  }
}

void Graph::set_edge_weight(EdgeId e, Weight w) {
  FPR_CHECK(e >= 0 && e < edge_count(),
            "set_edge_weight edge " << e << " outside edge range [0, " << edge_count() << ")");
  FPR_CHECK(w >= 0, "set_edge_weight edge " << e << " to " << w
                        << " — routing costs are non-negative");
  mark_edge_touched(e);
  if (topo_ != nullptr) {
    Weight& cur = tiled_weight_[static_cast<std::size_t>(e)];
    if (tiled_edge_usable(e)) usable_weight_sum_ += w - cur;
    cur = w;
    ++revision_;
    return;
  }
  auto& ed = edges_[static_cast<std::size_t>(e)];
  if (traversal_weight_[static_cast<std::size_t>(e)] != kInfiniteWeight) {
    usable_weight_sum_ += w - ed.weight;
    traversal_weight_[static_cast<std::size_t>(e)] = w;
    sync_csr_weight(e, w);
  }
  ed.weight = w;
  ++revision_;
}

void Graph::add_edge_weight(EdgeId e, Weight delta) {
  FPR_CHECK(e >= 0 && e < edge_count(),
            "add_edge_weight edge " << e << " outside edge range [0, " << edge_count() << ")");
  mark_edge_touched(e);
  if (topo_ != nullptr) {
    Weight& cur = tiled_weight_[static_cast<std::size_t>(e)];
    FPR_CHECK(cur + delta >= 0, "add_edge_weight edge " << e << " (weight " << cur << ") by "
                                    << delta << " would make the routing cost negative");
    cur += delta;
    if (tiled_edge_usable(e)) usable_weight_sum_ += delta;
    ++revision_;
    return;
  }
  auto& ed = edges_[static_cast<std::size_t>(e)];
  FPR_CHECK(ed.weight + delta >= 0, "add_edge_weight edge " << e << " (weight " << ed.weight
                                        << ") by " << delta
                                        << " would make the routing cost negative");
  ed.weight += delta;
  if (traversal_weight_[static_cast<std::size_t>(e)] != kInfiniteWeight) {
    usable_weight_sum_ += delta;
    traversal_weight_[static_cast<std::size_t>(e)] = ed.weight;
    sync_csr_weight(e, ed.weight);
  }
  ++revision_;
}

void Graph::remove_edge(EdgeId e) {
  mark_edge_touched(e);
  if (topo_ != nullptr) {
    char& act = tiled_edge_active_[static_cast<std::size_t>(e)];
    if (act != 0 && tiled_edge_usable(e)) {
      --usable_edges_;
      usable_weight_sum_ -= tiled_weight_[static_cast<std::size_t>(e)];
    }
    act = 0;
    ++revision_;
    return;
  }
  edges_[static_cast<std::size_t>(e)].active = false;
  sync_edge_usability(e, false);
  ++revision_;
}

void Graph::restore_edge(EdgeId e) {
  mark_edge_touched(e);
  if (topo_ != nullptr) {
    char& act = tiled_edge_active_[static_cast<std::size_t>(e)];
    if (act == 0) {
      act = 1;
      if (tiled_edge_usable(e)) {
        ++usable_edges_;
        usable_weight_sum_ += tiled_weight_[static_cast<std::size_t>(e)];
      }
    }
    ++revision_;
    return;
  }
  auto& ed = edges_[static_cast<std::size_t>(e)];
  ed.active = true;
  sync_edge_usability(e, node_active(ed.u) && node_active(ed.v));
  ++revision_;
}

void Graph::remove_node(NodeId v) {
  if (node_active_[static_cast<std::size_t>(v)]) {
    mark_node_touched(v);
    node_active_[static_cast<std::size_t>(v)] = 0;
    if (topo_ != nullptr) {
      // v was active, so each incident edge was usable iff it is active and
      // its far endpoint is; slot order is ascending edge id, matching the
      // materialized incident-list order (and its float-sum trajectory).
      for_each_tiled_slot(v, [&](NodeId nbr, EdgeId e) {
        if (tiled_edge_active_[static_cast<std::size_t>(e)] != 0 && node_active(nbr)) {
          --usable_edges_;
          usable_weight_sum_ -= tiled_weight_[static_cast<std::size_t>(e)];
        }
      });
    } else {
      for (const EdgeId e : incident_[static_cast<std::size_t>(v)]) {
        sync_edge_usability(e, false);
      }
    }
  }
  ++revision_;
}

void Graph::restore_node(NodeId v) {
  if (!node_active_[static_cast<std::size_t>(v)]) {
    mark_node_touched(v);
    node_active_[static_cast<std::size_t>(v)] = 1;
    if (topo_ != nullptr) {
      for_each_tiled_slot(v, [&](NodeId nbr, EdgeId e) {
        if (tiled_edge_active_[static_cast<std::size_t>(e)] != 0 && node_active(nbr)) {
          ++usable_edges_;
          usable_weight_sum_ += tiled_weight_[static_cast<std::size_t>(e)];
        }
      });
    } else {
      for (const EdgeId e : incident_[static_cast<std::size_t>(v)]) {
        sync_edge_usability(e, edge_usable(e));
      }
    }
  }
  ++revision_;
}

void Graph::enable_touch_tracking() {
  track_touched_ = true;
  node_dirty_.assign(static_cast<std::size_t>(node_count()), 0);
  edge_dirty_.assign(static_cast<std::size_t>(edge_count()), 0);
  touched_nodes_.clear();
  touched_edges_.clear();
}

void Graph::clear_touched() {
  for (const NodeId v : touched_nodes_) node_dirty_[static_cast<std::size_t>(v)] = 0;
  for (const EdgeId e : touched_edges_) edge_dirty_[static_cast<std::size_t>(e)] = 0;
  touched_nodes_.clear();
  touched_edges_.clear();
}

const CsrAdjacency& Graph::csr() const {
  FPR_CHECK(topo_ == nullptr,
            "csr() on a tiled graph — read incident_edges()/other_end(), flat_adjacency() or the "
            "tiled_view() arrays instead");
  const std::uint64_t want = structural_revision_;
  if (csr_structural_.load(std::memory_order_acquire) != want) rebuild_csr(want);
  return published_csr();
}

void Graph::rebuild_csr(std::uint64_t want) const {
  MutexLock lock(csr_mu_);
  if (csr_structural_.load(std::memory_order_relaxed) == want) return;
  const auto n = static_cast<std::size_t>(node_count());
  csr_.offsets.assign(n + 1, 0);
  std::size_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    csr_.offsets[v] = static_cast<EdgeId>(total);
    total += incident_[v].size();
  }
  csr_.offsets[n] = static_cast<EdgeId>(total);
  csr_.neighbor.resize(total);
  csr_.edge_id.resize(total);
  csr_.weight.resize(total);
  csr_.slot.assign(static_cast<std::size_t>(edge_count()) * 2, kInvalidEdge);
  std::size_t k = 0;
  for (std::size_t v = 0; v < n; ++v) {
    // Insertion order is preserved, matching incident_edges() — the
    // deterministic-parent guarantee of dijkstra() relies on this.
    for (const EdgeId e : incident_[v]) {
      const Edge& ed = edges_[static_cast<std::size_t>(e)];
      csr_.neighbor[k] = ed.u == static_cast<NodeId>(v) ? ed.v : ed.u;
      csr_.edge_id[k] = e;
      csr_.weight[k] = traversal_weight_[static_cast<std::size_t>(e)];
      // Each edge occupies exactly two slots (no self-loops); remember
      // both so weight mutations can patch them in place.
      auto& first = csr_.slot[static_cast<std::size_t>(e) * 2];
      if (first == kInvalidEdge) {
        first = static_cast<EdgeId>(k);
      } else {
        csr_.slot[static_cast<std::size_t>(e) * 2 + 1] = static_cast<EdgeId>(k);
      }
      ++k;
    }
  }
  csr_structural_.store(want, std::memory_order_release);
}

}  // namespace fpr
