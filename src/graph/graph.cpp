#include "graph/graph.hpp"

#include <utility>

#include "core/contract.hpp"

namespace fpr {

Graph::Graph(NodeId node_count) { add_nodes(node_count); }

void Graph::copy_logical_state(const Graph& other) {
  incident_ = other.incident_;
  ends_ = other.ends_;
  topo_ = other.topo_;
  flat_ = other.flat_;
  lower_end_ = other.lower_end_;
  weight_ = other.weight_;
  edge_active_ = other.edge_active_;
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
  flat_structural_.store(kFlatStale, std::memory_order_relaxed);
}

Graph::Graph(const Graph& other) { copy_logical_state(other); }

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) copy_logical_state(other);
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : incident_(std::move(other.incident_)),
      ends_(std::move(other.ends_)),
      topo_(std::move(other.topo_)),
      flat_(std::move(other.flat_)),
      lower_end_(std::move(other.lower_end_)),
      weight_(std::move(other.weight_)),
      edge_active_(std::move(other.edge_active_)),
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
  flat_structural_.store(kFlatStale, std::memory_order_relaxed);
}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    incident_ = std::move(other.incident_);
    ends_ = std::move(other.ends_);
    topo_ = std::move(other.topo_);
    flat_ = std::move(other.flat_);
    lower_end_ = std::move(other.lower_end_);
    weight_ = std::move(other.weight_);
    edge_active_ = std::move(other.edge_active_);
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
    flat_structural_.store(kFlatStale, std::memory_order_relaxed);
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
  g.weight_.assign(static_cast<std::size_t>(m), 0);
  g.edge_active_.assign(static_cast<std::size_t>(m), 1);

  // Below the size cut the stamping pass also fills the flat adjacency,
  // whose endpoint pairs replace lower_end_.
  std::shared_ptr<FlatAdjacency> flat;
  if (m <= kFlatAdjacencyMaxEdges) {
    flat = std::make_shared<FlatAdjacency>();
    flat->offsets.resize(static_cast<std::size_t>(n) + 1);
    flat->neighbor.resize(static_cast<std::size_t>(m) * 2);
    flat->edge_id.resize(static_cast<std::size_t>(m) * 2);
    flat->endpoints.assign(static_cast<std::size_t>(m) * 2, kInvalidNode);
  } else {
    g.lower_end_.assign(static_cast<std::size_t>(m), kInvalidNode);
  }
  const auto lower_of = [&](EdgeId e) -> NodeId& {
    return flat != nullptr ? flat->endpoints[static_cast<std::size_t>(e) * 2]
                           : g.lower_end_[static_cast<std::size_t>(e)];
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
        g.weight_[static_cast<std::size_t>(e)] = slot.base_weight;
      } else {
        FPR_CHECK(lower == nbr, "tiled template: edge " << e << " endpoints disagree (" << v
                                                        << " expected lower end " << nbr
                                                        << ", recorded " << lower << ")");
        FPR_CHECK(g.weight_[static_cast<std::size_t>(e)] == slot.base_weight,
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
    g.usable_weight_sum_ += g.weight_[static_cast<std::size_t>(e)];
  }
  g.topo_ = std::move(topo);
  g.flat_ = std::move(flat);
  g.revision_ = 1;
  g.structural_revision_ = 1;
  return g;
}

void Graph::materialize() {
  if (topo_ == nullptr) return;
  const NodeId n = node_count();
  const EdgeId m = edge_count();
  incident_.assign(static_cast<std::size_t>(n), {});
  ends_.assign(static_cast<std::size_t>(m) * 2, kInvalidNode);
  // Node-major walk reproduces the materialized invariants exactly:
  // incident lists in ascending edge order, each edge's `u` its smaller
  // (first-emitted) endpoint.
  for (NodeId v = 0; v < n; ++v) {
    for_each_incident(v, [&](NodeId nbr, EdgeId e) {
      incident_[static_cast<std::size_t>(v)].push_back(e);
      ends_[static_cast<std::size_t>(e) * 2 + (v < nbr ? 0 : 1)] = v;
    });
  }
  topo_ = nullptr;
  flat_ = nullptr;
  lower_end_.clear();
  lower_end_.shrink_to_fit();
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
  ends_.push_back(u);
  ends_.push_back(v);
  incident_[static_cast<std::size_t>(u)].push_back(id);
  incident_[static_cast<std::size_t>(v)].push_back(id);
  weight_.push_back(w);
  edge_active_.push_back(1);
  if (node_active(u) && node_active(v)) {
    ++usable_edges_;
    usable_weight_sum_ += w;
  }
  if (track_touched_) edge_dirty_.resize(weight_.size(), 0);
  ++revision_;
  ++structural_revision_;
  return id;
}

NodeId Graph::synthesized_upper_end(EdgeId e) const {
  const NodeId u = lower_end_[static_cast<std::size_t>(e)];
  NodeId found = kInvalidNode;
  topo_->for_each_slot(u, [&](NodeId nbr, EdgeId slot_e, const TiledSlot&) {
    if (slot_e == e) found = nbr;
  });
  FPR_CHECK(found != kInvalidNode,
            "tiled edge " << e << ": recorded endpoint " << u << " does not emit it");
  return found;
}

std::span<const EdgeId> Graph::synthesized_incident_edges(NodeId v) const {
  // Thread-local scratch: concurrent routes (the width search's parallel
  // probes) synthesize incident lists, each thread into its own buffer. The
  // span is valid until this thread's next call (documented in graph.hpp).
  // fpr-lint: allow(global-state) per-thread scratch buffer, overwritten on every call; lifetime contract documented in graph.hpp
  static thread_local std::vector<EdgeId> scratch;
  scratch.clear();
  topo_->for_each_slot(v, [&](NodeId, EdgeId e, const TiledSlot&) { scratch.push_back(e); });
  return scratch;
}

void Graph::set_edge_weight(EdgeId e, Weight w) {
  FPR_CHECK(e >= 0 && e < edge_count(),
            "set_edge_weight edge " << e << " outside edge range [0, " << edge_count() << ")");
  FPR_CHECK(w >= 0, "set_edge_weight edge " << e << " to " << w
                        << " — routing costs are non-negative");
  mark_edge_touched(e);
  Weight& cur = weight_[static_cast<std::size_t>(e)];
  if (edge_usable(e)) usable_weight_sum_ += w - cur;
  cur = w;
  ++revision_;
}

void Graph::add_edge_weight(EdgeId e, Weight delta) {
  FPR_CHECK(e >= 0 && e < edge_count(),
            "add_edge_weight edge " << e << " outside edge range [0, " << edge_count() << ")");
  mark_edge_touched(e);
  Weight& cur = weight_[static_cast<std::size_t>(e)];
  FPR_CHECK(cur + delta >= 0, "add_edge_weight edge " << e << " (weight " << cur << ") by "
                                  << delta << " would make the routing cost negative");
  cur += delta;
  if (edge_usable(e)) usable_weight_sum_ += delta;
  ++revision_;
}

void Graph::remove_edge(EdgeId e) {
  mark_edge_touched(e);
  if (edge_usable(e)) {
    --usable_edges_;
    usable_weight_sum_ -= weight_[static_cast<std::size_t>(e)];
  }
  edge_active_[static_cast<std::size_t>(e)] = 0;
  ++revision_;
}

void Graph::restore_edge(EdgeId e) {
  mark_edge_touched(e);
  char& act = edge_active_[static_cast<std::size_t>(e)];
  if (act == 0) {
    act = 1;
    if (edge_usable(e)) {
      ++usable_edges_;
      usable_weight_sum_ += weight_[static_cast<std::size_t>(e)];
    }
  }
  ++revision_;
}

void Graph::remove_node(NodeId v) {
  if (node_active(v)) {
    mark_node_touched(v);
    node_active_[static_cast<std::size_t>(v)] = 0;
    // v was active, so each incident edge was usable iff it is active and
    // its far endpoint is.
    for_each_incident(v, [&](NodeId nbr, EdgeId e) {
      if (edge_active(e) && node_active(nbr)) {
        --usable_edges_;
        usable_weight_sum_ -= weight_[static_cast<std::size_t>(e)];
      }
    });
  }
  ++revision_;
}

void Graph::restore_node(NodeId v) {
  if (!node_active(v)) {
    mark_node_touched(v);
    node_active_[static_cast<std::size_t>(v)] = 1;
    for_each_incident(v, [&](NodeId nbr, EdgeId e) {
      if (edge_active(e) && node_active(nbr)) {
        ++usable_edges_;
        usable_weight_sum_ += weight_[static_cast<std::size_t>(e)];
      }
    });
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

const FlatAdjacency* Graph::flat_adjacency() const {
  if (topo_ != nullptr) return flat_.get();
  const std::uint64_t want = structural_revision_;
  if (flat_structural_.load(std::memory_order_acquire) != want) rebuild_flat(want);
  return &published_flat();
}

void Graph::rebuild_flat(std::uint64_t want) const {
  MutexLock lock(flat_mu_);
  if (flat_structural_.load(std::memory_order_relaxed) == want) return;
  const auto n = static_cast<std::size_t>(node_count());
  FlatAdjacency flat;
  flat.offsets.resize(n + 1);
  flat.neighbor.reserve(ends_.size());
  flat.edge_id.reserve(ends_.size());
  for (std::size_t v = 0; v < n; ++v) {
    flat.offsets[v] = static_cast<EdgeId>(flat.edge_id.size());
    for_each_incident(static_cast<NodeId>(v), [&](NodeId nbr, EdgeId e) {
      flat.neighbor.push_back(nbr);
      flat.edge_id.push_back(e);
    });
  }
  flat.offsets[n] = static_cast<EdgeId>(flat.edge_id.size());
  flat.endpoints = ends_;
  built_flat_ = std::move(flat);
  flat_structural_.store(want, std::memory_order_release);
}

}  // namespace fpr
