#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "core/contract.hpp"
#include "graph/tiled_topology.hpp"
#include "graph/types.hpp"

namespace fpr {

/// Flat compressed-sparse-row snapshot of a Graph's adjacency, the classic
/// routing-resource-graph layout (PathFinder/VPR): one contiguous offsets
/// array plus parallel neighbor/edge-id arrays, so the Dijkstra inner loop
/// walks cache-line-sized runs instead of chasing per-node vectors.
///
/// Within a node's slice, entries appear in edge-insertion order — the same
/// order Graph::incident_edges() yields — which the deterministic-parent
/// guarantee of dijkstra() depends on (see DESIGN.md §8).
///
/// `weight` mirrors the per-edge traversal cost per slot (the edge's weight,
/// or kInfiniteWeight while unusable) and is updated in place by the weight
/// and activity mutators, so congestion bumps never force a rebuild and the
/// relaxation loop reads its cost from the same contiguous stream it reads
/// the neighbor from.
struct CsrAdjacency {
  std::vector<EdgeId> offsets;   // node_count() + 1 entries
  std::vector<NodeId> neighbor;  // 2 * edge_count() entries
  std::vector<EdgeId> edge_id;   // parallel to neighbor
  std::vector<Weight> weight;    // parallel to neighbor; traversal weight
  std::vector<EdgeId> slot;      // slot[2e], slot[2e+1]: edge e's positions

  std::span<const NodeId> neighbors_of(NodeId v) const {
    const auto b = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
    return {neighbor.data() + b, e - b};
  }
};

/// Structural-only flat adjacency of a tiled graph at or below
/// Graph::kFlatAdjacencyMaxEdges edges, stamped once by Graph::from_tiled
/// and shared (immutable) by every copy of that graph. It holds exactly
/// what the template would otherwise synthesize per call: each node's slots
/// in slot order (ascending edge id — the materialized incident-list and CSR
/// order) and both endpoints of every edge. Weights and activity are not
/// here; they stay in the graph's per-edge state arrays.
struct FlatAdjacency {
  std::vector<EdgeId> offsets;    // node_count() + 1 entries
  std::vector<NodeId> neighbor;   // 2 * edge_count() entries, slot order
  std::vector<EdgeId> edge_id;    // parallel to neighbor
  std::vector<NodeId> endpoints;  // endpoints[2e] < endpoints[2e+1]: edge e's ends

  std::span<const EdgeId> edges_of(NodeId v) const {
    const auto b = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v)]);
    const auto e = static_cast<std::size_t>(offsets[static_cast<std::size_t>(v) + 1]);
    return {edge_id.data() + b, e - b};
  }
};

/// Weighted undirected graph with removable (deactivatable) nodes and edges
/// and mutable edge weights.
///
/// This is the routing-graph substrate of the paper (Section 2, Figure 2):
/// the FPGA router commits wire segments to nets by deactivating their nodes,
/// and models congestion by raising edge weights, so both operations are
/// first-class and O(1) (node removal/restore is O(degree) to keep the
/// usable-edge counters exact). Deactivated elements keep their ids;
/// traversals (Dijkstra, MST, ...) skip them.
///
/// Two representations share this interface (DESIGN.md §12):
///
///  - *Materialized* (the default): adjacency stored explicitly — an edge
///    table, per-node incident lists, and a flat traversal-weight array.
///    This is what add_nodes/add_edge incrementally grow.
///  - *Tiled* (from_tiled()): topology is a shared immutable TiledTopology.
///    Only mutable state is stored per element — true edge weights,
///    edge/node activity. Adjacency comes from one of two sides of a size
///    cut (kFlatAdjacencyMaxEdges): at or below it, from a FlatAdjacency
///    stamped once and shared by copies (~35 bytes/edge in all), so every
///    adjacency read is an array read; above it, synthesized
///    arithmetically from the template on demand (~14 bytes/edge instead of
///    ~90), which is what lets device sizes scale 10–100×. The logical
///    graph (ids, order, weights, mutation semantics, aggregate
///    trajectories) is bit-identical to the materialized equivalent on both
///    sides; the device differential suite pins this. A tiled graph's
///    structure is fixed; calling add_nodes/add_edge first materializes it
///    (transparently, preserving all ids and state).
///
/// Two monotone revision counters drive caching:
///  - revision() bumps on EVERY mutation and invalidates anything derived
///    from weights or activity (PathOracle's shortest-path trees);
///  - structural_revision() bumps only when the topology itself grows
///    (add_nodes/add_edge). The CSR adjacency snapshot (csr(), materialized
///    graphs only) depends only on topology, so the router's per-edge
///    congestion bumps and node removals update the flat weight streams in
///    place without ever forcing a CSR rebuild.
class Graph {
 public:
  struct Edge {
    NodeId u = kInvalidNode;
    NodeId v = kInvalidNode;
    Weight weight = 0;
    bool active = true;
  };

  /// The size cut between the two tiled adjacency sides (class comment):
  /// a tiled graph with at most this many edges stamps a FlatAdjacency.
  /// 2^18 edges is ~6 MiB of flat arrays — every paper circuit fits with
  /// room to spare, while the large-array sizes the tiled graph exists for
  /// (50x50 and up at width 12) keep the compact arithmetic side
  /// (DESIGN.md §12).
  static constexpr EdgeId kFlatAdjacencyMaxEdges = EdgeId{1} << 18;

  Graph() = default;
  explicit Graph(NodeId node_count);

  /// Builds a tiled-representation graph over `topo` (see class comment):
  /// every node/edge active, every edge at its slot's base weight. Requires
  /// the template convention that each edge's first-emitted endpoint is the
  /// smaller id (true of every device builder; verified by the stamping
  /// pass together with id ranges and two-endpoints-per-edge). At or below
  /// kFlatAdjacencyMaxEdges the same pass stamps the FlatAdjacency.
  static Graph from_tiled(std::shared_ptr<const TiledTopology> topo);

  // The CSR cache carries a mutex, so the compiler-generated special members
  // are unavailable; copies/moves transfer the logical graph and leave the
  // destination's snapshot to be rebuilt lazily.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  /// Appends `count` fresh nodes; returns the id of the first one.
  NodeId add_nodes(NodeId count);

  /// Adds an undirected edge {u, v} with weight w >= 0; returns its id.
  EdgeId add_edge(NodeId u, NodeId v, Weight w);

  NodeId node_count() const { return static_cast<NodeId>(node_active_.size()); }
  EdgeId edge_count() const {
    return topo_ != nullptr ? topo_->edge_count : static_cast<EdgeId>(edges_.size());
  }

  /// The tile template this graph synthesizes its adjacency from, or
  /// nullptr for a materialized graph. The Dijkstra engine keys its
  /// traversal backend on this.
  const TiledTopology* tiled_topology() const { return topo_.get(); }
  bool tiled() const { return topo_ != nullptr; }

  /// The stamped structural adjacency of a tiled graph at or below the
  /// size cut, or nullptr (above the cut, or materialized).
  const FlatAdjacency* flat_adjacency() const { return flat_.get(); }

  /// Raw state arrays for the tiled traversal backend (dijkstra.cpp):
  /// weights are true per-edge weights; activity is one byte per element;
  /// `flat` is flat_adjacency(). Valid only while tiled(); pointers are
  /// invalidated by materialization.
  struct TiledView {
    const TiledTopology* topo = nullptr;
    const FlatAdjacency* flat = nullptr;
    const Weight* weight = nullptr;
    const char* edge_active = nullptr;
    const char* node_active = nullptr;
  };
  TiledView tiled_view() const {
    FPR_CHECK(topo_ != nullptr, "tiled_view() on a materialized graph");
    return TiledView{topo_.get(), flat_.get(), tiled_weight_.data(), tiled_edge_active_.data(),
                     node_active_.data()};
  }

  /// Edge record. Returned by value: a tiled graph synthesizes it (u is
  /// always the smaller endpoint, matching every device builder's emission
  /// order); a materialized graph reads its edge table.
  Edge edge(EdgeId e) const {
    if (topo_ != nullptr) return tiled_edge(e);
    return edges_[static_cast<std::size_t>(e)];
  }

  Weight edge_weight(EdgeId e) const {
    return topo_ != nullptr ? tiled_weight_[static_cast<std::size_t>(e)]
                            : edges_[static_cast<std::size_t>(e)].weight;
  }

  /// The endpoint of `e` that is not `from`.
  NodeId other_end(EdgeId e, NodeId from) const {
    const Edge ed = edge(e);
    FPR_CHECK(ed.u == from || ed.v == from,
              "other_end: node " << from << " is not an endpoint of edge " << e << " {" << ed.u
                                 << ", " << ed.v << "}");
    return ed.u == from ? ed.v : ed.u;
  }

  /// All edges ever attached to `v` (including inactive ones; filter with
  /// edge_usable()). On a tiled graph above the size cut the span points
  /// into a thread-local scratch buffer synthesized per call — it stays
  /// valid until this thread's next incident_edges() call on any tiled
  /// graph, which every current caller satisfies (no caller holds a span
  /// across another call). Below the cut it points into the flat adjacency.
  std::span<const EdgeId> incident_edges(NodeId v) const {
    if (topo_ != nullptr) return tiled_incident_edges(v);
    return incident_[static_cast<std::size_t>(v)];
  }

  bool node_active(NodeId v) const { return node_active_[static_cast<std::size_t>(v)]; }
  bool edge_active(EdgeId e) const {
    return topo_ != nullptr ? tiled_edge_active_[static_cast<std::size_t>(e)] != 0
                            : edges_[static_cast<std::size_t>(e)].active;
  }

  /// An edge is traversable iff it and both endpoints are active.
  bool edge_usable(EdgeId e) const {
    if (topo_ != nullptr) return tiled_edge_usable(e);
    const Edge& ed = edges_[static_cast<std::size_t>(e)];
    return ed.active && node_active(ed.u) && node_active(ed.v);
  }

  void set_edge_weight(EdgeId e, Weight w);
  void add_edge_weight(EdgeId e, Weight delta);
  void remove_edge(EdgeId e);
  void restore_edge(EdgeId e);
  void remove_node(NodeId v);
  void restore_node(NodeId v);

  /// Monotone counter incremented on every mutation; used by PathOracle.
  std::uint64_t revision() const { return revision_; }

  /// Monotone counter incremented only by add_nodes/add_edge — the part of
  /// revision() the CSR snapshot depends on.
  std::uint64_t structural_revision() const { return structural_revision_; }

  /// The flat adjacency snapshot of a materialized graph, rebuilt lazily
  /// when structural_revision() has moved since the last build. Safe to
  /// call from concurrent readers (the rebuild is mutex-guarded); mutating
  /// the graph concurrently with any reader is undefined, exactly as
  /// before. A tiled graph has no snapshot: read incident_edges() and
  /// other_end(), flat_adjacency(), or the tiled_view() arrays instead.
  const CsrAdjacency& csr() const;

  /// Per-edge traversal cost, maintained in place on every mutation:
  /// weight(e) while edge_usable(e), kInfiniteWeight otherwise. Relaxing
  /// through this array folds the usability test into the ordinary
  /// `dist + w < best` comparison (inf never improves a distance), which is
  /// what keeps the materialized Dijkstra inner loop branch-light. Only
  /// materialized graphs carry this array; the tiled backend reads activity
  /// bytes instead.
  std::span<const Weight> traversal_weights() const {
    FPR_CHECK(topo_ == nullptr,
              "traversal_weights() on a tiled graph — read csr().weight or the tiled_view() "
              "arrays instead");
    return traversal_weight_;
  }

  /// Number of currently usable edges. O(1): maintained as a running
  /// counter by every mutator.
  EdgeId active_edge_count() const { return usable_edges_; }

  /// Mean weight over usable edges (the paper reports the average
  /// routing-graph edge weight per congestion level in Table 1). O(1) from
  /// a running sum; exact whenever weights and congestion deltas are
  /// dyadic rationals (integers, halves, ...) summing below 2^53, which
  /// every workload in this repo satisfies.
  Weight mean_active_edge_weight() const {
    return usable_edges_ == 0 ? Weight{0} : usable_weight_sum_ / static_cast<Weight>(usable_edges_);
  }

  // -------------------------------------------------------------------------
  // Touch tracking (Device::reset() fast path).
  //
  // When enabled, every mutator records the element it touched (deduplicated
  // by a dirty bit), so a reset can restore base state in O(touched) instead
  // of scanning the whole graph. Tracking starts from the pristine
  // just-built state; replaying the touched lists in ascending id order
  // performs exactly the mutation sequence a full ascending scan would.
  // -------------------------------------------------------------------------

  /// Starts recording touched nodes/edges. Must be called on a graph whose
  /// state is the base state the eventual reset should restore.
  void enable_touch_tracking();
  bool touch_tracking() const { return track_touched_; }
  /// Touched ids since the last clear, in first-touch order (callers sort).
  std::span<const NodeId> touched_nodes() const { return touched_nodes_; }
  std::span<const EdgeId> touched_edges() const { return touched_edges_; }
  void clear_touched();

 private:
  void copy_logical_state(const Graph& other);
  /// Converts a tiled graph to the materialized representation in place,
  /// preserving every id, order and state bit. Called by the structural
  /// mutators; O(V + E).
  void materialize();
  /// Transitions edge `e` into/out of the usable set, updating the running
  /// counters and flat traversal weight. `usable_now` must be the post-
  /// mutation usability. Materialized representation only.
  void sync_edge_usability(EdgeId e, bool usable_now);
  /// Mirrors a traversal-weight change into the CSR snapshot's per-slot
  /// weight stream, when a snapshot is currently built. Writes csr_ without
  /// csr_mu_: mutators run under the documented writer-exclusivity contract
  /// (no concurrent readers), which the analysis cannot express.
  /// Materialized representation only.
  void sync_csr_weight(EdgeId e, Weight w) FPR_NO_THREAD_SAFETY_ANALYSIS;
  /// Rebuilds the CSR snapshot under csr_mu_ if it is stale at `want`.
  void rebuild_csr(std::uint64_t want) const FPR_EXCLUDES(csr_mu_);
  /// Reads csr_ without csr_mu_ — safe once csr_structural_ was
  /// acquire-loaded equal to structural_revision(): the builder
  /// release-stores that value only after the snapshot is complete, and a
  /// current snapshot is never written again (release/acquire publication,
  /// which guarded_by cannot express).
  const CsrAdjacency& published_csr() const FPR_NO_THREAD_SAFETY_ANALYSIS { return csr_; }

  // Tiled-representation helpers (topo_ != nullptr). Below the size cut
  // each is an array read of flat_; above it, template arithmetic.
  Edge tiled_edge(EdgeId e) const;
  NodeId tiled_lower_end(EdgeId e) const {
    return flat_ != nullptr ? flat_->endpoints[static_cast<std::size_t>(e) * 2]
                            : tiled_lower_end_[static_cast<std::size_t>(e)];
  }
  /// The endpoint of `e` other than its smaller one. Above the cut, found
  /// by scanning the smaller endpoint's synthesized pattern (O(degree)).
  NodeId tiled_upper_end(EdgeId e) const;
  bool tiled_edge_usable(EdgeId e) const;
  std::span<const EdgeId> tiled_incident_edges(NodeId v) const;
  /// Invokes `fn(neighbor, edge)` over `v`'s slots in slot order.
  template <typename Fn>
  void for_each_tiled_slot(NodeId v, Fn&& fn) const {
    if (flat_ != nullptr) {
      const auto b = static_cast<std::size_t>(flat_->offsets[static_cast<std::size_t>(v)]);
      const auto end = static_cast<std::size_t>(flat_->offsets[static_cast<std::size_t>(v) + 1]);
      for (std::size_t k = b; k < end; ++k) fn(flat_->neighbor[k], flat_->edge_id[k]);
      return;
    }
    topo_->for_each_slot(v, [&](NodeId nbr, EdgeId e, const TiledSlot&) { fn(nbr, e); });
  }

  void mark_node_touched(NodeId v) {
    if (track_touched_ && !node_dirty_[static_cast<std::size_t>(v)]) {
      node_dirty_[static_cast<std::size_t>(v)] = 1;
      touched_nodes_.push_back(v);
    }
  }
  void mark_edge_touched(EdgeId e) {
    if (track_touched_ && !edge_dirty_[static_cast<std::size_t>(e)]) {
      edge_dirty_[static_cast<std::size_t>(e)] = 1;
      touched_edges_.push_back(e);
    }
  }

  // Materialized representation.
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> incident_;
  std::vector<Weight> traversal_weight_;  // weight or kInfiniteWeight, per edge

  // Tiled representation: shared immutable template (and, below the size
  // cut, its shared flat adjacency) + per-element mutable state only.
  // Above the cut, tiled_lower_end_ caches each edge's smaller endpoint so
  // edge decode is O(degree of one endpoint) instead of a search; below it
  // flat_->endpoints holds both ends and tiled_lower_end_ stays empty.
  std::shared_ptr<const TiledTopology> topo_;
  std::shared_ptr<const FlatAdjacency> flat_;
  std::vector<Weight> tiled_weight_;       // true weight per edge
  std::vector<char> tiled_edge_active_;    // 1 byte per edge
  std::vector<NodeId> tiled_lower_end_;    // smaller endpoint per edge, above the cut

  // Shared between representations.
  std::vector<char> node_active_;
  std::uint64_t revision_ = 0;
  std::uint64_t structural_revision_ = 0;

  // Running aggregates over the usable-edge set (kept exact by the
  // mutators; the tiled mutators update them in the same ascending-edge
  // order the materialized ones do, so the floating-point trajectories
  // match bit for bit).
  EdgeId usable_edges_ = 0;
  Weight usable_weight_sum_ = 0;

  // Touch tracking (see section comment above).
  bool track_touched_ = false;
  std::vector<char> node_dirty_;
  std::vector<char> edge_dirty_;
  std::vector<NodeId> touched_nodes_;
  std::vector<EdgeId> touched_edges_;

  // Lazily built CSR snapshot. csr_structural_ is the structural revision
  // the snapshot was built at (kCsrStale = never built).
  static constexpr std::uint64_t kCsrStale = ~std::uint64_t{0};
  mutable Mutex csr_mu_;
  mutable std::atomic<std::uint64_t> csr_structural_{kCsrStale};
  mutable CsrAdjacency csr_ FPR_GUARDED_BY(csr_mu_);
};

}  // namespace fpr
