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

/// Structural-only flat adjacency, the classic routing-resource-graph
/// layout (PathFinder/VPR): one contiguous offsets array plus parallel
/// neighbor/edge-id arrays, so the Dijkstra inner loop walks cache-line-sized
/// runs instead of chasing per-node vectors, and both endpoints of every
/// edge. A node's slice lists its edges in ascending edge id — the
/// incident-list order and the tiled slot order — which the
/// deterministic-parent guarantee of dijkstra() depends on (DESIGN.md §8).
/// Weights and activity are not here; they stay in the graph's per-edge and
/// per-node state arrays, so state mutations never touch a snapshot.
///
/// A tiled graph at or below Graph::kFlatAdjacencyMaxEdges stamps one in
/// Graph::from_tiled, shared (immutable) by every copy; a materialized graph
/// builds one lazily from its incident lists (Graph::flat_adjacency()).
struct FlatAdjacency {
  std::vector<EdgeId> offsets;    // node_count() + 1 entries
  std::vector<NodeId> neighbor;   // 2 * edge_count() entries, slot order
  std::vector<EdgeId> edge_id;    // parallel to neighbor
  std::vector<NodeId> endpoints;  // endpoints[2e], [2e+1]: Graph::edge(e).u, .v

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
/// Every graph keeps its mutable state in one layout: a true weight and an
/// activity byte per edge, an activity byte per node, and running sums over
/// the usable edges. The mutators read and write only that state, so they
/// are the same for both ways of storing the structure (DESIGN.md §12):
///
///  - *Materialized* (the default): per-node incident lists and both
///    endpoints of every edge, stored explicitly. This is what
///    add_nodes/add_edge incrementally grow. The FlatAdjacency the Dijkstra
///    engine walks is built from the incident lists on first use.
///  - *Tiled* (from_tiled()): topology is a shared immutable TiledTopology.
///    Adjacency comes from one of two sides of a size cut
///    (kFlatAdjacencyMaxEdges): at or below it, from a FlatAdjacency stamped
///    once and shared by copies (~35 bytes/edge in all), so every adjacency
///    read is an array read; above it, synthesized arithmetically from the
///    template on demand (~14 bytes/edge instead of ~90), which is what lets
///    device sizes scale 10–100×. The logical graph (ids, order, weights,
///    mutation semantics, aggregate trajectories) is bit-identical to the
///    materialized equivalent on both sides; the device differential suite
///    pins this. A tiled graph's structure is fixed; calling
///    add_nodes/add_edge first materializes it (transparently, preserving
///    all ids and state).
///
/// Two monotone revision counters drive caching:
///  - revision() bumps on EVERY mutation and invalidates anything derived
///    from weights or activity (PathOracle's shortest-path trees);
///  - structural_revision() bumps only when the topology itself grows
///    (add_nodes/add_edge). A materialized graph's flat adjacency depends
///    only on topology, so the router's per-edge congestion bumps and node
///    removals never force a rebuild.
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

  // The lazily built flat adjacency carries a mutex, so the
  // compiler-generated special members are unavailable; copies/moves
  // transfer the logical graph and leave a materialized destination's
  // snapshot to be rebuilt lazily.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  /// Appends `count` fresh nodes; returns the id of the first one.
  NodeId add_nodes(NodeId count);

  /// Adds an undirected edge {u, v} with weight w >= 0; returns its id.
  EdgeId add_edge(NodeId u, NodeId v, Weight w);

  NodeId node_count() const { return static_cast<NodeId>(node_active_.size()); }
  EdgeId edge_count() const { return static_cast<EdgeId>(weight_.size()); }

  bool tiled() const { return topo_ != nullptr; }

  /// The flat adjacency: a materialized graph's, rebuilt lazily when
  /// structural_revision() has moved since the last build, or the stamped
  /// one of a tiled graph at or below the size cut. nullptr only for a
  /// tiled graph above the cut. Safe to call from concurrent readers (the
  /// rebuild is mutex-guarded); mutating the graph concurrently with any
  /// reader is undefined, as for every other accessor.
  const FlatAdjacency* flat_adjacency() const;

  /// The traversal engine's view of the graph (dijkstra.cpp): the adjacency
  /// to walk — `flat` (flat_adjacency()) when the graph has one, otherwise
  /// `topo`, the template of a tiled graph above the size cut — and the raw
  /// state arrays: true per-edge weights and one activity byte per edge and
  /// per node. Pointers are invalidated by add_nodes/add_edge.
  struct StateView {
    const TiledTopology* topo = nullptr;
    const FlatAdjacency* flat = nullptr;
    const Weight* weight = nullptr;
    const char* edge_active = nullptr;
    const char* node_active = nullptr;
  };
  StateView state_view() const {
    return StateView{topo_.get(), flat_adjacency(), weight_.data(), edge_active_.data(),
                     node_active_.data()};
  }

  /// Edge record, assembled by value from the state arrays and the
  /// endpoints. A tiled graph's `u` is always the smaller endpoint
  /// (matching every device builder's emission order); a materialized
  /// graph's is add_edge's first argument.
  Edge edge(EdgeId e) const {
    FPR_CHECK(e >= 0 && e < edge_count(),
              "edge " << e << " outside edge range [0, " << edge_count() << ")");
    return Edge{end_u(e), end_v(e), weight_[static_cast<std::size_t>(e)],
                edge_active_[static_cast<std::size_t>(e)] != 0};
  }

  Weight edge_weight(EdgeId e) const { return weight_[static_cast<std::size_t>(e)]; }

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
    if (topo_ == nullptr) return incident_[static_cast<std::size_t>(v)];
    if (flat_ != nullptr) return flat_->edges_of(v);
    return synthesized_incident_edges(v);
  }

  bool node_active(NodeId v) const { return node_active_[static_cast<std::size_t>(v)] != 0; }
  bool edge_active(EdgeId e) const { return edge_active_[static_cast<std::size_t>(e)] != 0; }

  /// An edge is traversable iff it and both endpoints are active.
  bool edge_usable(EdgeId e) const {
    return edge_active(e) && node_active(end_u(e)) && node_active(end_v(e));
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
  /// revision() the flat adjacency depends on.
  std::uint64_t structural_revision() const { return structural_revision_; }

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

  /// True when some edge, active or not, weighs zero: a goal-directed
  /// search then runs plain (see dijkstra_within_paused).
  bool has_zero_weight_edge() const { return zero_weight_edges_ > 0; }

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
  /// Converts a tiled graph to the materialized representation in place:
  /// builds the incident lists and endpoints and drops the template. The
  /// state arrays already have the shared layout, so every id, order and
  /// state bit carries over. Called by the structural mutators; O(V + E).
  void materialize();
  /// Rebuilds a materialized graph's flat adjacency under flat_mu_ if it is
  /// stale at `want`.
  void rebuild_flat(std::uint64_t want) const FPR_EXCLUDES(flat_mu_);
  /// Reads built_flat_ without flat_mu_ — safe once flat_structural_ was
  /// acquire-loaded equal to structural_revision(): the builder
  /// release-stores that value only after the snapshot is complete, and a
  /// current snapshot is never written again (release/acquire publication,
  /// which guarded_by cannot express).
  const FlatAdjacency& published_flat() const FPR_NO_THREAD_SAFETY_ANALYSIS {
    return built_flat_;
  }

  /// Edge e's endpoints in edge(e) order.
  NodeId end_u(EdgeId e) const {
    if (topo_ == nullptr) return ends_[static_cast<std::size_t>(e) * 2];
    return flat_ != nullptr ? flat_->endpoints[static_cast<std::size_t>(e) * 2]
                            : lower_end_[static_cast<std::size_t>(e)];
  }
  NodeId end_v(EdgeId e) const {
    if (topo_ == nullptr) return ends_[static_cast<std::size_t>(e) * 2 + 1];
    return flat_ != nullptr ? flat_->endpoints[static_cast<std::size_t>(e) * 2 + 1]
                            : synthesized_upper_end(e);
  }
  /// Above the cut: the endpoint of `e` other than its smaller one, found
  /// by scanning the smaller endpoint's synthesized pattern (O(degree)).
  NodeId synthesized_upper_end(EdgeId e) const;
  /// Above the cut: `v`'s incident list synthesized into thread-local
  /// scratch (lifetime contract on incident_edges()).
  std::span<const EdgeId> synthesized_incident_edges(NodeId v) const;
  /// Invokes `fn(neighbor, edge)` over `v`'s incident edges in ascending
  /// edge id, from whichever structure the graph stores.
  template <typename Fn>
  void for_each_incident(NodeId v, Fn&& fn) const {
    if (topo_ == nullptr) {
      for (const EdgeId e : incident_[static_cast<std::size_t>(v)]) {
        const NodeId u = ends_[static_cast<std::size_t>(e) * 2];
        fn(u == v ? ends_[static_cast<std::size_t>(e) * 2 + 1] : u, e);
      }
    } else if (flat_ != nullptr) {
      const auto b = static_cast<std::size_t>(flat_->offsets[static_cast<std::size_t>(v)]);
      const auto end = static_cast<std::size_t>(flat_->offsets[static_cast<std::size_t>(v) + 1]);
      for (std::size_t k = b; k < end; ++k) fn(flat_->neighbor[k], flat_->edge_id[k]);
    } else {
      topo_->for_each_slot(v, [&](NodeId nbr, EdgeId e, const TiledSlot&) { fn(nbr, e); });
    }
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

  // Structure. Materialized: per-node incident lists and both endpoints of
  // every edge (ends_[2e], ends_[2e+1]). Tiled: the shared immutable
  // template, plus either its shared flat adjacency (at or below the size
  // cut) or each edge's smaller endpoint (above it), so edge decode is
  // O(degree of one endpoint) instead of a search.
  std::vector<std::vector<EdgeId>> incident_;
  std::vector<NodeId> ends_;
  std::shared_ptr<const TiledTopology> topo_;
  std::shared_ptr<const FlatAdjacency> flat_;
  std::vector<NodeId> lower_end_;

  // Mutable state, one layout for both representations.
  std::vector<Weight> weight_;     // true weight per edge
  std::vector<char> edge_active_;  // 1 byte per edge
  std::vector<char> node_active_;  // 1 byte per node
  std::uint64_t revision_ = 0;
  std::uint64_t structural_revision_ = 0;

  // Running aggregates over the usable-edge set, kept exact by the
  // mutators. Node mutators walk incident edges in ascending edge id
  // whatever the structure, so the floating-point trajectories of a tiled
  // graph and its materialized equivalent match bit for bit.
  EdgeId usable_edges_ = 0;
  Weight usable_weight_sum_ = 0;
  EdgeId zero_weight_edges_ = 0;  // every edge at weight 0, active or not

  // Touch tracking (see section comment above).
  bool track_touched_ = false;
  std::vector<char> node_dirty_;
  std::vector<char> edge_dirty_;
  std::vector<NodeId> touched_nodes_;
  std::vector<EdgeId> touched_edges_;

  // A materialized graph's lazily built flat adjacency. flat_structural_ is
  // the structural revision it was built at (kFlatStale = never built).
  static constexpr std::uint64_t kFlatStale = ~std::uint64_t{0};
  mutable Mutex flat_mu_;
  mutable std::atomic<std::uint64_t> flat_structural_{kFlatStale};
  mutable FlatAdjacency built_flat_ FPR_GUARDED_BY(flat_mu_);
};

}  // namespace fpr
