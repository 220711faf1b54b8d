#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/path_oracle.hpp"
#include "graph/routing_tree.hpp"

namespace fpr {

namespace testhooks {
/// Test-only fault injection for the fuzz harness's mutation smoke test
/// (tests/check/mutation_smoke_test.cpp): when set, KMB picks the MAXIMUM
/// spanning tree of the distance graph instead of the minimum. The result
/// is still a valid spanning tree of the net — it passes every structural
/// oracle — but its cost blows through the 2*OPT bound, which is exactly
/// what the approximation-bound oracle must detect. Never set outside tests.
/// Atomic (not FPR_GUARDED_BY a mutex) because parallel-sweep workers read
/// it concurrently with the test writer; relaxed ordering suffices since the
/// flag carries no associated data.
extern std::atomic<bool> kmb_invert_mst_selection;
}  // namespace testhooks

/// The KMB kernel over one span set S, shared by every trial S + {t} of an
/// IGMST round (DESIGN.md §5).
///
/// A trial runs KMB's steps over the sorted trial set: Prim over the
/// distance graph, each MST edge expanded into the oracle's shortest path,
/// Kruskal by (weight, id) over the expanded edges, then the pendant
/// non-trial leaves pruned. It scores by cost alone and builds no
/// RoutingTree; the caller builds one for the trial it keeps.
///
/// Every read reaches the trees in the order and with the effects of
/// kmb()'s oracle reads, so every search grows, and every WorkBudget cut
/// lands, where the plain sequence puts it; even a repeated read is made,
/// because on a graph with zero-weight edges it can still grow a paused
/// tree. What the round saves is the rest of a read. It holds the span
/// set's cached trees, so a read of a span-set pair asks them what
/// PathOracle would ask, in the same order, without the cache lookups; a
/// path the Prim parent's own tree answers is memoized under the ordered
/// (parent, child) pair, since a settled node's path never changes. Reads
/// that involve the candidate, or a span node whose tree was not cached
/// when the round began, go to the oracle. Only the oracle's hit count sees
/// the difference. IGMST caches the span set's trees before each round.
///
/// The round holds the oracle and the graph by reference; both must outlive
/// it, and the graph must not change while it is in use.
class KmbRound {
 public:
  KmbRound(const Graph& g, std::span<const NodeId> span_set, PathOracle& oracle);

  /// KMB over the span set plus `t` (kInvalidNode: the span set alone).
  /// Leaves the tree's edges in `edges`, ascending, and returns its cost
  /// when it spans `net` (as RoutingTree::spans decides), else nullopt. The
  /// edges and cost are bit for bit those of kmb() over the same set.
  std::optional<Weight> score(NodeId t, std::span<const NodeId> net, std::vector<EdgeId>& edges);

 private:
  /// Distance between trial nodes a < b, read as (a, b).
  Weight distance(std::int32_t a, std::int32_t b);

  /// Appends the path between trial nodes a and b, read as (a, b).
  void append_path(std::int32_t a, std::int32_t b);

  /// Span-set index of trial index i, or -1 for the candidate.
  std::int32_t span_index(std::int32_t i) const {
    return i < cand_ ? i : (i == cand_ ? -1 : i - 1);
  }
  NodeId trial_node(std::int32_t i) const {
    const std::int32_t s = span_index(i);
    return s < 0 ? cand_node_ : span_[static_cast<std::size_t>(s)];
  }

  /// Kruskal, leaf pruning, spans verdict and cost over expanded_.
  std::optional<Weight> finish(std::span<const NodeId> net, bool inverted,
                               std::vector<EdgeId>& edges);

  const Graph* g_;
  PathOracle* oracle_;
  std::vector<NodeId> span_;  // sorted, distinct

  // The span set's cached trees (nullptr: not cached when the round began),
  // and the path memo over span-set indices, k x k row-major: the path of
  // (parent, child) as [begin, end) into path_pool_.
  std::vector<const ShortestPathTree*> trees_;
  struct PathSlot {
    std::int32_t begin = -1;  // -1: not read yet
    std::int32_t end = -1;
  };
  std::vector<PathSlot> path_;
  std::vector<EdgeId> path_pool_;

  // Per-trial state: the candidate's trial index (k when there is none) and
  // node, and buffers reused from trial to trial.
  std::int32_t cand_ = 0;
  NodeId cand_node_ = kInvalidNode;
  std::int32_t trial_size_ = 0;
  std::vector<Weight> matrix_;  // trial distance matrix
  std::vector<Weight> key_;
  std::vector<std::int32_t> from_;
  std::vector<char> in_tree_;
  std::vector<std::pair<std::int32_t, std::int32_t>> mst_;  // (parent, child)
  /// Dense indices for the ids a trial touches: a small open-addressing
  /// table whose slots an epoch stamp clears, so a trial costs nothing in
  /// the size of the graph.
  class DenseIds {
   public:
    /// Empties the table, sized for up to `keys` keys.
    void reset(std::size_t keys);
    /// Adds `key`; false if it was already in.
    bool insert(std::int32_t key);
    /// The index of `key`, adding it as the next one if absent.
    std::int32_t index(std::int32_t key);
    /// The index of `key`, or -1.
    std::int32_t find(std::int32_t key) const;
    std::int32_t size() const { return size_; }

   private:
    struct Slot {
      std::uint32_t epoch = 0;
      std::int32_t key = 0;
      std::int32_t index = 0;
    };
    std::size_t slot_of(std::int32_t key) const;
    std::vector<Slot> slots_;
    int shift_ = 28;
    std::uint32_t epoch_ = 0;
    std::int32_t size_ = 0;
  };
  struct Ranked {
    Weight key;
    EdgeId edge;
    std::int32_t index;
  };

  std::vector<EdgeId> expanded_;  // the MST paths' edges, repeats included
  DenseIds edge_ids_;
  DenseIds node_ids_;
  std::vector<EdgeId> unique_;       // usable expanded edges, first-seen order
  std::vector<std::int32_t> ends_;   // their endpoints' dense indices
  std::vector<Ranked> order_;
  std::vector<std::int32_t> uf_;
  std::vector<std::int32_t> degree_;
  std::vector<std::int32_t> incident_xor_;
  std::vector<char> keep_;
  std::vector<char> edge_in_;
  std::vector<std::int32_t> leaves_;
};

/// The graph Steiner tree heuristic of Kou, Markowsky and Berman [26]
/// (paper Appendix 8.1). Performance ratio 2*(1 - 1/L), L = max leaves in
/// any optimal solution.
///
/// Steps: (1) build the complete distance graph over the net, (2) MST it and
/// expand each MST edge into the corresponding shortest path, (3) MST the
/// resulting subgraph, (4) prune pendant non-terminal leaves. One KmbRound
/// over the net's distinct terminals does the work.
///
/// If the terminals are not mutually connected in the usable part of the
/// graph, the returned tree does not span the net (callers check spans()).
RoutingTree kmb(const Graph& g, std::span<const NodeId> net, PathOracle& oracle);

/// Convenience overload with a private oracle.
RoutingTree kmb(const Graph& g, std::span<const NodeId> net);

}  // namespace fpr
