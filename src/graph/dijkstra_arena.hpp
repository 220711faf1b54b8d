#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace fpr {

/// Reusable scratch space for the Dijkstra engine: per-node labels
/// (dist/parent/parent_edge), a dirty list that makes resets cost
/// O(nodes actually touched) instead of O(graph), an epoch counter that
/// makes target-set setup/teardown O(1), and an indexed 4-ary min-heap with
/// decrease-key.
///
/// The distance array upholds one invariant between runs: every node not
/// touched by the current run holds kInfiniteWeight. begin_run() restores
/// it by rewriting only the previous run's dirty list, so the relaxation
/// test in the hot loop is a single array load (`nd < dist_[v]`) with no
/// validity branch, and a scoped run that touches 50 nodes of a 100k-node
/// graph pays for 50, not 100k. Target marks (dijkstra_within) use an
/// epoch-stamped array instead: marking and discarding the target set is
/// O(1) regardless of how many targets a caller passes. The arrays grow
/// monotonically to the largest graph seen and are never shrunk, making
/// repeated single-source runs allocation-free at steady state.
///
/// Heap entries carry their key inline, so sift comparisons stay within the
/// heap array instead of chasing dist_ at scattered indices; pos_ maps a
/// touched, unsettled node back to its entry for decrease-key, so each node
/// appears at most once. An entry packs (distance bits << 32 | node id)
/// into one 128-bit integer: distances are non-negative finite doubles,
/// whose IEEE-754 bit patterns order identically to their values, so a
/// single integer comparison reproduces the (dist, node) lexicographic
/// order — smaller node id first among equal distances — that the previous
/// std::priority_queue engine used. Settle order, and with it the parent
/// forest, is therefore bit-identical, and the tie-heavy comparisons of
/// uniform-weight graphs cost one predictable compare instead of a
/// FP-equality branch cascade.
///
/// One arena serves one thread. Use thread_local_instance() to get this
/// thread's pooled arena; that composes with the src/core/parallel pool
/// (each worker thread owns one arena for the pool's lifetime) and with
/// ad-hoc std::threads alike. Isolation is by construction (thread_local
/// storage), not by locking, so no member carries an FPR_GUARDED_BY from
/// core/annotations.hpp: an arena is never reachable from two threads.
class DijkstraArena {
 public:
  /// This thread's pooled arena.
  static DijkstraArena& thread_local_instance();

  /// Starts a new run over a graph of `node_count` nodes: grows the arrays
  /// if needed and invalidates every label from the previous run, paying
  /// only for the nodes that run actually touched.
  void begin_run(NodeId node_count);

  // ---- per-node labels (valid only when touched this run) ----

  bool touched(NodeId v) const { return dist_[static_cast<std::size_t>(v)] < kInfiniteWeight; }

  /// Current tentative distance; kInfiniteWeight when untouched — the
  /// invariant makes this an unconditional load.
  Weight dist(NodeId v) const { return dist_[static_cast<std::size_t>(v)]; }

  NodeId parent(NodeId v) const {
    return touched(v) ? origin_[static_cast<std::size_t>(v)].parent : kInvalidNode;
  }

  EdgeId parent_edge(NodeId v) const {
    return touched(v) ? origin_[static_cast<std::size_t>(v)].via : kInvalidEdge;
  }

  /// Records an improved label for v and inserts it into the heap (first
  /// touch this run) or sifts its entry up in place (decrease-key). Callers
  /// only invoke this after `d < dist(v)`, so `dist(v) == kInfiniteWeight`
  /// identifies the first touch.
  void relax(NodeId v, Weight d, NodeId par, EdgeId via) {
    const auto idx = static_cast<std::size_t>(v);
    const bool first_touch = dist_[idx] == kInfiniteWeight;
    dist_[idx] = d;
    origin_[idx] = {par, via};
    std::int32_t i;
    if (first_touch) {
      dirty_.push_back(v);
      i = static_cast<std::int32_t>(heap_.size());
      heap_.push_back(make_entry(d, v));
    } else {
      i = pos_[idx];
      heap_[static_cast<std::size_t>(i)] = make_entry(d, v);
    }
    sift_up(i);
  }

  // ---- heap ----

  bool heap_empty() const { return heap_.empty(); }
  NodeId heap_min() const { return entry_node(heap_.front()); }
  Weight heap_min_key() const { return entry_key(heap_.front()); }

  void heap_pop_min() {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down_from_root(last);
  }

  // ---- pending-target bookkeeping (dijkstra_within) ----

  void mark_pending(NodeId v) { pending_stamp_[static_cast<std::size_t>(v)] = epoch_; }
  bool pending(NodeId v) const { return pending_stamp_[static_cast<std::size_t>(v)] == epoch_; }
  void clear_pending(NodeId v) { pending_stamp_[static_cast<std::size_t>(v)] = 0; }

  NodeId capacity() const { return static_cast<NodeId>(dist_.size()); }

  /// Copies this run's labels for nodes [0, node_count) into the output
  /// arrays (resized to fit; reuse keeps their capacity). dist_ already
  /// holds kInfiniteWeight for untouched nodes, so the distance column is a
  /// wholesale copy; parent columns mask untouched entries branchlessly.
  void export_labels(NodeId node_count, std::vector<Weight>& dist, std::vector<NodeId>& parent,
                     std::vector<EdgeId>& parent_edge) const;

 private:
  // (dist bits << 32) | node id. Heap keys are always finite non-negative
  // (an infinite tentative distance can never win the strict-improvement
  // test), and non-negative doubles order as their uint64 bit patterns, so
  // one unsigned comparison yields the lexicographic (dist, node) order.
  // __extension__ keeps -Wpedantic quiet about the non-ISO 128-bit type;
  // both GCC and clang honor it, and both targets guarantee __int128.
  __extension__ typedef unsigned __int128 HeapEntry;
  struct Origin {
    NodeId parent;
    EdgeId via;
  };

  static HeapEntry make_entry(Weight d, NodeId v) {
    return (static_cast<HeapEntry>(std::bit_cast<std::uint64_t>(d)) << 32) |
           static_cast<std::uint32_t>(v);
  }
  static NodeId entry_node(HeapEntry e) {
    return static_cast<NodeId>(static_cast<std::uint32_t>(e));
  }
  static Weight entry_key(HeapEntry e) {
    return std::bit_cast<Weight>(static_cast<std::uint64_t>(e >> 32));
  }

  static bool entry_less(HeapEntry a, HeapEntry b) { return a < b; }

  void sift_up(std::int32_t i) {
    const HeapEntry e = heap_[static_cast<std::size_t>(i)];
    while (i > 0) {
      const std::int32_t par = (i - 1) >> 2;
      const HeapEntry p = heap_[static_cast<std::size_t>(par)];
      if (!entry_less(e, p)) break;
      heap_[static_cast<std::size_t>(i)] = p;
      pos_[static_cast<std::size_t>(entry_node(p))] = i;
      i = par;
    }
    heap_[static_cast<std::size_t>(i)] = e;
    pos_[static_cast<std::size_t>(entry_node(e))] = i;
  }

  /// Re-seats `e` (the former last entry) after the root was popped, using
  /// Floyd's bottom-up variant: pull the min-child chain up into the root
  /// hole all the way to a leaf without comparing against `e` (as the
  /// just-removed tail of the array, `e` almost always belongs near the
  /// bottom), then sift `e` up from the leaf hole — usually zero moves.
  void sift_down_from_root(HeapEntry e) {
    const auto size = static_cast<std::int32_t>(heap_.size());
    const HeapEntry* h = heap_.data();
    std::int32_t i = 0;
    while (true) {
      const std::int32_t c0 = 4 * i + 1;
      if (c0 >= size) break;
      std::int32_t best;
      if (c0 + 3 < size) {
        // Full 4-child block: tournament min with independent comparisons
        // (selects compile to conditional moves), instead of a serial
        // data-dependent scan whose branches mispredict on tie-heavy heaps.
        const std::int32_t b01 = entry_less(h[c0 + 1], h[c0]) ? c0 + 1 : c0;
        const std::int32_t b23 = entry_less(h[c0 + 3], h[c0 + 2]) ? c0 + 3 : c0 + 2;
        best = entry_less(h[b23], h[b01]) ? b23 : b01;
      } else {
        best = c0;
        for (std::int32_t c = c0 + 1; c < size; ++c) {
          if (entry_less(h[c], h[best])) best = c;
        }
      }
      const HeapEntry b = h[best];
      heap_[static_cast<std::size_t>(i)] = b;
      pos_[static_cast<std::size_t>(entry_node(b))] = i;
      i = best;
    }
    // `i` is now a leaf hole; place `e` and restore the invariant upward.
    heap_[static_cast<std::size_t>(i)] = e;
    pos_[static_cast<std::size_t>(entry_node(e))] = i;
    sift_up(i);
  }

  std::uint32_t epoch_ = 0;               // validates pending_stamp_ marks
  std::vector<std::uint32_t> pending_stamp_;
  std::vector<Weight> dist_;    // invariant: kInfiniteWeight unless touched
  std::vector<Origin> origin_;  // {parent, parent_edge}, written as one record
  std::vector<NodeId> dirty_;      // nodes touched by the current run
  std::vector<std::int32_t> pos_;  // heap index of a touched, unsettled node
  std::vector<HeapEntry> heap_;    // 4-ary implicit heap, keys inline
};

}  // namespace fpr
