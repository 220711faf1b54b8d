#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/types.hpp"

namespace fpr {

/// The search state of one Dijkstra run: per-node labels
/// (dist/parent/parent_edge) and an indexed 4-ary min-heap with
/// decrease-key. A ShortestPathTree owns its arena and keeps it after the
/// run stops, so a paused run resumes exactly where it stopped: the heap
/// still holds the frontier and every label is where the run left it
/// (DESIGN.md §8). Nothing is exported or copied when a run ends.
///
/// The distance array upholds one invariant: every node the run has not
/// touched holds kInfiniteWeight, so the relaxation test in the hot loop is
/// a single array load (`nd < dist_[v]`) with no validity branch. The
/// parent and heap-position arrays are left uninitialized and read only for
/// touched nodes, so a fresh run over a large graph writes one array, not
/// three, and only faults in the pages its ball touches.
///
/// Heap entries carry their key inline, so sift comparisons stay within the
/// heap array instead of chasing dist_ at scattered indices; pos_ maps a
/// queued node back to its entry for decrease-key, so each node appears at
/// most once. An entry packs (key bits << 32 | node id) into one
/// 128-bit integer: keys are non-negative finite doubles, whose IEEE-754 bit
/// patterns order identically to their values, so a single integer
/// comparison reproduces the (key, node) lexicographic order — smaller node
/// id first among equal keys — that the historical std::priority_queue
/// engine used. Settle order, and with it the parent forest, is therefore
/// bit-identical, and the tie-heavy comparisons of uniform-weight graphs
/// cost one predictable compare instead of a FP-equality branch cascade.
///
/// The settled set is recorded, not derived from the heap: each pop writes
/// the node's pop index into its pos_ slot, free once the node leaves the
/// heap (see mark_popped). A key test would not do: over a zero-weight edge
/// a pop can push a smaller (key, id) than its own, and the goal-directed
/// mode keys by f = d + h, not by the label.
///
/// An arena belongs to one tree, and a tree to one thread at a time
/// (reading a paused tree may grow it), so no member carries an
/// FPR_GUARDED_BY from core/annotations.hpp.
class DijkstraArena {
 public:
  /// Starts a new run over a graph of `node_count` nodes: (re)allocates the
  /// arrays if the graph is larger than any this arena has seen, and resets
  /// every distance to kInfiniteWeight.
  void begin_run(NodeId node_count);

  /// Allocates the per-node arrays of a run over `node_count` nodes, so
  /// that begin_run does not allocate afterwards. The heap is left to grow
  /// with the frontier: reserving it for every node measured +1 MiB of peak
  /// RSS on busc, where the frontier stays far below the node count.
  void reserve(NodeId node_count);

  // ---- per-node labels ----

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

  /// Records an improved label d for v and inserts it into the heap under
  /// `key` (first touch this run) or sifts its entry up in place
  /// (decrease-key). Plain Dijkstra keys by the label itself; the
  /// goal-directed mode keys by d + h(v). Callers only invoke this after
  /// `d < dist(v)`, so `dist(v) == kInfiniteWeight` identifies the first
  /// touch.
  void relax(NodeId v, Weight d, Weight key, NodeId par, EdgeId via) {
    const auto idx = static_cast<std::size_t>(v);
    const bool first_touch = dist_[idx] == kInfiniteWeight;
    dist_[idx] = d;
    origin_[idx] = {par, via};
    std::int32_t i;
    if (first_touch) {
      i = static_cast<std::int32_t>(heap_.size());
      heap_.push_back(make_entry(key, v));
    } else {
      i = pos_[idx];
      heap_[static_cast<std::size_t>(i)] = make_entry(key, v);
    }
    sift_up(i);
  }

  /// Re-points v's label at `par` via `via` without changing its distance
  /// (the goal-directed mode's tie-break recovery, see dijkstra.cpp).
  void set_origin(NodeId v, NodeId par, EdgeId via) {
    origin_[static_cast<std::size_t>(v)] = {par, via};
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

  // ---- settled set ----

  /// A popped node's pos_ slot is free, so it holds the node's pop index
  /// (bit-inverted, so it reads negative). The tree counts the pops it has
  /// drained, and every node popped before that count is settled: a plain
  /// pop is drained at once, a goal-directed one once the run of pops at
  /// its key has drained.
  void mark_popped(NodeId v, std::int32_t index) { pos_[static_cast<std::size_t>(v)] = ~index; }
  bool popped(NodeId v) const { return touched(v) && pos_[static_cast<std::size_t>(v)] < 0; }
  bool settled_by_pop(NodeId v, std::int32_t drained_pops) const {
    return popped(v) && ~pos_[static_cast<std::size_t>(v)] < drained_pops;
  }

 private:
  // (key bits << 32) | node id. Heap keys are always finite non-negative
  // (an infinite tentative distance can never win the strict-improvement
  // test), and non-negative doubles order as their uint64 bit patterns, so
  // one unsigned comparison yields the lexicographic (key, node) order.
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

  /// (Re)allocates origin_ and pos_ when `node_count` exceeds capacity_.
  void allocate_labels(NodeId node_count);

  std::size_t capacity_ = 0;
  std::vector<Weight> dist_;          // invariant: kInfiniteWeight unless touched
  std::unique_ptr<Origin[]> origin_;  // {parent, parent_edge}; valid where touched
  std::unique_ptr<std::int32_t[]> pos_;  // heap index while queued; ~pop index once popped
  std::vector<HeapEntry> heap_;          // 4-ary implicit heap, keys inline
};

/// Per-thread scratch for one settle call: an epoch-stamped target-mark
/// array, so a scoped run marks and discards its pending targets in O(1)
/// regardless of how many a caller passes. It does not outlive the call,
/// so unlike a tree's labels it can be pooled per thread; the array grows
/// monotonically to the largest graph seen.
class DijkstraScratch {
 public:
  /// This thread's pooled scratch.
  static DijkstraScratch& thread_local_instance();

  /// Starts a new call over a graph of `node_count` nodes: invalidates every
  /// mark in O(1).
  void begin(NodeId node_count);

  void mark_pending(NodeId v) { pending_stamp_[static_cast<std::size_t>(v)] = epoch_; }
  bool pending(NodeId v) const { return pending_stamp_[static_cast<std::size_t>(v)] == epoch_; }
  void clear_pending(NodeId v) { pending_stamp_[static_cast<std::size_t>(v)] = 0; }

 private:
  std::uint32_t epoch_ = 0;  // validates pending_stamp_ marks
  std::vector<std::uint32_t> pending_stamp_;
};

}  // namespace fpr
