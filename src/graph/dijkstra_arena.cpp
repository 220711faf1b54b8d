#include "graph/dijkstra_arena.hpp"

#include <algorithm>

namespace fpr {

DijkstraArena& DijkstraArena::thread_local_instance() {
  // fpr-lint: allow(global-state) per-thread scratch arena: epoch-versioned, fully reset per search, so reuse is observationally pure
  thread_local DijkstraArena arena;
  return arena;
}

void DijkstraArena::export_labels(NodeId node_count, std::vector<Weight>& dist,
                                  std::vector<NodeId>& parent,
                                  std::vector<EdgeId>& parent_edge) const {
  const auto n = static_cast<std::size_t>(node_count);
  dist.resize(n);
  parent.resize(n);
  parent_edge.resize(n);
  std::copy(dist_.begin(), dist_.begin() + static_cast<std::ptrdiff_t>(n), dist.begin());
  for (std::size_t v = 0; v < n; ++v) {
    const bool t = dist_[v] < kInfiniteWeight;
    parent[v] = t ? origin_[v].parent : kInvalidNode;
    parent_edge[v] = t ? origin_[v].via : kInvalidEdge;
  }
}

void DijkstraArena::begin_run(NodeId node_count) {
  const auto n = static_cast<std::size_t>(node_count);
  if (n > dist_.size()) {
    pending_stamp_.resize(n, 0);
    dist_.resize(n, kInfiniteWeight);  // establish the untouched invariant
    origin_.resize(n);
    pos_.resize(n);
  }
  // Restore the untouched invariant by rewriting exactly the nodes the
  // previous run dirtied — O(touched), not O(n).
  for (const NodeId v : dirty_) dist_[static_cast<std::size_t>(v)] = kInfiniteWeight;
  dirty_.clear();
  heap_.clear();
  settled_log_.clear();
  if (++epoch_ == 0) {
    // Epoch counter wrapped (once per 2^32 runs): pending marks from 4
    // billion runs ago could collide, so pay one real reinitialization.
    std::fill(pending_stamp_.begin(), pending_stamp_.end(), 0u);
    epoch_ = 1;
  }
}

}  // namespace fpr
