#include "graph/dijkstra_arena.hpp"

#include <algorithm>
#include <memory>

namespace fpr {

void DijkstraArena::begin_run(NodeId node_count) {
  const auto n = static_cast<std::size_t>(node_count);
  if (n > capacity_) {
    // Default-initialized: read only where touched, so never cleared.
    origin_ = std::make_unique_for_overwrite<Origin[]>(n);
    pos_ = std::make_unique_for_overwrite<std::int32_t[]>(n);
    capacity_ = n;
  }
  dist_.assign(n, kInfiniteWeight);  // establish the untouched invariant
  heap_.clear();
}

DijkstraScratch& DijkstraScratch::thread_local_instance() {
  // fpr-lint: allow(global-state) per-thread scratch: epoch-versioned target marks, fully reset per settle call, so reuse is observationally pure
  thread_local DijkstraScratch scratch;
  return scratch;
}

void DijkstraScratch::begin(NodeId node_count) {
  const auto n = static_cast<std::size_t>(node_count);
  if (n > pending_stamp_.size()) pending_stamp_.resize(n, 0);
  if (++epoch_ == 0) {
    // Epoch counter wrapped (once per 2^32 calls): marks from 4 billion
    // calls ago could collide, so pay one real reinitialization.
    std::fill(pending_stamp_.begin(), pending_stamp_.end(), 0u);
    epoch_ = 1;
  }
}

}  // namespace fpr
