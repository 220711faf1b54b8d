#include "graph/path_oracle.hpp"

#include "core/contract.hpp"

namespace fpr {

void PathOracle::refresh() {
  if (revision_ != g_->revision()) {
    cache_.clear();
    revision_ = g_->revision();
  }
}

NodeId PathOracle::point_to_point_goal(NodeId source) const {
  if (!bound_ || scope_.size() != 2 || scope_[0] == scope_[1]) return kInvalidNode;
  if (source == scope_[0]) return scope_[1];
  if (source == scope_[1]) return scope_[0];
  return kInvalidNode;
}

const ShortestPathTree& PathOracle::from(NodeId source) {
  refresh();
  auto it = cache_.find(source);
  if (it == cache_.end()) {
    auto tree = std::make_unique<ShortestPathTree>();
    if (scope_.empty()) {
      dijkstra(*g_, source, *tree, budget_);
    } else if (const NodeId goal = point_to_point_goal(source); goal != kInvalidNode) {
      dijkstra_to(*g_, source, goal, *bound_, *tree, budget_);
    } else {
      dijkstra_within(*g_, source, scope_, *tree, 1.3, 4.0, budget_);
    }
    it = cache_.emplace(source, std::move(tree)).first;
    ++runs_;
    ++misses_;
  } else {
    ++hits_;
  }
  return *it->second;
}

const ShortestPathTree& PathOracle::from_knowing(NodeId source, NodeId probe) {
  const ShortestPathTree& tree = from(source);
  if (tree.knows(probe)) return tree;
  // An exhausted budget cannot buy a better tree: the upgrade run would
  // abort before its first expansion, throwing away the partial labels we
  // already paid for. Return the partial tree; the caller sees a tentative
  // or infinite distance and degrades into an "unreachable" answer.
  if (budget_exhausted()) return tree;
  // The bounded tree stopped short of the probe: upgrade to a complete run.
  // Run INTO the cached object (not a pointer swap) so references handed
  // out by from() earlier stay valid — algorithms hold the source tree
  // across queries that may trigger upgrades.
  auto it = cache_.find(source);
  dijkstra(*g_, source, *it->second, budget_);
  ++runs_;
  ++misses_;
  return *it->second;
}

const ShortestPathTree* PathOracle::cached(NodeId source) {
  refresh();
  const auto it = cache_.find(source);
  return it == cache_.end() ? nullptr : it->second.get();
}

Weight PathOracle::distance(NodeId u, NodeId v) {
  refresh();
  if (auto it = cache_.find(u); it != cache_.end() && it->second->knows(v)) {
    ++hits_;
    return it->second->distance(v);
  }
  if (auto it = cache_.find(v); it != cache_.end() && it->second->knows(u)) {
    ++hits_;
    return it->second->distance(u);
  }
  return from_knowing(u, v).distance(v);
}

std::vector<EdgeId> PathOracle::path_between(NodeId a, NodeId b) {
  FPR_CHECK(a != kInvalidNode && b != kInvalidNode,
            "path_between(" << a << ", " << b << ") requires valid node ids");
  if (a == b) return {};
  if (const ShortestPathTree* spt = cached(a); spt != nullptr && spt->knows(b)) {
    ++hits_;
    return spt->reached(b) ? spt->path_edges_to(b) : std::vector<EdgeId>{};
  }
  if (const ShortestPathTree* spt = cached(b); spt != nullptr && spt->knows(a)) {
    ++hits_;
    return spt->reached(a) ? spt->path_edges_to(a) : std::vector<EdgeId>{};
  }
  const auto& spt = from_knowing(a, b);
  return spt.reached(b) ? spt.path_edges_to(b) : std::vector<EdgeId>{};
}

void PathOracle::clear() {
  cache_.clear();
  runs_ = 0;
  hits_ = 0;
  misses_ = 0;
  revision_ = g_->revision();
}

}  // namespace fpr
