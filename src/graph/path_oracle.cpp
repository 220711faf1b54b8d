#include "graph/path_oracle.hpp"

#include <algorithm>

#include "core/contract.hpp"

namespace fpr {

void PathOracle::refresh() {
  if (revision_ != g_->revision()) {
    for (const auto& [source, tree] : cache_) {  // keep their growth counts
      retired_resumes_ += tree->resumes();
      retired_resume_pops_ += tree->resume_pops();
    }
    cache_.clear();
    revision_ = g_->revision();
  }
}

void PathOracle::set_budget(WorkBudget* budget) {
  budget_ = budget;
  for (const auto& [source, tree] : cache_) tree->charge_growth_to(budget);
}

std::int64_t PathOracle::resumes() const {
  std::int64_t n = retired_resumes_;
  for (const auto& [source, tree] : cache_) n += tree->resumes();
  return n;
}

std::int64_t PathOracle::resume_pops() const {
  std::int64_t n = retired_resume_pops_;
  for (const auto& [source, tree] : cache_) n += tree->resume_pops();
  return n;
}

bool PathOracle::goal_directed(NodeId source) const {
  if (!bound_) return false;
  // A tree with a single goal reads near the one path it searches.
  NodeId goal = kInvalidNode;
  bool several = false;
  for (const NodeId v : scope_) {
    if (v == source || v == goal) continue;
    if (goal != kInvalidNode) {
      several = true;
      break;
    }
    goal = v;
  }
  if (!several) return true;
  // Below the flat-adjacency cut the keyed loop costs more per pop than it
  // saves on the nets measured there (DESIGN.md §8).
  if (g_->edge_count() <= Graph::kFlatAdjacencyMaxEdges) return false;
  // Above it an aimed pop costs more than a plain one (kMaxAimedShare).
  std::vector<NodeId> goals;
  for (const NodeId v : scope_) {
    if (v != source && std::find(goals.begin(), goals.end(), v) == goals.end()) goals.push_back(v);
  }
  return bound_->aimed_share(source, goals) < kMaxAimedShare;
}

const ShortestPathTree& PathOracle::from(NodeId source) {
  refresh();
  auto it = cache_.find(source);
  if (it == cache_.end()) {
    auto tree = std::make_unique<ShortestPathTree>();
    if (scope_.empty()) {
      dijkstra(*g_, source, *tree, budget_);
    } else {
      // Paused once the last target settles, aimed at the scope where that
      // pays; reads grow it.
      dijkstra_within_paused(*g_, source, scope_, *tree, budget_,
                             goal_directed(source) ? &*bound_ : nullptr);
    }
    run_pops_ += tree->run_pops();
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
  // An exhausted budget cannot buy a better tree: the upgrade would stop
  // before its first expansion. Return the partial tree; the caller sees a
  // tentative or infinite distance and degrades into an "unreachable"
  // answer.
  if (budget_exhausted()) return tree;
  // A paused tree grows to any probe, so only a sealed tree (an unscoped
  // run a budget stopped) stops short of one. Re-run it unbounded in place
  // (not a pointer swap) so references handed out by from() earlier stay
  // valid — algorithms hold the source tree across queries that may
  // upgrade it.
  ShortestPathTree& upgraded = *cache_.find(source)->second;
  dijkstra(*g_, source, upgraded, budget_);
  run_pops_ += upgraded.run_pops();
  ++runs_;
  ++misses_;
  return upgraded;
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
  run_pops_ = 0;
  retired_resumes_ = 0;
  retired_resume_pops_ = 0;
  revision_ = g_->revision();
}

}  // namespace fpr
