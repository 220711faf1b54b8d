#include "steiner/candidates.hpp"

#include <algorithm>

#include "core/contract.hpp"

namespace fpr {

namespace {

std::vector<NodeId> subsample(std::vector<NodeId> nodes, int max_candidates) {
  if (max_candidates <= 0 || static_cast<int>(nodes.size()) <= max_candidates) return nodes;
  std::vector<NodeId> picked;
  picked.reserve(static_cast<std::size_t>(max_candidates));
  const double stride = static_cast<double>(nodes.size()) / max_candidates;
  for (int i = 0; i < max_candidates; ++i) {
    picked.push_back(nodes[static_cast<std::size_t>(i * stride)]);
  }
  return picked;
}

}  // namespace

SteinerCandidates::SteinerCandidates(const Graph& g, CandidateStrategy strategy,
                                     int max_candidates)
    : g_(&g), strategy_(strategy), max_candidates_(max_candidates) {}

std::vector<NodeId> SteinerCandidates::next(std::span<const NodeId> span_set,
                                            PathOracle& oracle) {
  const Graph& g = *g_;
  const std::size_t old = scanned_.size();
  FPR_CHECK(old <= span_set.size() &&
                std::equal(scanned_.begin(), scanned_.end(), span_set.begin()),
            "the span set must grow by appending nodes");
  scanned_.assign(span_set.begin(), span_set.end());

  std::vector<NodeId> sorted_span = scanned_;
  std::sort(sorted_span.begin(), sorted_span.end());
  auto candidate = [&](NodeId v) {
    return g.node_active(v) && !std::binary_search(sorted_span.begin(), sorted_span.end(), v);
  };
  std::vector<NodeId> nodes;

  switch (strategy_) {
    case CandidateStrategy::kAllNodes: {
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (candidate(v)) nodes.push_back(v);
      }
      break;
    }
    case CandidateStrategy::kCorridor: {
      // The full scan's reads in its i-major order. A pair read before
      // gives the nodes it gave then, so only the new pairs (j >= old) are
      // walked; the old ones are still asked reached(). On a graph with
      // zero-weight edges that read can grow a paused tree again: a later
      // zero-weight push can put a smaller key ahead of a popped node.
      fresh_.clear();
      for (std::size_t i = 0; i < scanned_.size(); ++i) {
        const auto& spt = oracle.from(scanned_[i]);
        for (std::size_t j = i + 1; j < scanned_.size(); ++j) {
          if (!spt.reached(scanned_[j]) || j < old) continue;
          for (const NodeId v : spt.path_nodes_to(scanned_[j])) {
            fresh_.push_back(v);
            for (const EdgeId e : g.incident_edges(v)) {
              if (g.edge_usable(e)) fresh_.push_back(g.other_end(e, v));
            }
          }
        }
      }
      std::sort(fresh_.begin(), fresh_.end());
      fresh_.erase(std::unique(fresh_.begin(), fresh_.end()), fresh_.end());
      const auto mid = static_cast<std::ptrdiff_t>(corridor_.size());
      corridor_.insert(corridor_.end(), fresh_.begin(), fresh_.end());
      std::inplace_merge(corridor_.begin(), corridor_.begin() + mid, corridor_.end());
      corridor_.erase(std::unique(corridor_.begin(), corridor_.end()), corridor_.end());
      for (const NodeId v : corridor_) {
        if (candidate(v)) nodes.push_back(v);
      }
      break;
    }
  }
  return subsample(std::move(nodes), max_candidates_);
}

std::vector<NodeId> steiner_candidates(const Graph& g, std::span<const NodeId> terminals,
                                       PathOracle& oracle, CandidateStrategy strategy,
                                       int max_candidates) {
  return SteinerCandidates(g, strategy, max_candidates).next(terminals, oracle);
}

}  // namespace fpr
