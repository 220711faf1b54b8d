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
  const auto kept = static_cast<std::ptrdiff_t>(old);
  sorted_span_.insert(sorted_span_.end(), span_set.begin() + kept, span_set.end());
  std::sort(sorted_span_.begin() + kept, sorted_span_.end());
  std::inplace_merge(sorted_span_.begin(), sorted_span_.begin() + kept, sorted_span_.end());

  auto candidate = [&](NodeId v) {
    return g.node_active(v) && !std::binary_search(sorted_span_.begin(), sorted_span_.end(), v);
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
      // The full scan's reads of the new pairs (j >= old), in its i-major
      // order. A pair read before gives the nodes it gave then, and reading
      // a settled node grows nothing, so the old pairs are not read again.
      // A node joins fresh_ once, on its first sighting, so only the
      // corridor's new nodes are sorted.
      in_corridor_.resize(static_cast<std::size_t>(g.node_count()), 0);
      const auto add = [this](NodeId v) {
        char& seen = in_corridor_[static_cast<std::size_t>(v)];
        if (seen == 0) {
          seen = 1;
          fresh_.push_back(v);
        }
      };
      fresh_.clear();
      for (std::size_t i = 0; i < scanned_.size(); ++i) {
        const auto& spt = oracle.from(scanned_[i]);
        for (std::size_t j = std::max(i + 1, old); j < scanned_.size(); ++j) {
          if (!spt.reached(scanned_[j])) continue;
          for (const NodeId v : spt.path_nodes_to(scanned_[j])) {
            add(v);
            for (const EdgeId e : g.incident_edges(v)) {
              if (g.edge_usable(e)) add(g.other_end(e, v));
            }
          }
        }
      }
      std::sort(fresh_.begin(), fresh_.end());
      const auto mid = static_cast<std::ptrdiff_t>(corridor_.size());
      corridor_.insert(corridor_.end(), fresh_.begin(), fresh_.end());
      std::inplace_merge(corridor_.begin(), corridor_.begin() + mid, corridor_.end());
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
