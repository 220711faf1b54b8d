#include "steiner/candidates.hpp"

#include <algorithm>

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

std::vector<NodeId> steiner_candidates(const Graph& g, std::span<const NodeId> terminals,
                                       PathOracle& oracle, CandidateStrategy strategy,
                                       int max_candidates) {
  std::vector<NodeId> sorted_terminals(terminals.begin(), terminals.end());
  std::sort(sorted_terminals.begin(), sorted_terminals.end());
  auto candidate = [&](NodeId v) {
    return g.node_active(v) &&
           !std::binary_search(sorted_terminals.begin(), sorted_terminals.end(), v);
  };
  std::vector<NodeId> nodes;

  switch (strategy) {
    case CandidateStrategy::kAllNodes: {
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (candidate(v)) nodes.push_back(v);
      }
      break;
    }
    case CandidateStrategy::kCorridor: {
      std::vector<NodeId> corridor;
      for (std::size_t i = 0; i < terminals.size(); ++i) {
        const auto& spt = oracle.from(terminals[i]);
        for (std::size_t j = i + 1; j < terminals.size(); ++j) {
          if (!spt.reached(terminals[j])) continue;
          for (const NodeId v : spt.path_nodes_to(terminals[j])) {
            corridor.push_back(v);
            for (const EdgeId e : g.incident_edges(v)) {
              if (g.edge_usable(e)) corridor.push_back(g.other_end(e, v));
            }
          }
        }
      }
      std::sort(corridor.begin(), corridor.end());
      corridor.erase(std::unique(corridor.begin(), corridor.end()), corridor.end());
      for (const NodeId v : corridor) {
        if (candidate(v)) nodes.push_back(v);
      }
      break;
    }
  }
  return subsample(std::move(nodes), max_candidates);
}

}  // namespace fpr
