#include "arbor/idom.hpp"

#include <vector>

#include "arbor/arbor_common.hpp"
#include "arbor/dom.hpp"

namespace fpr {

RoutingTree idom(const Graph& g, std::span<const NodeId> net, PathOracle& oracle,
                 const IdomOptions& options) {
  if (net.empty()) return RoutingTree(g, {});
  const std::vector<NodeId> terminals = canonical_terminals(net[0], net);

  RoutingTree best = dom(g, terminals, oracle);
  if (!best.spans(terminals)) return best;
  Weight best_cost = best.cost();

  // With two terminals no candidate can win (see igmst.cpp): DOM's tree is
  // already a shortest source-sink path.
  const bool candidates_can_help = terminals.size() > 2;
  std::vector<NodeId> span_set = terminals;  // N + S, source kept first
  int iterations = 0;
  while (candidates_can_help &&
         (options.max_iterations == 0 || iterations < options.max_iterations)) {
    ++iterations;
    // Pre-warm terminal trees so candidate evaluations are cache-served
    // (see the matching comment in igmst.cpp).
    for (const NodeId v : span_set) oracle.from(v);
    const std::vector<NodeId> candidates =
        steiner_candidates(g, span_set, oracle, options.candidates, options.max_candidates);

    NodeId best_t = kInvalidNode;
    Weight best_t_cost = best_cost;
    RoutingTree best_t_tree(g, {});
    std::vector<NodeId> trial = span_set;
    trial.push_back(kInvalidNode);  // slot for the candidate under test
    for (const NodeId t : candidates) {
      trial.back() = t;
      RoutingTree tree = dom(g, trial, oracle);
      if (!tree.spans(terminals)) continue;
      const Weight c = tree.cost();
      if (weight_lt(c, best_t_cost)) {
        best_t_cost = c;
        best_t = t;
        best_t_tree = std::move(tree);
      }
    }
    if (best_t == kInvalidNode) break;
    span_set.push_back(best_t);
    best = std::move(best_t_tree);
    best_cost = best_t_cost;
  }

  // Branches that end at adopted Steiner nodes are pure overhead once the
  // real sinks are spanned; trimming them never disturbs the sinks' paths.
  best.prune_leaves(terminals);
  return best;
}

RoutingTree idom(const Graph& g, std::span<const NodeId> net) {
  PathOracle oracle(g);
  return idom(g, net, oracle);
}

}  // namespace fpr
