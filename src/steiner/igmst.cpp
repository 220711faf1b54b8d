#include "steiner/igmst.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "steiner/kmb.hpp"
#include "steiner/zelikovsky.hpp"

namespace fpr {

namespace {

/// One sequential round: adopt the single best candidate (Fig. 5's loop
/// body). Returns true if a candidate was adopted.
bool adopt_best_candidate(const Graph& g, std::span<const NodeId> terminals,
                          const GmstHeuristic& heuristic, PathOracle& oracle,
                          std::span<const NodeId> candidates, std::vector<NodeId>& span_set,
                          RoutingTree& best, Weight& best_cost) {
  NodeId best_t = kInvalidNode;
  Weight best_t_cost = best_cost;
  RoutingTree best_t_tree(g, {});
  std::vector<NodeId> trial = span_set;
  trial.push_back(kInvalidNode);  // slot for the candidate under test
  for (const NodeId t : candidates) {
    trial.back() = t;
    RoutingTree tree = heuristic(g, trial, oracle);
    if (!tree.spans(terminals)) continue;
    const Weight c = tree.cost();
    if (weight_lt(c, best_t_cost)) {
      best_t_cost = c;
      best_t = t;
      best_t_tree = std::move(tree);
    }
  }
  if (best_t == kInvalidNode) return false;
  span_set.push_back(best_t);
  best = std::move(best_t_tree);
  best_cost = best_t_cost;
  return true;
}

/// One batched round: score every candidate once against the current
/// solution, then sweep them in decreasing-savings order, adopting each iff
/// a single re-evaluation confirms it still improves on the batch so far.
/// Returns true if any candidate was adopted.
bool adopt_candidate_batch(const Graph& g, std::span<const NodeId> terminals,
                           const GmstHeuristic& heuristic, PathOracle& oracle,
                           std::span<const NodeId> candidates, std::vector<NodeId>& span_set,
                           RoutingTree& best, Weight& best_cost) {
  struct Scored {
    NodeId node;
    Weight cost;
  };
  std::vector<Scored> scored;
  std::vector<NodeId> trial = span_set;
  trial.push_back(kInvalidNode);
  for (const NodeId t : candidates) {
    trial.back() = t;
    const RoutingTree tree = heuristic(g, trial, oracle);
    if (!tree.spans(terminals)) continue;
    const Weight c = tree.cost();
    if (weight_lt(c, best_cost)) scored.push_back(Scored{t, c});
  }
  if (scored.empty()) return false;
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) { return a.cost < b.cost; });

  bool adopted_any = false;
  for (const auto& [t, unused_score] : scored) {
    (void)unused_score;
    std::vector<NodeId> with_t = span_set;
    with_t.push_back(t);
    RoutingTree tree = heuristic(g, with_t, oracle);
    if (!tree.spans(terminals)) continue;
    const Weight c = tree.cost();
    if (!weight_lt(c, best_cost)) continue;  // interferes with the batch
    span_set = std::move(with_t);
    best = std::move(tree);
    best_cost = c;
    adopted_any = true;
  }
  return adopted_any;
}

}  // namespace

RoutingTree igmst_ordered(const Graph& g, std::span<const NodeId> terminals,
                          const GmstHeuristic& heuristic, PathOracle& oracle,
                          const IgmstOptions& options) {
  RoutingTree best = heuristic(g, terminals, oracle);
  if (!best.spans(terminals)) return best;  // unroutable: report H's attempt
  Weight best_cost = best.cost();

  // With two terminals no candidate can win: every tree spanning them
  // contains a path of cost at least d(s, t), which H's tree already is.
  // Skipping the loop also skips pre-warming the second terminal's tree.
  const bool candidates_can_help = terminals.size() > 2;
  std::vector<NodeId> span_set(terminals.begin(), terminals.end());  // N + S
  int iterations = 0;
  while (candidates_can_help &&
         (options.max_iterations == 0 || iterations < options.max_iterations)) {
    ++iterations;
    // Pre-warm every terminal's SSSP tree so each candidate evaluation is
    // served entirely from the cache (otherwise pairs between a candidate
    // and the one terminal the distance-graph construction never rooted at
    // trigger a Dijkstra from the candidate — one per evaluation).
    for (const NodeId v : span_set) oracle.from(v);
    const std::vector<NodeId> candidates =
        steiner_candidates(g, span_set, oracle, options.candidates, options.max_candidates);

    const bool adopted =
        options.batched
            ? adopt_candidate_batch(g, terminals, heuristic, oracle, candidates, span_set,
                                    best, best_cost)
            : adopt_best_candidate(g, terminals, heuristic, oracle, candidates, span_set,
                                   best, best_cost);
    if (!adopted) break;  // no candidate has positive savings
  }

  // Branches that end at adopted Steiner nodes are pure overhead once the
  // terminals are spanned; trimming them never lengthens a terminal's path.
  best.prune_leaves(terminals);
  return best;
}

RoutingTree igmst(const Graph& g, std::span<const NodeId> net, const GmstHeuristic& heuristic,
                  PathOracle& oracle, const IgmstOptions& options) {
  return igmst_ordered(g, distinct_terminals(net), heuristic, oracle, options);
}

RoutingTree ikmb(const Graph& g, std::span<const NodeId> net, PathOracle& oracle,
                 const IgmstOptions& options) {
  return igmst(
      g, net,
      [](const Graph& gg, std::span<const NodeId> nn, PathOracle& oo) { return kmb(gg, nn, oo); },
      oracle, options);
}

RoutingTree izel(const Graph& g, std::span<const NodeId> net, PathOracle& oracle,
                 const IgmstOptions& options) {
  // One median memo shared across all of this IZEL run's ZEL evaluations:
  // candidate evaluations mostly re-ask for the same terminal triples.
  auto memo = std::make_shared<ZelMemo>();
  return igmst(
      g, net,
      [memo](const Graph& gg, std::span<const NodeId> nn, PathOracle& oo) {
        return zelikovsky(gg, nn, oo, memo.get());
      },
      oracle, options);
}

}  // namespace fpr
