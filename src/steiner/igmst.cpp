#include "steiner/igmst.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "steiner/kmb.hpp"
#include "steiner/zelikovsky.hpp"

namespace fpr {

namespace {

/// The round's scorer: H's own when it has one, else one that builds each
/// trial's tree.
TrialScorer start_round(const Graph& g, std::span<const NodeId> terminals,
                        const GmstHeuristic& heuristic, PathOracle& oracle,
                        std::span<const NodeId> span_set) {
  if (heuristic.round) return heuristic.round(g, span_set, terminals, oracle);
  std::vector<NodeId> trial(span_set.begin(), span_set.end());
  trial.push_back(kInvalidNode);  // slot for the candidate under test
  return [&g, &heuristic, &oracle, terminals, trial = std::move(trial)](
             NodeId t, std::vector<EdgeId>& edges) mutable -> std::optional<Weight> {
    trial.back() = t;
    const RoutingTree tree = heuristic.build(g, trial, oracle);
    if (!tree.spans(terminals)) return std::nullopt;
    edges = tree.edges();
    return tree.cost();
  };
}

/// One sequential round: adopt the single best candidate (Fig. 5's loop
/// body). Only the winner's tree is built. Returns true if a candidate was
/// adopted.
bool adopt_best_candidate(const Graph& g, TrialScorer& score,
                          std::span<const NodeId> candidates, std::vector<NodeId>& span_set,
                          RoutingTree& best, Weight& best_cost) {
  NodeId best_t = kInvalidNode;
  Weight best_t_cost = best_cost;
  std::vector<EdgeId> edges;
  std::vector<EdgeId> best_t_edges;
  for (const NodeId t : candidates) {
    const std::optional<Weight> c = score(t, edges);
    if (c && weight_lt(*c, best_t_cost)) {
      best_t_cost = *c;
      best_t = t;
      std::swap(edges, best_t_edges);
    }
  }
  if (best_t == kInvalidNode) return false;
  span_set.push_back(best_t);
  best = RoutingTree(g, std::move(best_t_edges));
  best_cost = best_t_cost;
  return true;
}

/// One batched round: score every candidate once against the current
/// solution, then sweep them in decreasing-savings order, adopting each iff
/// a single re-evaluation confirms it still improves on the batch so far.
/// Returns true if any candidate was adopted.
bool adopt_candidate_batch(const Graph& g, std::span<const NodeId> terminals,
                           const GmstHeuristic& heuristic, PathOracle& oracle,
                           TrialScorer& score, std::span<const NodeId> candidates,
                           std::vector<NodeId>& span_set, RoutingTree& best, Weight& best_cost) {
  struct Scored {
    NodeId node;
    Weight cost;
  };
  std::vector<Scored> scored;
  std::vector<EdgeId> edges;
  for (const NodeId t : candidates) {
    const std::optional<Weight> c = score(t, edges);
    if (c && weight_lt(*c, best_cost)) scored.push_back(Scored{t, *c});
  }
  if (scored.empty()) return false;
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) { return a.cost < b.cost; });

  bool adopted_any = false;
  for (const auto& [t, unused_score] : scored) {
    (void)unused_score;
    std::vector<NodeId> with_t = span_set;
    with_t.push_back(t);
    RoutingTree tree = heuristic.build(g, with_t, oracle);
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
  RoutingTree best = heuristic.build(g, terminals, oracle);
  if (!best.spans(terminals)) return best;  // unroutable: report H's attempt
  Weight best_cost = best.cost();

  // With two terminals no candidate can win: every tree spanning them
  // contains a path of cost at least d(s, t), which H's tree already is.
  // Skipping the loop also skips pre-warming the second terminal's tree.
  const bool candidates_can_help = terminals.size() > 2;
  std::vector<NodeId> span_set(terminals.begin(), terminals.end());  // N + S
  SteinerCandidates candidates_of(g, options.candidates, options.max_candidates);
  int iterations = 0;
  while (candidates_can_help &&
         (options.max_iterations == 0 || iterations < options.max_iterations)) {
    ++iterations;
    // Pre-warm every terminal's SSSP tree so each candidate evaluation is
    // served entirely from the cache (otherwise pairs between a candidate
    // and the one terminal the distance-graph construction never rooted at
    // trigger a Dijkstra from the candidate — one per evaluation).
    for (const NodeId v : span_set) oracle.from(v);
    const std::vector<NodeId> candidates = candidates_of.next(span_set, oracle);
    TrialScorer score = start_round(g, terminals, heuristic, oracle, span_set);

    const bool adopted =
        options.batched
            ? adopt_candidate_batch(g, terminals, heuristic, oracle, score, candidates,
                                    span_set, best, best_cost)
            : adopt_best_candidate(g, score, candidates, span_set, best, best_cost);
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
  const GmstHeuristic by_kmb(
      [](const Graph& gg, std::span<const NodeId> nn, PathOracle& oo) { return kmb(gg, nn, oo); },
      [](const Graph& gg, std::span<const NodeId> span_set, std::span<const NodeId> nn,
         PathOracle& oo) -> TrialScorer {
        return [round = KmbRound(gg, span_set, oo), nn](NodeId t,
                                                        std::vector<EdgeId>& edges) mutable {
          return round.score(t, nn, edges);
        };
      });
  return igmst(g, net, by_kmb, oracle, options);
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
