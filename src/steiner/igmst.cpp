#include "steiner/igmst.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "steiner/kmb.hpp"
#include "steiner/zelikovsky.hpp"

namespace fpr {

namespace {

/// Each scored trial's edges, back to back, and where candidate i's are.
class TrialEdges {
 public:
  void reset(std::size_t candidates) {
    pool_.clear();
    where_.assign(candidates, {0, 0});
  }
  void keep(std::size_t i, std::span<const EdgeId> edges) {
    const auto begin = static_cast<std::int32_t>(pool_.size());
    pool_.insert(pool_.end(), edges.begin(), edges.end());
    where_[i] = {begin, static_cast<std::int32_t>(pool_.size())};
  }
  std::span<const EdgeId> of(std::size_t i) const {
    const auto [begin, end] = where_[i];
    return std::span<const EdgeId>(pool_).subspan(static_cast<std::size_t>(begin),
                                                  static_cast<std::size_t>(end - begin));
  }

 private:
  std::vector<EdgeId> pool_;
  std::vector<std::pair<std::int32_t, std::int32_t>> where_;
};

/// The scorer of an H without one: builds each trial's tree.
class BuildingScorer final : public TrialScorer {
 public:
  BuildingScorer(const Graph& g, std::span<const NodeId> net, const GmstHeuristic& heuristic,
                 PathOracle& oracle)
      : g_(&g), net_(net), heuristic_(&heuristic), oracle_(&oracle) {}

  void score(std::span<const NodeId> span_set, std::span<const NodeId> candidates,
             std::vector<std::optional<Weight>>& costs) override {
    costs.assign(candidates.size(), std::nullopt);
    kept_.reset(candidates.size());
    trial_.assign(span_set.begin(), span_set.end());
    trial_.push_back(kInvalidNode);  // slot for the candidate under test
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      trial_.back() = candidates[i];
      const RoutingTree tree = heuristic_->build(*g_, trial_, *oracle_);
      if (!tree.spans(net_)) continue;
      costs[i] = tree.cost();
      kept_.keep(i, tree.edges());
    }
  }

  std::span<const EdgeId> edges(std::size_t i) const override { return kept_.of(i); }

 private:
  const Graph* g_;
  std::span<const NodeId> net_;
  const GmstHeuristic* heuristic_;
  PathOracle* oracle_;
  std::vector<NodeId> trial_;
  TrialEdges kept_;
};

/// KMB's scorer (kmb_heuristic): KmbRound lanes, one per pool worker. Lane
/// 0 is the caller's; without a fan-out it scores every trial.
class KmbScorer final : public TrialScorer {
 public:
  KmbScorer(const Graph& g, std::span<const NodeId> net, PathOracle& oracle)
      : g_(&g), net_(net), oracle_(&oracle) {
    lanes_.push_back(std::make_unique<Lane>(g, oracle));
  }

  void score(std::span<const NodeId> span_set, std::span<const NodeId> candidates,
             std::vector<std::optional<Weight>>& costs) override {
    const std::size_t n = candidates.size();
    costs.assign(n, std::nullopt);
    where_.assign(n, -1);
    pending_.assign(n, 1);
    lanes_[0]->kept.reset(n);
    lanes_[0]->round.start(span_set);
    if (fans_out(candidates)) score_on_pool(candidates, costs);
    // What the pool left (everything without a fan-out), in candidate
    // order on the caller: the serial loop's reads, growth and budget cuts.
    Lane& lane = *lanes_[0];
    for (std::size_t i = 0; i < n; ++i) {
      if (pending_[i] == 0) continue;
      costs[i] = lane.round.score(candidates[i], net_, lane.edges);
      if (costs[i]) keep(0, i);
    }
  }

  std::span<const EdgeId> edges(std::size_t i) const override {
    return lanes_[static_cast<std::size_t>(where_[i])]->kept.of(i);
  }

 private:
  struct Lane {
    Lane(const Graph& g, PathOracle& oracle) : round(g, oracle) {}
    KmbRound round;
    std::vector<EdgeId> edges;  // the trial in hand
    TrialEdges kept;            // the lane's spanning trials
    std::size_t hits = 0;       // cache hits served this round
  };

  void keep(std::size_t lane, std::size_t i) {
    lanes_[lane]->kept.keep(i, lanes_[lane]->edges);
    where_[i] = static_cast<std::int32_t>(lane);
  }

  /// Pool work keeps every answer only when the oracle fans out, every
  /// span node's tree is cached (IGMST's pre-warm) and no candidate has a
  /// tree of its own, which would answer its pairs instead.
  bool fans_out(std::span<const NodeId> candidates) const {
    if (candidates.empty() || !oracle_->fans_out()) return false;
    const KmbRound& round = lanes_[0]->round;
    return std::all_of(round.span().begin(), round.span().end(),
                       [this](NodeId v) { return oracle_->cached(v) != nullptr; }) &&
           std::none_of(candidates.begin(), candidates.end(),
                        [this](NodeId t) { return oracle_->cached(t) != nullptr; });
  }

  void score_on_pool(std::span<const NodeId> candidates,
                     std::vector<std::optional<Weight>>& costs) {
    // Grow: every trial reads each span node's tree at every candidate and
    // at the span nodes after it, so grow the trees there first, one task
    // per tree. A set read serially grows a tree just as far.
    const std::span<const NodeId> span = lanes_[0]->round.span();
    oracle_->grow(span, [&](std::size_t i, const ShortestPathTree& tree) {
      for (std::size_t j = i + 1; j < span.size(); ++j) (void)tree.knows(span[j]);
      for (const NodeId t : candidates) (void)tree.knows(t);
    });

    // Score: lanes, each with its own round, take candidates in turn and
    // read the settled trees. Lanes are made here on the caller and keep
    // their buffers from round to round, so a worker allocates only while
    // a lane's buffers grow to the net's largest trial. Reserving every
    // lane for the largest trial up front measured +1.3 MiB of peak RSS
    // on busc.
    const auto count = static_cast<std::size_t>(oracle_->pool()->size());
    while (lanes_.size() < count) lanes_.push_back(std::make_unique<Lane>(*g_, *oracle_));
    for (std::size_t l = 0; l < count; ++l) {
      Lane& lane = *lanes_[l];
      if (l > 0) {
        lane.round.start(span);
        lane.kept.reset(candidates.size());
      }
      lane.hits = 0;
    }
    std::atomic<std::size_t> next{0};
    oracle_->pool()->parallel_for(count, [&](std::size_t l) {
      Lane& lane = *lanes_[l];
      for (std::size_t i = next.fetch_add(1); i < candidates.size(); i = next.fetch_add(1)) {
        if (!lane.round.score_settled(candidates[i], net_, lane.edges, costs[i], lane.hits)) {
          continue;  // needs growth: left pending for the caller
        }
        pending_[i] = 0;
        if (costs[i]) keep(l, i);
      }
    });
    std::size_t hits = 0;
    for (std::size_t l = 0; l < count; ++l) hits += lanes_[l]->hits;
    oracle_->count_hits(hits);
  }

  const Graph* g_;
  std::span<const NodeId> net_;
  PathOracle* oracle_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::int32_t> where_;  // the lane that kept candidate i's edges
  std::vector<char> pending_;        // candidate i still to score on the caller
};

/// One sequential round: adopt the single best candidate (Fig. 5's loop
/// body), the first of the serial scan in candidate order. Only the
/// winner's tree is built. Returns true if a candidate was adopted.
bool adopt_best_candidate(const Graph& g, const TrialScorer& scorer,
                          std::span<const NodeId> candidates,
                          std::span<const std::optional<Weight>> costs,
                          std::vector<NodeId>& span_set, RoutingTree& best, Weight& best_cost) {
  std::size_t best_i = candidates.size();
  Weight best_t_cost = best_cost;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (costs[i] && weight_lt(*costs[i], best_t_cost)) {
      best_t_cost = *costs[i];
      best_i = i;
    }
  }
  if (best_i == candidates.size()) return false;
  span_set.push_back(candidates[best_i]);
  const std::span<const EdgeId> edges = scorer.edges(best_i);
  best = RoutingTree(g, std::vector<EdgeId>(edges.begin(), edges.end()));
  best_cost = best_t_cost;
  return true;
}

/// One batched round: with every candidate scored once against the current
/// solution, sweep them in decreasing-savings order, adopting each iff a
/// single re-evaluation confirms it still improves on the batch so far.
/// Returns true if any candidate was adopted.
bool adopt_candidate_batch(const Graph& g, std::span<const NodeId> terminals,
                           const GmstHeuristic& heuristic, PathOracle& oracle,
                           std::span<const NodeId> candidates,
                           std::span<const std::optional<Weight>> costs,
                           std::vector<NodeId>& span_set, RoutingTree& best, Weight& best_cost) {
  struct Scored {
    NodeId node;
    Weight cost;
  };
  std::vector<Scored> scored;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (costs[i] && weight_lt(*costs[i], best_cost)) scored.push_back(Scored{candidates[i], *costs[i]});
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
  // With two terminals no candidate can win: every tree spanning them
  // contains a path of cost at least d(s, t), which H's tree already is.
  // Skipping the loop also skips pre-warming the second terminal's tree.
  const bool candidates_can_help = terminals.size() > 2;
  // Every terminal's tree is read by H's first build or by the pre-warm
  // below, so run them at once on the pool; each is adopted, and counted,
  // where the serial path would have run it.
  if (candidates_can_help) oracle.warm(terminals);
  RoutingTree best = heuristic.build(g, terminals, oracle);
  if (!best.spans(terminals)) return best;  // unroutable: report H's attempt
  Weight best_cost = best.cost();

  std::vector<NodeId> span_set(terminals.begin(), terminals.end());  // N + S
  SteinerCandidates candidates_of(g, options.candidates, options.max_candidates);
  std::unique_ptr<TrialScorer> scorer;
  std::vector<std::optional<Weight>> costs;
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
    if (!scorer) {
      scorer = heuristic.scorer
                   ? heuristic.scorer(g, terminals, oracle)
                   : std::make_unique<BuildingScorer>(g, terminals, heuristic, oracle);
    }
    scorer->score(span_set, candidates, costs);

    const bool adopted =
        options.batched
            ? adopt_candidate_batch(g, terminals, heuristic, oracle, candidates, costs, span_set,
                                    best, best_cost)
            : adopt_best_candidate(g, *scorer, candidates, costs, span_set, best, best_cost);
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

GmstHeuristic kmb_heuristic() {
  return GmstHeuristic(
      [](const Graph& g, std::span<const NodeId> net, PathOracle& oracle) {
        return kmb(g, net, oracle);
      },
      [](const Graph& g, std::span<const NodeId> net,
         PathOracle& oracle) -> std::unique_ptr<TrialScorer> {
        return std::make_unique<KmbScorer>(g, net, oracle);
      });
}

RoutingTree ikmb(const Graph& g, std::span<const NodeId> net, PathOracle& oracle,
                 const IgmstOptions& options) {
  return igmst(g, net, kmb_heuristic(), oracle, options);
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
