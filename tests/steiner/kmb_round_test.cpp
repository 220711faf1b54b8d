// The shared forms of IGMST's per-round work against their one-shot forms.
//
// KmbRound scores every trial of a round from one memo; SteinerCandidates
// grows the corridor with the span set. Each is run in lockstep with the
// one-shot code on a twin oracle: the same trees, the same costs and spans
// verdicts, and the same Dijkstra pops after every call. The instances are
// generated cases with zero-weight edges, unreachable terminals and
// candidates, budgets that run out mid-round, paused (scoped) and plain
// trees, and candidates whose own tree is already cached.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "graph/budget.hpp"
#include "steiner/candidates.hpp"
#include "steiner/igmst.hpp"
#include "steiner/kmb.hpp"
#include "test_util.hpp"

namespace fpr {
namespace {

constexpr int kCases = 300;

struct Instance {
  Graph g{0};
  std::vector<NodeId> net;
  std::vector<NodeId> isolated;  // nodes no edge reaches
  long long budget = 0;          // 0 = unlimited
  std::size_t scope = 0;         // trees scoped to the first `scope` terminals; 0: plain
};

/// A generated case, perturbed by the draw: a quarter of the edges at weight
/// zero, sometimes an isolated node (a few times a terminal), a budget small
/// enough to run out inside a round half the time, and plain trees or
/// paused ones scoped to the net or to its first terminal alone.
Instance make_instance(const char* suite, int index, std::mt19937_64& rng) {
  static constexpr std::array<Algorithm, 1> kAny{Algorithm::kKmb};
  const check::TreeCase c = check::generate_tree_case(
      testing::seeded_rng(suite, static_cast<std::uint64_t>(index)), 8, kAny);
  Instance in;
  in.g = c.materialize();
  if (rng() % 2 == 0) {
    std::uniform_int_distribution<EdgeId> edge(0, in.g.edge_count() - 1);
    for (EdgeId i = 0; i < in.g.edge_count() / 4; ++i) in.g.set_edge_weight(edge(rng), 0);
  }
  in.net = distinct_terminals(c.terminals);
  if (rng() % 3 == 0) in.isolated.push_back(in.g.add_nodes(1));
  if (!in.isolated.empty() && rng() % 3 == 0) in.net.push_back(in.isolated[0]);
  if (rng() % 2 == 0) in.budget = std::uniform_int_distribution<long long>(1, 400)(rng);
  const std::size_t scopes[] = {0, in.net.size(), 1};
  in.scope = scopes[rng() % 3];
  return in;
}

NodeId random_node(const Instance& in, std::mt19937_64& rng) {
  return std::uniform_int_distribution<NodeId>(0, in.g.node_count() - 1)(rng);
}

/// An oracle set up as the instance asks, with its own budget.
struct Side {
  explicit Side(const Instance& in) : oracle(in.g), budget{in.budget, 0} {
    oracle.set_budget(&budget);
    if (in.scope > 0) oracle.set_scope({in.net.begin(), in.net.begin() + in.scope});
  }
  PathOracle oracle;
  WorkBudget budget;
};

void expect_same_work(const Side& a, const Side& b) {
  EXPECT_EQ(a.budget.used, b.budget.used);
  EXPECT_EQ(a.oracle.dijkstra_runs(), b.oracle.dijkstra_runs());
  EXPECT_EQ(a.oracle.run_pops(), b.oracle.run_pops());
  EXPECT_EQ(a.oracle.resume_pops(), b.oracle.resume_pops());
}

/// Sets the fault hook for one scope.
class InvertedSelection {
 public:
  explicit InvertedSelection(bool on) { testhooks::kmb_invert_mst_selection.store(on); }
  ~InvertedSelection() { testhooks::kmb_invert_mst_selection.store(false); }
  InvertedSelection(const InvertedSelection&) = delete;
  InvertedSelection& operator=(const InvertedSelection&) = delete;
};

TEST(KmbRoundTest, EveryTrialMatchesAFreshKmb) {
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE(i);
    std::mt19937_64 rng(testing::seeded_rng("kmb_round_trials", static_cast<std::uint64_t>(i)));
    const Instance in = make_instance("kmb_round_trials", i, rng);
    const InvertedSelection hook(i % 8 == 7);
    Side round_side(in);
    Side fresh_side(in);

    // The span set: the net and up to two adopted Steiner points. Every
    // span node's tree is cached before the round, as IGMST's pre-warm does.
    std::vector<NodeId> span = in.net;
    for (int s = static_cast<int>(rng() % 3); s > 0; --s) span.push_back(random_node(in, rng));
    std::vector<NodeId> candidates;
    for (int k = 0; k < 12; ++k) candidates.push_back(random_node(in, rng));
    candidates.insert(candidates.end(), in.isolated.begin(), in.isolated.end());
    for (const NodeId t : candidates) {
      if (rng() % 5 == 0) {  // a candidate whose own tree is already cached
        round_side.oracle.from(t);
        fresh_side.oracle.from(t);
      }
    }
    for (const NodeId v : span) {
      round_side.oracle.from(v);
      fresh_side.oracle.from(v);
    }

    KmbRound round(in.g, span, round_side.oracle);
    std::vector<EdgeId> edges;
    for (const NodeId t : candidates) {
      SCOPED_TRACE(t);
      const std::optional<Weight> score = round.score(t, in.net, edges);
      std::vector<NodeId> trial = span;
      trial.push_back(t);
      const RoutingTree tree = kmb(in.g, trial, fresh_side.oracle);
      EXPECT_EQ(edges, tree.edges());
      ASSERT_EQ(score.has_value(), tree.spans(in.net));
      if (score) {
        EXPECT_EQ(*score, tree.cost());  // bit for bit
      }
      expect_same_work(round_side, fresh_side);
    }
  }
}

TEST(KmbRoundTest, OneShotUseIsKmbOverTheSpanSet) {
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE(i);
    std::mt19937_64 rng(testing::seeded_rng("kmb_round_oneshot", static_cast<std::uint64_t>(i)));
    const Instance in = make_instance("kmb_round_oneshot", i, rng);
    Side side(in);
    std::vector<EdgeId> edges;
    const std::optional<Weight> score =
        KmbRound(in.g, in.net, side.oracle).score(kInvalidNode, in.net, edges);
    Side fresh_side(in);
    const RoutingTree tree = kmb(in.g, in.net, fresh_side.oracle);
    EXPECT_EQ(edges, tree.edges());
    ASSERT_EQ(score.has_value(), tree.spans(in.net));
    if (score) {
      EXPECT_EQ(*score, tree.cost());
    }
    expect_same_work(side, fresh_side);
  }
}

TEST(KmbRoundTest, IkmbMatchesIgmstBuildingEveryTrial) {
  // The plain callable has no round scorer, so the loop builds each trial's
  // tree with kmb(): the same trees and pops are the contract.
  const GmstHeuristic building = [](const Graph& g, std::span<const NodeId> n, PathOracle& o) {
    return kmb(g, n, o);
  };
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE(i);
    std::mt19937_64 rng(testing::seeded_rng("kmb_round_igmst", static_cast<std::uint64_t>(i)));
    const Instance in = make_instance("kmb_round_igmst", i, rng);
    IgmstOptions options;
    options.batched = rng() % 2 == 0;
    if (rng() % 2 == 0) {
      options.candidates = CandidateStrategy::kCorridor;
      options.max_candidates = static_cast<int>(rng() % 3) * 24;
    }
    Side scored(in);
    Side built(in);
    const RoutingTree a = ikmb(in.g, in.net, scored.oracle, options);
    const RoutingTree b = igmst(in.g, in.net, building, built.oracle, options);
    EXPECT_EQ(a.edges(), b.edges());
    expect_same_work(scored, built);
  }
}

TEST(SteinerCandidatesTest, GrownCorridorMatchesAFullScan) {
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE(i);
    std::mt19937_64 rng(testing::seeded_rng("grown_corridor", static_cast<std::uint64_t>(i)));
    const Instance in = make_instance("grown_corridor", i, rng);
    const int cap = static_cast<int>(rng() % 3) * 4;
    const bool batched = rng() % 2 == 0;
    const bool prewarm = rng() % 2 == 0;
    Side grown_side(in);
    Side full_side(in);
    SteinerCandidates grown(in.g, CandidateStrategy::kCorridor, cap);
    std::vector<NodeId> span = in.net;
    for (int round = 0; round < 5; ++round) {
      SCOPED_TRACE(round);
      if (prewarm) {
        for (const NodeId v : span) {
          grown_side.oracle.from(v);
          full_side.oracle.from(v);
        }
      }
      const std::vector<NodeId> candidates = grown.next(span, grown_side.oracle);
      EXPECT_EQ(candidates, steiner_candidates(in.g, span, full_side.oracle,
                                               CandidateStrategy::kCorridor, cap));
      expect_same_work(grown_side, full_side);
      // The round's candidate reads grow the span set's trees between scans.
      for (int k = 0; k < 4; ++k) {
        const NodeId s = span[rng() % span.size()];
        const NodeId x = random_node(in, rng);
        grown_side.oracle.distance(s, x);
        full_side.oracle.distance(s, x);
      }
      // Adopt one candidate, or a batch of up to three; sometimes a node off
      // the corridor.
      const int adopt = batched ? 1 + static_cast<int>(rng() % 3) : 1;
      for (int k = 0; k < adopt; ++k) {
        if (!candidates.empty() && rng() % 4 != 0) {
          span.push_back(candidates[rng() % candidates.size()]);
        } else {
          span.push_back(random_node(in, rng));
        }
      }
    }
  }
}

TEST(SteinerCandidatesTest, PairsReadBeforeStillGrowTheirTrees) {
  // Node 3's tree pops 3, then 1 at distance 1 (node 1 is the last scoped
  // target), and pauses with 2 next, at distance 1 too. A read of 2 pops it
  // and pushes 0 over a zero-weight edge at distance 1: a key below 1's, so
  // 1 reads as unsettled again. The next scan's reached(1) then drains the
  // tree, and the grown corridor must make that read too.
  Graph g(7);
  g.add_edge(3, 1, 1);
  g.add_edge(3, 2, 1);
  g.add_edge(2, 0, 0);
  g.add_edge(0, 4, 5);
  g.add_edge(4, 5, 1);
  g.add_edge(5, 6, 1);
  const std::vector<NodeId> net{3, 1};
  PathOracle grown_oracle(g);
  PathOracle full_oracle(g);
  grown_oracle.set_scope(net);
  full_oracle.set_scope(net);
  SteinerCandidates grown(g, CandidateStrategy::kCorridor, 0);
  std::vector<NodeId> span = net;
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(grown.next(span, grown_oracle),
              steiner_candidates(g, span, full_oracle, CandidateStrategy::kCorridor));
    EXPECT_EQ(grown_oracle.run_pops() + grown_oracle.resume_pops(),
              full_oracle.run_pops() + full_oracle.resume_pops());
    grown_oracle.distance(2, 3);
    full_oracle.distance(2, 3);
    span.push_back(5);
  }
}

}  // namespace
}  // namespace fpr
