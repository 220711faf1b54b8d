#pragma once

#include <concepts>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/path_oracle.hpp"
#include "graph/routing_tree.hpp"
#include "steiner/candidates.hpp"

namespace fpr {

/// Scores the trials of IGMST rounds: H(G, S + {t}) for each candidate t
/// against the round's span set S. One scorer serves every round of one
/// IGMST run, so it can keep its buffers from round to round.
class TrialScorer {
 public:
  virtual ~TrialScorer() = default;

  /// Scores one round: costs[i] becomes the cost of H(G, S + {candidates[i]})
  /// when that tree spans the net, else nullopt.
  virtual void score(std::span<const NodeId> span_set, std::span<const NodeId> candidates,
                     std::vector<std::optional<Weight>>& costs) = 0;

  /// The edges of candidate i's tree in the latest score(), ascending; valid
  /// while costs[i] holds a cost and until the next score().
  virtual std::span<const EdgeId> edges(std::size_t i) const = 0;
};

/// A graph Steiner tree heuristic usable inside the IGMST template.
struct GmstHeuristic {
  using Build = std::function<RoutingTree(const Graph&, std::span<const NodeId>, PathOracle&)>;
  /// Makes the trial scorer of one IGMST run: (graph, net, oracle) -> scorer.
  using Scorer = std::function<std::unique_ptr<TrialScorer>(const Graph&, std::span<const NodeId>,
                                                            PathOracle&)>;

  /// Any callable H(graph, terminal set, shared path oracle) -> a spanning
  /// tree of the set, with no scorer of its own.
  template <class F>
    requires std::invocable<F&, const Graph&, std::span<const NodeId>, PathOracle&>
  GmstHeuristic(F heuristic) : build(std::move(heuristic)) {}
  GmstHeuristic(Build heuristic, Scorer trials)
      : build(std::move(heuristic)), scorer(std::move(trials)) {}

  Build build;
  /// Optional: scores a round's trials without building each tree. It must
  /// agree with build() bit for bit and read the oracle as build() would.
  /// Without it a trial is scored by building its tree.
  Scorer scorer;
};

/// Options of the iterated constructions (IKMB, IZEL and IDOM), which share
/// one greedy loop; route() passes them through and the other algorithms
/// ignore them.
struct IgmstOptions {
  /// Steiner-candidate enumeration for each round.
  CandidateStrategy candidates = CandidateStrategy::kAllNodes;
  int max_candidates = 0;  // 0 = unlimited
  int max_iterations = 0;  // 0 = run until no candidate improves

  /// Batched Steiner-point adoption (Section 3): "rather than adding
  /// Steiner points one at a time, they may be added in batches based on a
  /// non-interference criterion ... In practice, the number of such rounds
  /// tends to be very small (<= 3 for typical instances)."
  /// Each round scans all candidates ONCE, then walks them in decreasing
  /// savings order, adopting a candidate iff a single re-evaluation shows
  /// it still improves on the batch adopted so far (the non-interference
  /// check). Cuts full candidate scans from |S| to #rounds.
  bool batched = false;
};

/// The paper's core Section 3 contribution: the Iterated Graph Minimal
/// Steiner Tree template (Fig. 5).
///
/// Starting from S = {}, repeatedly find the node t maximizing the savings
/// DeltaH(G, N, S + {t}) = cost(H(G, N + S)) - cost(H(G, N + S + {t})) and
/// keep it while the savings are positive; return H(G, N + S).
///
/// The performance bound is never worse than H's own: with no improving
/// candidate the output equals H's. Cost(IGMST_H) <= cost(H) on every input
/// (property-tested).
///
/// `terminals` must be distinct; they are handed to H in the given order,
/// with the adopted Steiner points appended, so an H that reads its first
/// terminal as the source (IDOM's DOM) keeps it first.
///
/// When the oracle fans out (PathOracle::fans_out) the terminals' first
/// trees run on its pool before H's first build (PathOracle::warm), and H's
/// scorer may score rounds there; the result and every count are the
/// serial ones.
RoutingTree igmst_ordered(const Graph& g, std::span<const NodeId> terminals,
                          const GmstHeuristic& heuristic, PathOracle& oracle,
                          const IgmstOptions& options);

/// igmst_ordered over the net's distinct terminals in ascending order.
RoutingTree igmst(const Graph& g, std::span<const NodeId> net, const GmstHeuristic& heuristic,
                  PathOracle& oracle, const IgmstOptions& options = {});

/// KMB with its round scorer: the H of ikmb(). The scorer scores a round on
/// the oracle's pool when PathOracle::fans_out(): it grows the span set's
/// trees to every candidate, one task per tree (PathOracle::grow), then
/// splits the candidates across tasks that read the settled trees alone
/// (KmbRound::score_settled). Otherwise, and for any trial a task cannot
/// settle, it scores in candidate order on the caller. Either way the
/// costs, the edges, the pops and the oracle's counts are the serial ones.
GmstHeuristic kmb_heuristic();

/// IGMST instantiated with KMB — the "IKMB" algorithm used by the paper's
/// FPGA router for Tables 2-5. Performance bound 2*(1 - 1/L).
RoutingTree ikmb(const Graph& g, std::span<const NodeId> net, PathOracle& oracle,
                 const IgmstOptions& options = {});

/// IGMST instantiated with Zelikovsky — "IZEL", performance bound 11/6.
RoutingTree izel(const Graph& g, std::span<const NodeId> net, PathOracle& oracle,
                 const IgmstOptions& options = {});

}  // namespace fpr
