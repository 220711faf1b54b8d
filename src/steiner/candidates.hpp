#pragma once

#include <span>
#include <vector>

#include "graph/path_oracle.hpp"

namespace fpr {

/// How the iterated constructions (IGMST, IDOM) enumerate Steiner-candidate
/// nodes.
///
/// The paper's template scans all of V - N (kAllNodes); on real device
/// routing graphs (|V| > 5000, Section 2) that is wasteful, and the paper
/// points at "factoring out common computations" for speed. kCorridor
/// restricts candidates to the union of nodes lying on shortest paths
/// between terminal pairs, plus their immediate neighbors — the region where
/// a useful Steiner point can live in practice. The ablation bench
/// quantifies the quality/speed trade.
enum class CandidateStrategy {
  kAllNodes,
  kCorridor,
};

/// The candidates of a span set that only grows, as the IGMST loop's does.
///
/// The corridor is a union over span-set pairs, so it grows with the span
/// set: each call walks only the pairs (i, j) whose later node j is new
/// since the previous call and merges their nodes into the sorted corridor.
/// It asks the trees what a full scan asks of those pairs, in the full
/// scan's i-major order, so the same searches grow at the same points: a
/// pair read before gives the nodes it gave then, and re-reading it would
/// grow nothing, since a popped node stays settled.
class SteinerCandidates {
 public:
  SteinerCandidates(const Graph& g, CandidateStrategy strategy, int max_candidates);

  /// Candidate Steiner nodes for `span_set`, excluding the span set itself,
  /// sorted ascending. `max_candidates` == 0 means unlimited; otherwise the
  /// list is evenly subsampled down to the cap. `span_set` must extend the
  /// span set of the previous call by appending nodes.
  std::vector<NodeId> next(std::span<const NodeId> span_set, PathOracle& oracle);

 private:
  const Graph* g_;
  CandidateStrategy strategy_;
  int max_candidates_;
  std::vector<NodeId> scanned_;      // the span set of the previous call
  std::vector<NodeId> sorted_span_;  // scanned_, sorted
  std::vector<NodeId> corridor_;     // sorted, distinct
  std::vector<char> in_corridor_;    // by node: 1 once in corridor_ (or fresh_)
  std::vector<NodeId> fresh_;        // this call's new corridor nodes
};

/// Candidate Steiner nodes for the given terminal set: one call of a fresh
/// SteinerCandidates.
std::vector<NodeId> steiner_candidates(const Graph& g, std::span<const NodeId> terminals,
                                       PathOracle& oracle, CandidateStrategy strategy,
                                       int max_candidates = 0);

}  // namespace fpr
