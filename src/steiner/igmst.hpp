#pragma once

#include <functional>
#include <span>

#include "graph/path_oracle.hpp"
#include "graph/routing_tree.hpp"
#include "steiner/candidates.hpp"

namespace fpr {

/// A graph Steiner tree heuristic usable inside the IGMST template: maps
/// (graph, terminal set, shared path oracle) to a spanning tree of the set.
using GmstHeuristic =
    std::function<RoutingTree(const Graph&, std::span<const NodeId>, PathOracle&)>;

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
RoutingTree igmst_ordered(const Graph& g, std::span<const NodeId> terminals,
                          const GmstHeuristic& heuristic, PathOracle& oracle,
                          const IgmstOptions& options);

/// igmst_ordered over the net's distinct terminals in ascending order.
RoutingTree igmst(const Graph& g, std::span<const NodeId> net, const GmstHeuristic& heuristic,
                  PathOracle& oracle, const IgmstOptions& options = {});

/// IGMST instantiated with KMB — the "IKMB" algorithm used by the paper's
/// FPGA router for Tables 2-5. Performance bound 2*(1 - 1/L).
RoutingTree ikmb(const Graph& g, std::span<const NodeId> net, PathOracle& oracle,
                 const IgmstOptions& options = {});

/// IGMST instantiated with Zelikovsky — "IZEL", performance bound 11/6.
RoutingTree izel(const Graph& g, std::span<const NodeId> net, PathOracle& oracle,
                 const IgmstOptions& options = {});

}  // namespace fpr
