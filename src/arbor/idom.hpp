#pragma once

#include <span>

#include "graph/path_oracle.hpp"
#include "graph/routing_tree.hpp"
#include "steiner/igmst.hpp"

namespace fpr {

/// The Iterated Dominance heuristic (Section 4.2, Figure 12) — the paper's
/// second GSA contribution.
///
/// Greedily grows a Steiner set S: at each step adopt the node t maximizing
/// DeltaDOM(G, N, S + {t}) = cost(DOM(G, N + S)) - cost(DOM(G, N + S + {t}))
/// while positive, then return DOM(G, N + S). This is the IGMST loop
/// (steiner/igmst.hpp) with DOM as H and the source kept first. Candidate
/// nodes are treated as extra sinks inside DOM, so the result keeps optimal
/// source-sink pathlengths for the real sinks; cost(IDOM) <= cost(DOM) on
/// every input.
///
/// The paper conjectures an O(log N) performance ratio; Figure 14's
/// Set-Cover gadget (see workload/worstcase.hpp) realizes the matching
/// lower bound.
///
/// net[0] is the source; the remaining entries are sinks.
RoutingTree idom(const Graph& g, std::span<const NodeId> net, PathOracle& oracle,
                 const IgmstOptions& options = {});

RoutingTree idom(const Graph& g, std::span<const NodeId> net);

}  // namespace fpr
