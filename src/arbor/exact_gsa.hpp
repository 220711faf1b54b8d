#pragma once

#include <optional>
#include <span>

#include "graph/path_oracle.hpp"
#include "graph/routing_tree.hpp"
#include "steiner/subset_dp.hpp"

namespace fpr {

/// Exact Graph Steiner Arborescence solver for small nets.
///
/// Every feasible GSA solution uses only "tight" edges — edges (u, v) with
/// d(n0, v) = d(n0, u) + w(u, v) — because every tree edge lies on some
/// source-to-sink path that must be shortest. The problem therefore reduces
/// to a minimum directed Steiner tree rooted at the source on the tight-edge
/// DAG, solved by the subset dynamic program (steiner/subset_dp.hpp) over
/// the reversed tight edges.
///
/// Used as the wirelength-optimality reference for PFA/IDOM in the tests and
/// the Figure 4 / 10 / 11 experiments. Returns nullopt when the net has more
/// than `max_terminals` distinct pins or some sink is unreachable.
///
/// net[0] is the source; the remaining entries are sinks.
std::optional<RoutingTree> exact_gsa(const Graph& g, std::span<const NodeId> net,
                                     PathOracle& oracle,
                                     int max_terminals = kSubsetDpMaxTerminals);

std::optional<RoutingTree> exact_gsa(const Graph& g, std::span<const NodeId> net,
                                     int max_terminals = kSubsetDpMaxTerminals);

}  // namespace fpr
