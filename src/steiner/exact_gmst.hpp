#pragma once

#include <optional>
#include <span>

#include "graph/path_oracle.hpp"
#include "graph/routing_tree.hpp"
#include "steiner/subset_dp.hpp"

namespace fpr {

/// Exact graph minimal Steiner tree via the subset dynamic program
/// (steiner/subset_dp.hpp) over every usable edge, leaves pruned.
///
/// Used as the optimality reference the paper normalizes against (Table 1's
/// "OPT" pathlength column is handled separately; this solver validates the
/// 2x / 11/6 approximation bounds of KMB/ZEL/IKMB/IZEL in the tests and
/// labels the optimal Steiner trees in the Figure 4 experiment).
///
/// Returns nullopt when the net has more than `max_terminals` distinct pins
/// or is not connected in the usable part of the graph.
std::optional<RoutingTree> exact_gmst(const Graph& g, std::span<const NodeId> net,
                                      PathOracle& oracle,
                                      int max_terminals = kSubsetDpMaxTerminals);

std::optional<RoutingTree> exact_gmst(const Graph& g, std::span<const NodeId> net,
                                      int max_terminals = kSubsetDpMaxTerminals);

}  // namespace fpr
