#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/net.hpp"
#include "graph/path_oracle.hpp"
#include "graph/routing_tree.hpp"
#include "steiner/igmst.hpp"

namespace fpr {

/// Every routing-tree construction compared in the paper's evaluation
/// (Section 5), plus the exact reference solvers.
enum class Algorithm {
  // Graph Steiner tree heuristics (non-critical nets, Section 3).
  kKmb,
  kZel,
  kIkmb,
  kIzel,
  // Graph Steiner arborescence constructions (critical nets, Section 4).
  kDjka,
  kDom,
  kPfa,
  kIdom,
  // Exact reference solvers (small nets only).
  kExactGmst,
  kExactGsa,
};

/// Printable name matching the paper's tables ("KMB", "IZEL", ...).
std::string_view algorithm_name(Algorithm a);

/// True for algorithms that guarantee optimal source-sink pathlengths.
bool is_arborescence_algorithm(Algorithm a);

/// True for algorithms that read the path oracle's trees only through
/// knows()-guarded queries or about terminals, so a PathOracle scope
/// (set_scope) is a pure speedup. A scoped tree pauses at its targets and
/// grows on every read, so the algorithms that scan raw SSSP trees over
/// every graph node (PFA's MaxDom, ZEL/IZEL's triple medians, the exact
/// subset DPs) would grow each tree to the whole graph, a goal-directed
/// one at more pops than a plain ball; they return false.
bool algorithm_supports_scoped_paths(Algorithm a);

/// The eight heuristics of Table 1, in the paper's row order.
std::span<const Algorithm> table1_algorithms();

/// Options of the iterated constructions (IKMB/IZEL/IDOM); the other
/// algorithms ignore them.
using RouteOptions = IgmstOptions;

/// Routes one net with the chosen algorithm. The returned tree spans the
/// net's terminals unless the net is unroutable in the usable part of the
/// graph (check RoutingTree::spans()). Exact solvers fall back to IKMB /
/// IDOM when the net exceeds the subset-DP terminal limit.
RoutingTree route(const Graph& g, const Net& net, Algorithm algorithm, PathOracle& oracle,
                  const RouteOptions& options = {});

RoutingTree route(const Graph& g, const Net& net, Algorithm algorithm,
                  const RouteOptions& options = {});

}  // namespace fpr
