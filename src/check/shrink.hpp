#pragma once

#include <functional>

#include "check/generate.hpp"

namespace fpr::check {

/// Greedy test-case shrinking: repeatedly tries size-reducing mutations
/// (drop terminals, shrink the graph/grid, drop extra edges, drop nets,
/// shrink the array) and keeps a mutation iff `still_fails` confirms the
/// smaller case still violates the oracle, until no mutation sticks or the
/// re-run budget is exhausted. The returned case is the minimized repro.
TreeCase shrink_tree_case(TreeCase failing, const std::function<bool(const TreeCase&)>& still_fails,
                          int max_reruns = 400);

CircuitCase shrink_circuit_case(CircuitCase failing,
                                const std::function<bool(const CircuitCase&)>& still_fails,
                                int max_reruns = 200);

}  // namespace fpr::check
