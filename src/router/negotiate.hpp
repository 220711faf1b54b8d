#pragma once

#include <atomic>

#include "fpga/device.hpp"
#include "netlist/netlist.hpp"
#include "router/router.hpp"

namespace fpr {

namespace testhooks {

/// When set, the end-of-pass overflow sweep in route_circuit_negotiated
/// skips odd-id wires from BOTH the overflow tally and the history accrual
/// — the seeded "history update forgets wires" bug the negotiated-mode
/// mutation-smoke test plants. The convergence loop then believes a pass
/// with shared odd-id wires has converged, ships a solution violating wire
/// exclusivity, and the feasibility oracle must catch it. Never set outside
/// tests.
extern std::atomic<bool> negotiate_break_history_update;

}  // namespace testhooks

/// Negotiated-congestion routing loop (DESIGN.md §13): the RouterMode::
/// kNegotiated body route_circuit dispatches to. Iterative rip-up-and-
/// reroute over a CongestionLayer — every pass rips all nets, re-routes
/// them in fixed identity order against present-overflow + history pricing,
/// accrues history on overflowed wires, and grows the present factor —
/// until no wire is over capacity (converged), the pass cap expires (best
/// pass wins, then over-capacity wires are vacated deterministically), or
/// the work budget runs out. Two-pin nets try L/Z pattern probes
/// (router/patterns.hpp) before the scoped engine. The returned solution
/// and final device state satisfy the same exclusive-wire-ownership
/// contract as paper mode. Nets route serially, in order.
RoutingResult route_circuit_negotiated(Device& device, const Circuit& circuit,
                                       const RouterOptions& options);

}  // namespace fpr
