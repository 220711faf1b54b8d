#pragma once

#include <atomic>

#include "fpga/device.hpp"
#include "netlist/netlist.hpp"
#include "router/router.hpp"

namespace fpr {

namespace testhooks {

/// When set, the end-of-pass overflow sweep in route_circuit_negotiated
/// skips odd-id wires from the overflow tally, the history accrual AND the
/// next pass's rip-up selection — the seeded "history update forgets
/// wires" bug the negotiated-mode mutation-smoke test plants. The
/// convergence loop then believes a pass with shared odd-id wires has
/// converged, ships a solution violating wire exclusivity, and the
/// feasibility oracle must catch it. Never set outside tests.
extern std::atomic<bool> negotiate_break_history_update;

}  // namespace testhooks

/// Negotiated-congestion routing loop (DESIGN.md §13): the RouterMode::
/// kNegotiated body route_circuit dispatches to. Iterative rip-up-and-
/// reroute over a CongestionLayer — pass 1 routes every net; each later
/// pass rips up only the failed nets and the owners of the wires the
/// previous pass overflowed (widened to the owners of those wires' tile
/// siblings when that pass did not lower the overflow), keeps every other
/// net in place, and re-routes the ripped nets in fixed identity order
/// against present-overflow + history pricing. Each pass ends by accruing
/// history on overflowed wires and growing the present factor — until no
/// wire is over capacity (converged), the pass cap expires (best pass
/// wins, then over-capacity wires are vacated deterministically), or the
/// work budget runs out. Two-pin nets try L/Z pattern probes
/// (router/patterns.hpp) before the scoped engine. The returned solution
/// and final device state satisfy the same exclusive-wire-ownership
/// contract as paper mode. Nets route serially, in order.
RoutingResult route_circuit_negotiated(Device& device, const Circuit& circuit,
                                       const RouterOptions& options);

}  // namespace fpr
