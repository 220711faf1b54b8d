#pragma once

#include <span>

#include <vector>

#include "check/check.hpp"
#include "core/route.hpp"
#include "fpga/arch.hpp"
#include "fpga/device.hpp"
#include "netlist/netlist.hpp"
#include "router/repair.hpp"
#include "router/router.hpp"

namespace fpr::check {

/// Invariant oracles: each one re-derives a guarantee of the paper (or of
/// this implementation's containers) FROM SCRATCH and compares it against
/// what the production code reports. None of them trusts the incremental
/// bookkeeping it is checking — the validity oracle builds its own adjacency
/// from the raw edge list, the feasibility oracle replays a RoutingResult
/// against a freshly built device, the bound oracle runs the exact solver.

/// Routing-tree structural validity: every edge usable in g, connected,
/// acyclic (|V| == |E| + 1), spans `terminals` (terminals[0] is the source),
/// and the container's incremental answers — cost(), path_length(),
/// is_tree(), spans() — match values recomputed from the raw edge set.
CheckResult check_tree_validity(const Graph& g, std::span<const NodeId> terminals,
                                const RoutingTree& tree);

/// Approximation-bound oracle (nets with at most `max_terminals` distinct
/// pins; larger nets are skipped, reported as ok):
///  - KMB/IKMB cost <= 2 * OPT and ZEL/IZEL cost <= 11/6 * OPT, with OPT
///    from the exact GMST subset DP (and cost >= OPT, which also cross-
///    checks the exact solver);
///  - DJKA/DOM/PFA/IDOM: every sink is reached at exact graph distance (the
///    arborescence guarantee), and cost >= the exact GSA optimum.
CheckResult check_approximation_bound(const Graph& g, const Net& net, Algorithm algorithm,
                                      int max_terminals = 9);

/// Iterated-construction monotonicity (Section 3: IGMST's bound is never
/// worse than its base heuristic's): cost(IKMB) <= cost(KMB),
/// cost(IZEL) <= cost(ZEL), cost(IDOM) <= cost(DOM) on the same instance.
CheckResult check_iterated_monotonicity(const Graph& g, const Net& net);

/// Router feasibility oracle: replays `result` against a FRESH device built
/// from `arch` (no state shared with the router that produced it):
///  - success implies every multi-pin net routed;
///  - each routed net's edge set exists in the device graph, connects the
///    net's source block to every sink block, and (whole-net algorithms)
///    forms a structurally valid tree;
///  - wire capacity: no wire node is used by two different nets, and no
///    channel tile uses more tracks than the architecture has;
///  - accounting: per-net wire_nodes_used / physical_wirelength /
///    physical_max_path and the result's totals match recomputed values;
///  - status consistency: NetStatus::kRouted iff the net holds a route,
///    and the degradation counters (nets_blocked_by_fault,
///    nets_aborted_budget, nets_rerouted_around_faults, budget_exhausted)
///    match the per-net statuses they summarize.
///
/// When `faults` is given, the replay device gets the same defect set
/// installed, and the oracle additionally asserts that no routed net
/// occupies a faulted wire segment or traverses a dead switch/pin edge —
/// the core guarantee of defect-aware routing. `events` extends the same
/// guarantee to a live fault-event overlay (Device::apply_fault_event):
/// pass the cumulative overlay when checking a repaired result.
CheckResult check_routing_feasibility(const ArchSpec& arch, const Circuit& circuit,
                                      const RoutingResult& result,
                                      const RouterOptions& options,
                                      const FaultSpec* faults = nullptr,
                                      const FaultEvent* events = nullptr);

/// Incremental-repair oracle (the kRepair fuzz dimension). Routes `seed`
/// from scratch (record_commits forced on, `faults` installed when given),
/// applies `events` one at a time through repair_route, and re-derives
/// every repair guarantee independently:
///  - cone contract: the oracle recomputes each event's affected cone
///    (direct hits + tile-sibling expansion + net-delta members) with its
///    own code — never repair_cone — and the reported cone_nets, and the
///    repaired/degraded/aborted split, must match;
///  - byte-stability: every net outside the oracle's cone keeps a
///    bit-identical record and commit log across the event;
///  - rip-up arithmetic: after all events, every edge weight must equal
///    its pristine base plus congestion_penalty times the recorded
///    applications, and wire activity/ownership must match the commit
///    logs plus the dead sets — recomputed from scratch;
///  - feasibility: the final state passes check_routing_feasibility with
///    the cumulative event overlay (repaired state is feasibility-
///    equivalent to a from-scratch route on the mutated device);
///  - replay: the (event, outcome) journal round-trips through its text
///    form and replay_journal reconstructs the exact final state
///    (bit-identical records, commit logs, net order) with matching
///    outcomes.
CheckResult check_repair(const ArchSpec& arch, const Circuit& seed,
                         const RouterOptions& options, const FaultSpec* faults,
                         const std::vector<RepairEvent>& events);

}  // namespace fpr::check
