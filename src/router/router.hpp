#pragma once

#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "core/route.hpp"
#include "fpga/device.hpp"
#include "graph/budget.hpp"
#include "netlist/netlist.hpp"

namespace fpr {

/// Congestion-resolution strategy of route_circuit.
enum class RouterMode {
  /// The paper's Section 5 router: exclusive wire ownership (routed nets
  /// consume their wire nodes), congestion penalties on tile siblings, and
  /// move-to-front re-ordering of failed nets between passes.
  kPaper,
  /// PathFinder-style negotiated congestion (router/negotiate.hpp,
  /// DESIGN.md §13): nets transiently share wires while present-overflow and
  /// accrued-history costs re-price the shared wires each pass, until no
  /// wire is over capacity. Two-pin nets first try cheap L/Z corridor
  /// pattern probes (router/patterns.hpp) before the full scoped engine.
  kNegotiated,
};

/// Printable name ("paper", "negotiated").
std::string_view router_mode_name(RouterMode mode);

/// Configuration of the paper's FPGA router (Section 5).
struct RouterOptions {
  /// Tree construction used per net (the paper's Tables 2/3 use IKMB;
  /// Table 4 compares IKMB vs PFA vs IDOM).
  Algorithm algorithm = Algorithm::kIkmb;

  /// Tree construction for nets flagged critical (CircuitNet::critical) —
  /// Section 2's mixed regime: shortest-paths trees for the timing-critical
  /// nets, wirelength-minimal trees for the rest.
  Algorithm critical_algorithm = Algorithm::kIdom;

  /// Candidate filtering for the iterated constructions; device graphs are
  /// large (|V| > 5000), so the corridor strategy with a cap is the default.
  RouteOptions route_options{CandidateStrategy::kCorridor, 48, 0};

  /// Feasibility threshold: "if a complete routing solution cannot be found
  /// in a user-specified maximum number of passes (we arbitrarily set this
  /// feasibility threshold to 20 passes), the router decides that the
  /// circuit is unroutable at that given channel width."
  int max_passes = 20;

  /// Move-to-front re-ordering of failed nets between passes.
  bool move_to_front = true;

  /// Give up before max_passes when the failure count has not improved for
  /// this many consecutive passes (the paper observes that successful
  /// routings converge in fewer than five passes, so a stalled width is
  /// almost certainly infeasible). 0 disables early stall detection.
  int stall_passes = 3;

  /// Extra weight added to edges of the remaining free wires in a channel
  /// tile each time one of that tile's wires is consumed — the "edge weights
  /// are updated to reflect the new congestion values" rule. 0 disables.
  double congestion_penalty = 0.25;

  /// Baseline mode standing in for CGE/SEGA/GBP: break each multi-pin net
  /// into independent source-sink two-pin connections, each routed by
  /// shortest path with no sharing (the strategy the paper credits its
  /// channel-width win against; see Fig. 15).
  bool decompose_two_pin = false;

  /// Rip-up-and-reroute attempts for a net that fails on a device with
  /// installed faults (Device::has_faults()). Each retry widens the search —
  /// full candidate set, unscoped oracle, arborescence fallback — under
  /// progressively relaxed congestion weighting (see fault_relief_backoff),
  /// because a defect often forces a detour straight through the corridor
  /// the congestion penalties were steering nets away from. 0 disables; on
  /// a fault-free device retries never happen (a failed deterministic
  /// search would just fail identically again).
  int fault_retries = 2;

  /// Geometric congestion-relief factor for fault retries: on retry r every
  /// edge weight w is temporarily remapped to 1 + (w - 1) * backoff^r, so
  /// accumulated congestion matters less and less while base wirelength
  /// still breaks ties. Exact originals are restored after each attempt.
  double fault_relief_backoff = 0.5;

  /// Deterministic work budget for the whole route_circuit call, measured
  /// in Dijkstra node expansions (heap pops) — never wall-clock, so a
  /// budget-aborted run is bit-identical on every machine.
  /// 0 = unlimited. When the budget runs out mid-circuit the router stops
  /// where it is: nets already routed stay routed (and committed), the
  /// in-flight and unattempted nets are marked NetStatus::kAbortedBudget,
  /// and the partial RoutingResult reports budget_exhausted.
  long long node_budget = 0;

  /// Ignored: routing is serial (DESIGN.md §11). Kept only because the
  /// benchmark suite still sets it.
  int threads = 0;

  /// Congestion-resolution mode. kPaper preserves the historical router
  /// bit-for-bit; kNegotiated switches route_circuit to the negotiated-
  /// congestion loop, which reads only the negotiate_* / pattern_route
  /// knobs below plus the shared algorithm/candidate/budget options
  /// (move_to_front, congestion_penalty, fault_retries and max_passes are
  /// paper-mode machinery and are never consulted). Negotiated mode routes
  /// whole nets only: decompose_two_pin must stay false.
  RouterMode mode = RouterMode::kPaper;

  /// Negotiated mode: cap on rip-up-and-reroute passes (its feasibility
  /// threshold). Deliberately independent of max_passes so a shared options
  /// object keeps the paper-mode meaning of that field intact.
  int negotiate_passes = 32;

  /// Negotiated mode: present-overflow factor of the first pass and its
  /// geometric per-pass growth/cap. A wire at or over capacity charges
  /// present_factor * (occupancy + 1 - capacity) to every prospective new
  /// occupant; doubling each pass turns "sharing is cheap" exploration into
  /// "sharing is prohibitive" resolution. All dyadic, so repricing
  /// arithmetic is bit-exact on every platform.
  double present_factor = 0.5;
  double present_growth = 2.0;
  double present_factor_max = 4096.0;

  /// Negotiated mode: history cost accrued by every overflowed wire at the
  /// end of each pass. History never decays — it is the memory that steers
  /// nets away from chronically contested wires even when they are
  /// momentarily free.
  double history_increment = 0.25;

  /// Negotiated mode: attempt L/Z corridor pattern probes before the scoped
  /// engine on two-pin nets (router/patterns.hpp). Purely a fast path: a
  /// probe is accepted only when its corridor path is fault-free and
  /// congestion-free; anything else falls back to the engine.
  bool pattern_route = true;

  /// Record a per-net commit log (RoutingResult::commit_logs): the wire
  /// nodes each net consumed and — paper mode — the exact edges its commit
  /// penalized. Required by the incremental repair engine
  /// (router/repair.hpp): penalty applications depend on commit-time
  /// sibling activity, which later commits change, so exact rip-up needs
  /// the historical log, not a reconstruction from final state. Off by
  /// default (one-shot routes don't pay the bookkeeping).
  bool record_commits = false;
};

/// Per-net routing outcome classification — the graceful-degradation
/// contract. A plain bool cannot distinguish "needs one more wire" from
/// "physically impossible on this defective device" from "ran out of
/// budget", and those demand different reactions (widen the channel vs
/// accept the yield loss vs re-run with a bigger budget).
enum class NetStatus {
  kRouted,             // committed to the device
  kFailedCongestion,   // unroutable in the final pass, but reachable in a
                       // pristine device of this width: congestion/capacity
  kBlockedByFault,     // some terminal is unreachable even on an empty
                       // device with these faults: defect-blocked
  kAbortedBudget,      // the work budget expired before/while routing it
};

/// Printable name ("routed", "congestion", "fault", "budget").
std::string_view net_status_name(NetStatus status);

/// Per-net outcome. Pathlength metrics are measured at route time (on the
/// congested graph the net actually saw).
struct NetRouteResult {
  NetStatus status = NetStatus::kFailedCongestion;
  bool routed() const { return status == NetStatus::kRouted; }

  /// Fault-displacement context: how many rip-up retries the final pass
  /// spent on this net (> 0 on a routed net means it was rerouted around a
  /// defect), and — for kBlockedByFault — the first terminal the fault
  /// probe found unreachable.
  int retries = 0;
  NodeId blocked_sink = kInvalidNode;

  std::vector<EdgeId> edges;
  /// Metrics in the live routing metric (wirelength + congestion weighting)
  /// — what the router optimizes.
  Weight wirelength = 0;
  Weight max_pathlength = 0;
  Weight optimal_max_pathlength = 0;  // Dijkstra bound at route time
  /// Physical metrics (unit-length wire hops), independent of congestion
  /// weighting — what signal delay and resource usage actually are. Table 5
  /// compares algorithms on these.
  int physical_wirelength = 0;  // tree edge count
  int physical_max_path = 0;    // worst source-sink hop count
  int wire_nodes_used = 0;

  /// Field-for-field (bit-exact on the Weight fields) — the byte-stability
  /// and journal-replay contracts of the repair engine compare with this.
  friend bool operator==(const NetRouteResult&, const NetRouteResult&) = default;
};

/// What one net's commit did to the device — the undo record incremental
/// repair (router/repair.hpp) rips up with. Paper mode: `wires` are the
/// consumed wire nodes and `penalized` lists every edge the commit charged
/// congestion_penalty to, one entry per application (an edge can appear
/// more than once across a net's wires). Negotiated mode: `wires` only —
/// the final negotiated device state carries no penalties by contract.
struct NetCommitLog {
  std::vector<NodeId> wires;
  std::vector<EdgeId> penalized;

  friend bool operator==(const NetCommitLog&, const NetCommitLog&) = default;
};

/// Outcome of routing a whole circuit at one channel width.
struct RoutingResult {
  bool success = false;
  int passes = 0;
  int failed_nets = 0;  // in the final pass
  std::vector<NetRouteResult> nets;  // indexed like circuit.nets

  Weight total_wirelength = 0;
  int total_wire_nodes = 0;
  /// Sums over routed nets of max pathlength (for the Table 5 deltas).
  Weight total_max_pathlength = 0;
  Weight total_optimal_max_pathlength = 0;
  long total_physical_wirelength = 0;
  long total_physical_max_path = 0;

  // --- Graceful-degradation statistics (fault injection & work budgets) ---

  /// Routed nets that needed at least one fault retry: they exist in the
  /// final solution but took a detour around a defect.
  int nets_rerouted_around_faults = 0;
  int nets_blocked_by_fault = 0;  // final status kBlockedByFault
  int nets_aborted_budget = 0;    // final status kAbortedBudget
  /// Extra physical wirelength the fault-displaced nets pay versus routing
  /// each of them alone on a pristine fault-free device of the same width
  /// (per-net shortfalls clamp at zero — a lucky shorter route is not
  /// negative overhead).
  long detour_wirelength_overhead = 0;
  /// Node expansions actually spent (== RouterOptions::node_budget consumed
  /// when budget_exhausted, the true cost otherwise).
  long long work_used = 0;
  /// True when RouterOptions::node_budget expired before the router
  /// finished: `nets` is a partial-but-consistent solution (every kRouted
  /// net is committed and electrically disjoint; nothing is half-routed).
  bool budget_exhausted = false;

  /// The net order (indices into `nets`) the final pass routed in — the
  /// accumulated move-to-front permutation.
  std::vector<std::size_t> net_order;

  /// RouterOptions::record_commits only: one log per net (indexed like
  /// `nets`, empty vectors for unrouted nets), recording what that net's
  /// final-pass commit did to the device. Empty when recording is off.
  std::vector<NetCommitLog> commit_logs;

  // --- Negotiated-mode convergence contract (DESIGN.md §13) ---

  /// Negotiated mode only: one entry per negotiation pass, holding the
  /// LOWEST total wire overflow of any pass so far (best-so-far, so the
  /// trend is monotone non-increasing by construction — the convergence
  /// oracle pins this). Converged runs end in 0. Always empty in paper
  /// mode.
  std::vector<int> overflow_trend;

  /// Negotiated mode: corridor pattern-probe accounting across the whole
  /// run (attempts >= accepts; an accept means the probe's path shipped as
  /// the net's route for that pass). Zero in paper mode.
  long long pattern_attempts = 0;
  long long pattern_accepts = 0;

  /// Fraction of nets routed — the yield measure of a degraded run (1.0 for
  /// an empty circuit).
  double routed_fraction() const {
    if (nets.empty()) return 1.0;
    int routed = 0;
    for (const auto& n : nets) routed += n.routed() ? 1 : 0;
    return static_cast<double>(routed) / static_cast<double>(nets.size());
  }
};

/// Routes every net of the circuit on the device. In paper mode (the
/// default), one net at a time: route -> commit (consume wire nodes, bump
/// congestion) -> next net; failed nets move to the front and the whole
/// circuit re-routes, up to max_passes passes. The device is reset()
/// between passes and left holding the final (successful or last-attempt)
/// state. RouterOptions::mode == kNegotiated dispatches to the
/// negotiated-congestion loop instead (router/negotiate.hpp); either way
/// the final device state satisfies exclusive wire ownership.
RoutingResult route_circuit(Device& device, const Circuit& circuit, const RouterOptions& options);

/// Incremental (ECO) repair of an existing RoutingResult after a live
/// delta — a FaultEvent or a set of changed/added/removed nets — lives in
/// router/repair.hpp (`repair_route`), with the append-only event journal
/// and checkpoint/replay in router/journal.hpp. Both modes are supported;
/// routes that will be repaired must be produced with
/// RouterOptions::record_commits = true.

}  // namespace fpr
