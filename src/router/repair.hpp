#pragma once

#include <atomic>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "router/router.hpp"

namespace fpr {

namespace testhooks {

/// When set, repair_cone() skips the congestion-neighbor expansion round —
/// the cone contains only the nets whose committed resources the event's
/// dead elements hit directly, never the nets owning a tile sibling of a
/// dead wire. This is the seeded "cone misses congestion-dependent
/// neighbors" bug the repair mutation-smoke test plants: the repaired state
/// is still electrically legal, so only the Oracle::kRepair cone-contract
/// re-derivation can catch it. Never set outside tests.
extern std::atomic<bool> repair_skip_cone_neighbor;

}  // namespace testhooks

/// One ECO delta against a routed circuit — the unit repair_route consumes
/// and the repair journal logs. Combines a live fault event (elements that
/// died mid-service) with netlist changes (changed pin sets, new nets,
/// removed nets) and a per-event deterministic work budget.
///
/// Removal keeps net indices stable: a removed net's sinks are cleared, so
/// it degenerates to a single-block net (trivially routed, zero wires) and
/// every other index keeps meaning across events — the property that lets
/// a journal of many events replay against one result vector.
struct RepairEvent {
  /// Elements that died (applied via Device::apply_fault_event).
  FaultEvent faults;

  /// Nets whose pin set changed: index into circuit.nets -> replacement.
  std::vector<std::pair<int, CircuitNet>> changed;

  /// New nets, appended to circuit.nets in order.
  std::vector<CircuitNet> added;

  /// Nets to remove (indices into circuit.nets; sinks cleared in place).
  std::vector<int> removed;

  /// Deterministic work budget for THIS event's re-routes, in Dijkstra
  /// node expansions (same unit as RouterOptions::node_budget; never
  /// wall-clock). 0 = unlimited.
  long long budget = 0;

  bool empty() const {
    return faults.empty() && changed.empty() && added.empty() && removed.empty();
  }

  /// One-line record (core/line_format.hpp), the journal format. Empty
  /// categories are omitted; a net spells `[c%]x.y:x.y:...` (critical
  /// marker, source pin, then sinks) and lists join with `;`:
  ///   repair wires=12,40 edges=7 changed=2@0.1:3.4 added=c%0.0:2.2 removed=5 budget=50000
  std::string describe() const;
  static std::optional<RepairEvent> parse(const std::string& line);

  friend bool operator==(const RepairEvent&, const RepairEvent&) = default;
};

/// Per-event repair summary — what a daemon reports per delta and what the
/// journal records for replay cross-checking.
struct RepairOutcome {
  int cone_nets = 0;   // nets ripped up and re-attempted (delta + neighbors)
  int repaired = 0;    // cone nets routed after the event
  int degraded = 0;    // cone nets ending kBlockedByFault / kFailedCongestion
  int aborted = 0;     // cone nets ending kAbortedBudget
  long long budget_used = 0;  // node expansions this event spent
  /// Extra physical wirelength the surviving cone nets pay versus their
  /// pre-event routes (per-net shortfalls clamp at zero).
  long detour_overhead = 0;

  bool clean() const { return degraded == 0 && aborted == 0; }

  /// One-line serialization (every key always present — outcomes are
  /// compared field-for-field by journal replay):
  ///   outcome cone=3 repaired=3 degraded=0 aborted=0 budget=1234 detour=4
  std::string describe() const;
  static std::optional<RepairOutcome> parse(const std::string& line);

  friend bool operator==(const RepairOutcome&, const RepairOutcome&) = default;
};

/// The fault-affected cone of `faults` against a routed result: indices
/// (ascending, unique) of the nets that must re-route. A net is in the
/// cone when
///  (a) its committed wires contain a dead wire, or its committed edges
///      contain a dead edge (direct hit), or
///  (b) one bounded expansion round: it owns a tile sibling of a dead wire
///      — the congestion-dependent neighbors. Killing a wire re-prices its
///      channel tile (the penalties the dead wire's commit charged, and
///      the capacity its siblings now compete for), so sibling owners
///      re-route under the post-event landscape instead of a stale one.
/// Dead edges get no expansion round: a dead switch removes a connection
/// without changing any channel tile's capacity.
///
/// `result.commit_logs` must be populated (record_commits). Net-delta cone
/// members (changed/added/removed) are unioned in by repair_route itself.
std::vector<std::size_t> repair_cone(const Device& device, const RoutingResult& result,
                                     const FaultEvent& faults);

/// Applies `event` to (device, circuit, result) in place and repairs: the
/// fault overlay lands on the device (Device::apply_fault_event), the net
/// deltas land on the circuit, the affected cone (repair_cone + the
/// changed/added/removed nets) is ripped up EXACTLY — penalties subtracted
/// application-for-application from the recorded commit logs, wires
/// restored unless an event killed them — and re-routed one net at a time
/// in the result's established net order under the event's work budget,
/// through the same per-net code path a full routing pass uses (retry
/// ladder included in paper mode; negotiated mode re-routes with zero
/// penalties and zero retries, preserving its mode contract).
///
/// Every net outside the cone is byte-stable: its record, its committed
/// wires, and every penalty it charged are untouched. The result's
/// degradation statistics and totals are recounted afterwards, so the
/// repaired RoutingResult replays clean through the feasibility oracle
/// with the device's cumulative fault overlay installed.
///
/// Requires result.commit_logs sized like circuit.nets (route with
/// RouterOptions::record_commits = true) — FPR_CHECKed, as are event net
/// indices and pin coordinates. Works in both router modes; the cone
/// re-routes serially.
RepairOutcome repair_route(Device& device, Circuit& circuit, RoutingResult& result,
                           const RepairEvent& event, const RouterOptions& options);

}  // namespace fpr
