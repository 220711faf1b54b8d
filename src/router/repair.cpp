#include "router/repair.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>

#include "core/contract.hpp"
#include "core/metrics.hpp"
#include "graph/budget.hpp"
#include "router/internal.hpp"

namespace fpr {

namespace testhooks {
std::atomic<bool> repair_skip_cone_neighbor{false};
}  // namespace testhooks

namespace {

// --- One-line serialization helpers (journal format) -----------------------
//
// Same defensive posture as FaultSpec::parse / text_io readers: a malformed
// line returns nullopt, never crashes — journals are untrusted files.

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (~std::uint64_t{0} - static_cast<std::uint64_t>(c - '0')) / 10) return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = value;
  return true;
}

bool parse_i32(const std::string& text, std::int32_t& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value)) return false;
  if (value > static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max())) return false;
  out = static_cast<std::int32_t>(value);
  return true;
}

bool parse_ll(const std::string& text, long long& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value)) return false;
  if (value > static_cast<std::uint64_t>(std::numeric_limits<long long>::max())) return false;
  out = static_cast<long long>(value);
  return true;
}

std::string format_ids(const std::vector<std::int32_t>& ids) {
  std::ostringstream os;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) os << ',';
    os << ids[i];
  }
  return os.str();
}

bool parse_id_list(const std::string& text, std::vector<std::int32_t>& out) {
  out.clear();
  if (text.empty()) return false;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = text.find(',', pos);
    const std::string token =
        comma == std::string::npos ? text.substr(pos) : text.substr(pos, comma - pos);
    std::int32_t value = 0;
    if (!parse_i32(token, value)) return false;
    out.push_back(value);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

/// `[c%]x.y(:x.y)*` — critical marker, source pin, then the sinks.
std::string format_net(const CircuitNet& net) {
  std::ostringstream os;
  if (net.critical) os << "c%";
  os << net.source.x << '.' << net.source.y;
  for (const PinRef& p : net.sinks) os << ':' << p.x << '.' << p.y;
  return os.str();
}

bool parse_pin(const std::string& token, PinRef& out) {
  const std::size_t dot = token.find('.');
  if (dot == std::string::npos) return false;
  return parse_i32(token.substr(0, dot), out.x) && parse_i32(token.substr(dot + 1), out.y);
}

bool parse_net(std::string text, CircuitNet& out) {
  out = CircuitNet{};
  if (text.rfind("c%", 0) == 0) {
    out.critical = true;
    text = text.substr(2);
  }
  std::size_t pos = 0;
  bool first = true;
  while (true) {
    const std::size_t colon = text.find(':', pos);
    const std::string token =
        colon == std::string::npos ? text.substr(pos) : text.substr(pos, colon - pos);
    PinRef pin;
    if (!parse_pin(token, pin)) return false;
    if (first) {
      out.source = pin;
      first = false;
    } else {
      out.sinks.push_back(pin);
    }
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  return !first;
}

/// Invokes `fn(piece)` for every `;`-separated piece; false when any piece
/// is empty or fn rejects it.
template <typename Fn>
bool for_each_piece(const std::string& text, Fn&& fn) {
  if (text.empty()) return false;
  std::size_t pos = 0;
  while (true) {
    const std::size_t sep = text.find(';', pos);
    const std::string piece =
        sep == std::string::npos ? text.substr(pos) : text.substr(pos, sep - pos);
    if (piece.empty() || !fn(piece)) return false;
    if (sep == std::string::npos) break;
    pos = sep + 1;
  }
  return true;
}

}  // namespace

std::string RepairEvent::describe() const {
  std::ostringstream os;
  os << "repair";
  if (!faults.dead_wires.empty()) os << " wires=" << format_ids(faults.dead_wires);
  if (!faults.dead_edges.empty()) os << " edges=" << format_ids(faults.dead_edges);
  if (!changed.empty()) {
    os << " changed=";
    for (std::size_t i = 0; i < changed.size(); ++i) {
      if (i > 0) os << ';';
      os << changed[i].first << '@' << format_net(changed[i].second);
    }
  }
  if (!added.empty()) {
    os << " added=";
    for (std::size_t i = 0; i < added.size(); ++i) {
      if (i > 0) os << ';';
      os << format_net(added[i]);
    }
  }
  if (!removed.empty()) os << " removed=" << format_ids(removed);
  if (budget > 0) os << " budget=" << budget;
  return os.str();
}

std::optional<RepairEvent> RepairEvent::parse(const std::string& line) {
  std::istringstream is(line);
  std::string tag;
  if (!(is >> tag) || tag != "repair") return std::nullopt;
  RepairEvent event;
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool ok = false;
    if (key == "wires") {
      ok = parse_id_list(value, event.faults.dead_wires);
    } else if (key == "edges") {
      ok = parse_id_list(value, event.faults.dead_edges);
    } else if (key == "changed") {
      ok = for_each_piece(value, [&](const std::string& piece) {
        const std::size_t at = piece.find('@');
        if (at == std::string::npos) return false;
        int idx = 0;
        CircuitNet net;
        if (!parse_i32(piece.substr(0, at), idx)) return false;
        if (!parse_net(piece.substr(at + 1), net)) return false;
        event.changed.emplace_back(idx, std::move(net));
        return true;
      });
    } else if (key == "added") {
      ok = for_each_piece(value, [&](const std::string& piece) {
        CircuitNet net;
        if (!parse_net(piece, net)) return false;
        event.added.push_back(std::move(net));
        return true;
      });
    } else if (key == "removed") {
      ok = parse_id_list(value, event.removed);
    } else if (key == "budget") {
      ok = parse_ll(value, event.budget);
    } else {
      // Unknown keys are accepted (and ignored) so the journal format can
      // grow without breaking old replay tooling.
      ok = true;
    }
    if (!ok) return std::nullopt;
  }
  event.faults.normalize();
  return event;
}

std::string RepairOutcome::describe() const {
  std::ostringstream os;
  os << "outcome cone=" << cone_nets << " repaired=" << repaired << " degraded=" << degraded
     << " aborted=" << aborted << " budget=" << budget_used << " detour=" << detour_overhead;
  return os.str();
}

std::optional<RepairOutcome> RepairOutcome::parse(const std::string& line) {
  std::istringstream is(line);
  std::string tag;
  if (!(is >> tag) || tag != "outcome") return std::nullopt;
  RepairOutcome outcome;
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool ok = false;
    long long ll = 0;
    if (key == "cone") {
      ok = parse_i32(value, outcome.cone_nets);
    } else if (key == "repaired") {
      ok = parse_i32(value, outcome.repaired);
    } else if (key == "degraded") {
      ok = parse_i32(value, outcome.degraded);
    } else if (key == "aborted") {
      ok = parse_i32(value, outcome.aborted);
    } else if (key == "budget") {
      ok = parse_ll(value, outcome.budget_used);
    } else if (key == "detour") {
      ok = parse_ll(value, ll);
      outcome.detour_overhead = static_cast<long>(ll);
    } else {
      ok = true;  // same growth policy as the event line
    }
    if (!ok) return std::nullopt;
  }
  return outcome;
}

std::vector<std::size_t> repair_cone(const Device& device, const RoutingResult& result,
                                     const FaultEvent& faults) {
  FPR_CHECK(result.commit_logs.size() == result.nets.size(),
            "repair_cone: result carries " << result.commit_logs.size() << " commit logs for "
                                           << result.nets.size()
                                           << " nets — route with record_commits");
  std::vector<char> in_cone(result.nets.size(), 0);
  if (!faults.empty()) {
    // Direct hits: committed wires vs dead wires, committed edges vs dead
    // edges. Commit logs give the wires (exactly what the net consumed);
    // the edge list is the committed route itself.
    for (std::size_t i = 0; i < result.nets.size(); ++i) {
      for (const NodeId w : result.commit_logs[i].wires) {
        if (faults.wire_faulted(w)) {
          in_cone[i] = 1;
          break;
        }
      }
      if (in_cone[i] == 0 && !faults.dead_edges.empty()) {
        for (const EdgeId e : result.nets[i].edges) {
          if (faults.edge_faulted(e)) {
            in_cone[i] = 1;
            break;
          }
        }
      }
    }
    // Bounded expansion: the congestion-dependent neighbors. A dead wire
    // re-prices its channel tile (the penalties its own commit charged
    // vanish with it, and its siblings now compete for one track fewer),
    // so the nets owning a tile sibling re-route under the post-event
    // landscape. Dead edges get no expansion round: a dead switch removes
    // a connection without changing any tile's capacity.
    if (!faults.dead_wires.empty() &&
        !testhooks::repair_skip_cone_neighbor.load(std::memory_order_relaxed)) {
      std::vector<std::int32_t> owner(static_cast<std::size_t>(device.graph().node_count()),
                                      -1);
      for (std::size_t i = 0; i < result.commit_logs.size(); ++i) {
        for (const NodeId w : result.commit_logs[i].wires) {
          owner[static_cast<std::size_t>(w)] = static_cast<std::int32_t>(i);
        }
      }
      for (const NodeId w : faults.dead_wires) {
        if (!device.is_wire(w)) continue;  // apply_fault_event FPR_CHECKs; stay lenient here
        device.for_each_tile_sibling(w, [&](NodeId s) {
          const std::int32_t net = owner[static_cast<std::size_t>(s)];
          if (net >= 0) in_cone[static_cast<std::size_t>(net)] = 1;
        });
      }
    }
  }
  std::vector<std::size_t> cone;
  for (std::size_t i = 0; i < in_cone.size(); ++i) {
    if (in_cone[i] != 0) cone.push_back(i);
  }
  return cone;
}

RepairOutcome repair_route(Device& device, Circuit& circuit, RoutingResult& result,
                           const RepairEvent& event, const RouterOptions& options) {
  FPR_CHECK(result.nets.size() == circuit.nets.size(),
            "repair_route: result records " << result.nets.size() << " nets, circuit has "
                                            << circuit.nets.size());
  FPR_CHECK(result.commit_logs.size() == circuit.nets.size(),
            "repair_route: result carries " << result.commit_logs.size() << " commit logs for "
                                            << circuit.nets.size()
                                            << " nets — route with record_commits");
  counters().repair_events.fetch_add(1, std::memory_order_relaxed);

  const auto check_pins = [&](const CircuitNet& net) {
    const auto on_array = [&](const PinRef& p) {
      return p.x >= 0 && p.x < circuit.cols && p.y >= 0 && p.y < circuit.rows;
    };
    FPR_CHECK(on_array(net.source), "repair_route: net source (" << net.source.x << ", "
                                                                 << net.source.y
                                                                 << ") off the array");
    for (const PinRef& p : net.sinks) {
      FPR_CHECK(on_array(p), "repair_route: net sink (" << p.x << ", " << p.y
                                                        << ") off the array");
    }
  };
  const int existing = static_cast<int>(circuit.nets.size());
  for (const auto& [idx, net] : event.changed) {
    FPR_CHECK(idx >= 0 && idx < existing,
              "repair_route: changed index " << idx << " outside " << existing << " nets");
    check_pins(net);
  }
  for (const int idx : event.removed) {
    FPR_CHECK(idx >= 0 && idx < existing,
              "repair_route: removed index " << idx << " outside " << existing << " nets");
  }
  for (const CircuitNet& net : event.added) check_pins(net);

  // --- 1. The cone: fault-affected nets (computed against the pre-event
  // state) unioned with the net-delta members. ---
  std::vector<char> in_cone(circuit.nets.size() + event.added.size(), 0);
  for (const std::size_t i : repair_cone(device, result, event.faults)) in_cone[i] = 1;
  for (const auto& [idx, net] : event.changed) in_cone[static_cast<std::size_t>(idx)] = 1;
  for (const int idx : event.removed) in_cone[static_cast<std::size_t>(idx)] = 1;

  // --- 2. Net deltas onto the circuit/result (indices stay stable:
  // removal clears sinks, additions append). ---
  for (const auto& [idx, net] : event.changed) circuit.nets[static_cast<std::size_t>(idx)] = net;
  for (const int idx : event.removed) circuit.nets[static_cast<std::size_t>(idx)].sinks.clear();
  for (const CircuitNet& net : event.added) {
    in_cone[circuit.nets.size()] = 1;
    circuit.nets.push_back(net);
    result.nets.emplace_back();
    result.commit_logs.emplace_back();
    result.net_order.push_back(circuit.nets.size() - 1);
  }

  // --- 3. The fault overlay lands on the live device: dead free elements
  // are removed in place, dead owned elements are recorded (their nets are
  // in the cone and about to release them). ---
  device.apply_fault_event(event.faults);

  // --- 4. Exact rip-up of the cone, from the recorded commit logs:
  // penalties subtracted application-for-application (dyadic, so the value
  // is restored bit-exactly regardless of inter-net order), wires restored
  // unless the event overlay killed them. Everything outside the cone is
  // untouched — byte-stability by construction. ---
  Graph& g = device.graph();
  const double penalty = options.congestion_penalty;
  RepairOutcome outcome;
  struct PreEvent {
    bool routed = false;
    int physical_wirelength = 0;
  };
  std::vector<std::size_t> cone;
  for (std::size_t i = 0; i < in_cone.size(); ++i) {
    if (in_cone[i] != 0) cone.push_back(i);
  }
  std::vector<PreEvent> before(cone.size());
  for (std::size_t k = 0; k < cone.size(); ++k) {
    const std::size_t i = cone[k];
    before[k] = {result.nets[i].routed(), result.nets[i].physical_wirelength};
    NetCommitLog& log = result.commit_logs[i];
    for (auto it = log.penalized.rbegin(); it != log.penalized.rend(); ++it) {
      g.add_edge_weight(*it, -penalty);
    }
    for (auto it = log.wires.rbegin(); it != log.wires.rend(); ++it) {
      if (!device.event_wire_faulted(*it)) g.restore_node(*it);
    }
    log = NetCommitLog{};
    result.nets[i] = NetRouteResult{};
    counters().repair_nets_ripped.fetch_add(1, std::memory_order_relaxed);
  }
  outcome.cone_nets = static_cast<int>(cone.size());

  // --- 5. Re-route the cone, serially, in the result's established net
  // order (so a repaired net sees exactly the device state its position
  // implies), under the event's own deterministic budget. ---
  RouterOptions repair_options = options;
  if (options.mode == RouterMode::kNegotiated) {
    // Mode contract: the negotiated final state carries no penalties and
    // reports zero retries, so cone nets re-route penalty-free with the
    // ladder off (negotiate_paper_boundary_test pins the relief counter).
    repair_options.congestion_penalty = 0.0;
    repair_options.decompose_two_pin = false;
  }
  const bool faulty = device.has_faults() || device.has_fault_events();
  const int fault_retries = options.mode == RouterMode::kPaper && faulty
                                ? std::max(0, options.fault_retries)
                                : 0;
  WorkBudget budget{event.budget};
  std::vector<char> pending = in_cone;
  const auto repair_net = [&](std::size_t idx) {
    if (pending[idx] == 0) return;
    pending[idx] = 0;
    NetRouteResult& record = result.nets[idx];
    if (budget.exhausted()) {
      record.status = NetStatus::kAbortedBudget;
      return;
    }
    router_internal::route_single_net(device, circuit, repair_options, budget, fault_retries,
                                      &result.commit_logs, idx, record);
    if (record.routed()) {
      counters().repair_nets_rerouted.fetch_add(1, std::memory_order_relaxed);
    }
  };
  for (const std::size_t idx : result.net_order) {
    if (idx < pending.size()) repair_net(idx);
  }
  // Insurance for results whose net_order is not a full permutation (e.g.
  // a zero-pass route): any cone net it missed repairs in index order.
  for (std::size_t idx = 0; idx < pending.size(); ++idx) repair_net(idx);

  // --- 6. Outcome + full recount of the result's summary fields, so the
  // repaired RoutingResult replays clean through the feasibility oracle. ---
  for (std::size_t k = 0; k < cone.size(); ++k) {
    const NetRouteResult& record = result.nets[cone[k]];
    if (record.routed()) {
      ++outcome.repaired;
      if (before[k].routed && record.physical_wirelength > before[k].physical_wirelength) {
        outcome.detour_overhead += record.physical_wirelength - before[k].physical_wirelength;
      }
    } else if (record.status == NetStatus::kAbortedBudget) {
      ++outcome.aborted;
    } else {
      ++outcome.degraded;
    }
  }
  outcome.budget_used = budget.used;
  result.work_used += budget.used;

  result.failed_nets = 0;
  for (const NetRouteResult& record : result.nets) {
    if (!record.routed()) ++result.failed_nets;
  }
  result.success = result.failed_nets == 0;
  if (!result.success && faulty) {
    router_internal::classify_fault_blocked(device, circuit, result);
  }
  result.nets_rerouted_around_faults = 0;
  result.nets_blocked_by_fault = 0;
  result.nets_aborted_budget = 0;
  result.detour_wirelength_overhead = 0;
  router_internal::accumulate_degradation_stats(device, circuit, options, result);
  result.total_wirelength = 0;
  result.total_wire_nodes = 0;
  result.total_max_pathlength = 0;
  result.total_optimal_max_pathlength = 0;
  result.total_physical_wirelength = 0;
  result.total_physical_max_path = 0;
  router_internal::accumulate_totals(result);
  result.budget_exhausted = result.nets_aborted_budget > 0;

  // classify_fault_blocked may have reclassified degraded cone nets; keep
  // the outcome's split consistent with the final statuses.
  outcome.degraded = 0;
  outcome.aborted = 0;
  for (const std::size_t i : cone) {
    const NetRouteResult& record = result.nets[i];
    if (record.routed()) continue;
    if (record.status == NetStatus::kAbortedBudget) {
      ++outcome.aborted;
    } else {
      ++outcome.degraded;
    }
  }
  return outcome;
}

}  // namespace fpr
