#include "router/repair.hpp"

#include <cstdint>
#include <sstream>
#include <string_view>

#include "core/contract.hpp"
#include "core/line_format.hpp"
#include "core/metrics.hpp"
#include "fpga/faults.hpp"
#include "graph/budget.hpp"
#include "router/internal.hpp"

namespace fpr {

namespace testhooks {
std::atomic<bool> repair_skip_cone_neighbor{false};
}  // namespace testhooks

namespace {

// --- One-line records (core/line_format.hpp), the journal format ----------

/// `[c%]x.y(:x.y)*` — critical marker, source pin, then the sinks.
std::string format_net(const CircuitNet& net) {
  std::ostringstream os;
  if (net.critical) os << "c%";
  os << net.source.x << '.' << net.source.y;
  for (const PinRef& p : net.sinks) os << ':' << p.x << '.' << p.y;
  return os.str();
}

bool parse_pin(std::string_view text, PinRef& out) {
  const std::size_t dot = text.find('.');
  return dot != std::string_view::npos && line_format::parse_uint(text.substr(0, dot), out.x) &&
         line_format::parse_uint(text.substr(dot + 1), out.y);
}

bool parse_net(std::string_view text, CircuitNet& out) {
  out = CircuitNet{};
  if (text.starts_with("c%")) {
    out.critical = true;
    text.remove_prefix(2);
  }
  bool first = true;
  return line_format::for_each_item(text, ':', [&](std::string_view piece) {
    PinRef pin;
    if (!parse_pin(piece, pin)) return false;
    if (first) {
      out.source = pin;
      first = false;
    } else {
      out.sinks.push_back(pin);
    }
    return true;
  });
}

}  // namespace

std::string RepairEvent::describe() const {
  std::ostringstream os;
  os << "repair" << faults.fields();
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
  if (!removed.empty()) os << " removed=" << line_format::format_ids(removed);
  if (budget > 0) os << " budget=" << budget;
  return os.str();
}

std::optional<RepairEvent> RepairEvent::parse(const std::string& line) {
  RepairEvent event;
  const bool read = line_format::read_record(line, "repair", [&](std::string_view key,
                                                                std::string_view value) {
    if (key == "changed") {
      return line_format::for_each_item(value, ';', [&](std::string_view piece) {
        const std::size_t at = piece.find('@');
        int idx = 0;
        CircuitNet net;
        if (at == std::string_view::npos || !line_format::parse_uint(piece.substr(0, at), idx) ||
            !parse_net(piece.substr(at + 1), net)) {
          return false;
        }
        event.changed.emplace_back(idx, std::move(net));
        return true;
      });
    }
    if (key == "added") {
      return line_format::for_each_item(value, ';', [&](std::string_view piece) {
        CircuitNet net;
        if (!parse_net(piece, net)) return false;
        event.added.push_back(std::move(net));
        return true;
      });
    }
    if (key == "removed") return line_format::parse_id_list(value, event.removed);
    if (key == "budget") return line_format::parse_uint(value, event.budget);
    return event.faults.read_field(key, value);
  });
  if (!read) return std::nullopt;
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
  RepairOutcome outcome;
  const bool read = line_format::read_record(line, "outcome", [&](std::string_view key,
                                                                 std::string_view value) {
    if (key == "cone") return line_format::parse_uint(value, outcome.cone_nets);
    if (key == "repaired") return line_format::parse_uint(value, outcome.repaired);
    if (key == "degraded") return line_format::parse_uint(value, outcome.degraded);
    if (key == "aborted") return line_format::parse_uint(value, outcome.aborted);
    if (key == "budget") return line_format::parse_uint(value, outcome.budget_used);
    if (key == "detour") return line_format::parse_uint(value, outcome.detour_overhead);
    return true;
  });
  if (!read) return std::nullopt;
  return outcome;
}

std::vector<std::size_t> repair_cone(const Device& device, const RoutingResult& result,
                                     const FaultEvent& faults) {
  FPR_CHECK(result.commit_logs.size() == result.nets.size(),
            "repair_cone: result carries " << result.commit_logs.size() << " commit logs for "
                                           << result.nets.size()
                                           << " nets — route with record_commits");
  std::vector<char> in_cone(result.nets.size(), 0);
  // Direct hits on committed wires (commit logs give exactly what each net
  // consumed), plus one expansion round over the congestion-dependent
  // neighbors: a dead wire re-prices its channel tile (the penalties its
  // own commit charged vanish with it, and its siblings now compete for one
  // track fewer), so the nets owning a tile sibling re-route under the
  // post-event landscape. Dead edges get no expansion round: a dead switch
  // removes a connection without changing any tile's capacity.
  if (!faults.dead_wires.empty()) {
    const bool sibling_round =
        !testhooks::repair_skip_cone_neighbor.load(std::memory_order_relaxed);
    router_internal::select_wire_owners(
        device,
        [&](std::size_t i) -> const std::vector<NodeId>& { return result.commit_logs[i].wires; },
        faults.dead_wires, sibling_round, in_cone);
  }
  // Direct hits on committed edges: the edge list is the committed route.
  if (!faults.dead_edges.empty()) {
    for (std::size_t i = 0; i < result.nets.size(); ++i) {
      if (in_cone[i] != 0) continue;
      for (const EdgeId e : result.nets[i].edges) {
        if (faults.edge_faulted(e)) {
          in_cone[i] = 1;
          break;
        }
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
    router_internal::rollback_commits(device, result.commit_logs[i], options.congestion_penalty);
    result.commit_logs[i] = NetCommitLog{};
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
  WorkBudget budget{event.budget};
  router_internal::NetContext ctx{device, circuit, repair_options, budget,
                                  router_internal::fault_retry_count(device, options), nullptr,
                                  &result.commit_logs};
  std::vector<char> pending = in_cone;
  const auto repair_net = [&](std::size_t idx) {
    if (pending[idx] == 0) return;
    pending[idx] = 0;
    NetRouteResult& record = result.nets[idx];
    if (budget.exhausted()) {
      record.status = NetStatus::kAbortedBudget;
      return;
    }
    router_internal::route_net_live(ctx, idx, record);
  };
  for (const std::size_t idx : result.net_order) {
    if (idx < pending.size()) repair_net(idx);
  }
  // Insurance for results whose net_order is not a full permutation (e.g.
  // a zero-pass route): any cone net it missed repairs in index order.
  for (std::size_t idx = 0; idx < pending.size(); ++idx) repair_net(idx);

  // --- 6. Full recount of the result's summary fields, so the repaired
  // RoutingResult replays clean through the feasibility oracle, then the
  // outcome. It is counted after finish_result because classify_fault_blocked
  // may turn degraded cone nets into fault-blocked ones; routed nets and
  // their wirelengths stay as they are. ---
  outcome.budget_used = budget.used;
  result.work_used += budget.used;

  result.failed_nets = 0;
  for (const NetRouteResult& record : result.nets) {
    if (!record.routed()) ++result.failed_nets;
  }
  result.success = result.failed_nets == 0;
  router_internal::finish_result(device, circuit, options, result);

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
  return outcome;
}

}  // namespace fpr
