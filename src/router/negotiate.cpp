#include "router/negotiate.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "core/contract.hpp"
#include "graph/budget.hpp"
#include "graph/congestion_layer.hpp"
#include "router/internal.hpp"
#include "router/patterns.hpp"

namespace fpr {

namespace testhooks {
std::atomic<bool> negotiate_break_history_update{false};
}  // namespace testhooks

namespace {

/// Unique wire nodes touched by a committed edge set, ascending — the
/// occupancy a net charges to the congestion layer. Matches the feasibility
/// oracle's replay (RoutingTree::nodes() filtered to wires).
std::vector<NodeId> wire_nodes_of(const Device& device, const std::vector<EdgeId>& edges) {
  const Graph& g = device.graph();
  std::vector<NodeId> wires;
  wires.reserve(edges.size() + 1);
  for (const EdgeId e : edges) {
    const Graph::Edge ed = g.edge(e);
    for (const NodeId v : {ed.u, ed.v}) {
      if (device.is_wire(v)) wires.push_back(v);
    }
  }
  std::sort(wires.begin(), wires.end());
  wires.erase(std::unique(wires.begin(), wires.end()), wires.end());
  return wires;
}

/// Everything the per-net routine needs; one instance per negotiated run.
struct NegotiateContext {
  Device& device;
  const Circuit& circuit;
  const RouterOptions& options;
  CongestionLayer& layer;
  WorkBudget& budget;
};

/// Pattern-probe accounting for one run, folded into the RoutingResult.
struct PatternStats {
  long long attempts = 0;
  long long accepts = 0;
};

/// Charges the net's wires to the layer, repricing as it goes, so later
/// nets in the same pass see the updated present costs.
void commit_occupancy(NegotiateContext& ctx, NetRouteResult& record,
                      const std::vector<NodeId>& wires) {
  for (const NodeId w : wires) ctx.layer.add_occupant(w);
  record.wire_nodes_used = static_cast<int>(wires.size());
}

/// A pattern accept IS the net's measurement: the probe's path cost is the
/// live wirelength and (two-pin) worst pathlength, and stands in for the
/// Dijkstra optimum bound as a recorded upper bound — running a full SSSP
/// just to tighten a diagnostic would cancel the fast path's point.
void fill_pattern_record(NetRouteResult& record, std::vector<EdgeId>&& edges, Weight cost) {
  record.status = NetStatus::kRouted;
  record.edges = std::move(edges);
  record.wirelength = cost;
  record.max_pathlength = cost;
  record.optimal_max_pathlength = cost;
  record.physical_wirelength = static_cast<int>(record.edges.size());
  record.physical_max_path = static_cast<int>(record.edges.size());
}

/// Routes net `idx` on the live device in negotiated mode: the pattern fast
/// path for two-pin connections, else one whole-net scoped engine attempt.
/// No fault-retry ladder and no congestion relief — wires are never
/// consumed here, so a defect detour emerges from ordinary pricing, and the
/// mode-gating contract (negotiate_paper_boundary_test) pins that the
/// paper-mode relief machinery stays disengaged.
void route_net_live(NegotiateContext& ctx, std::size_t idx, NetRouteResult& record,
                    std::vector<std::size_t>& failed, PatternStats& patterns) {
  Device& device = ctx.device;
  const RouterOptions& options = ctx.options;
  WorkBudget& budget = ctx.budget;
  const Net net = to_graph_net(device, ctx.circuit.nets[idx]);
  if (net.sinks.empty()) {  // all pins on one block: trivially routed
    record.status = NetStatus::kRouted;
    return;
  }
  Graph& g = device.graph();

  if (options.pattern_route && net.sinks.size() == 1) {
    ++patterns.attempts;
    counters().pattern_attempts.fetch_add(1, std::memory_order_relaxed);
    PatternProbe probe = pattern_route(device, ctx.layer, net.source, net.sinks[0], &budget);
    if (probe.accepted) {
      ++patterns.accepts;
      counters().pattern_accepts.fetch_add(1, std::memory_order_relaxed);
      fill_pattern_record(record, std::move(probe.edges), probe.cost);
      commit_occupancy(ctx, record, wire_nodes_of(device, record.edges));
      return;
    }
    if (probe.budget_aborted) {
      record.status = NetStatus::kAbortedBudget;
      failed.push_back(idx);
      return;
    }
    // Probe found no free corridor path (congestion or faults): fall back
    // to the full engine, which may still share wires at a price.
  }

  PathOracle oracle(g);
  oracle.set_budget(&budget);
  const std::vector<NodeId> terminals = net.terminals();
  const bool critical = ctx.circuit.nets[idx].critical;
  const Algorithm algo = critical ? options.critical_algorithm : options.algorithm;
  if (algorithm_supports_scoped_paths(algo)) oracle.set_scope(terminals);
  const RoutingTree tree = route(g, net, algo, oracle, options.route_options);
  if (!tree.spans(terminals)) {
    record.status =
        budget.exhausted() ? NetStatus::kAbortedBudget : NetStatus::kFailedCongestion;
    failed.push_back(idx);
    return;
  }
  // Measurement mirrors paper mode's rules (router.cpp): post-hoc, never
  // budget-charged, and never through budget-truncated cached trees — the
  // per-net oracle is reusable only for an unbudgeted attempt.
  oracle.set_budget(nullptr);
  TreeMetrics metrics;
  if (budget.unlimited()) {
    metrics = measure(g, net, tree, oracle);
  } else {
    PathOracle measure_oracle(g);
    metrics = measure(g, net, tree, measure_oracle);
  }
  record.status = NetStatus::kRouted;
  record.edges = tree.edges();
  record.wirelength = metrics.wirelength;
  record.max_pathlength = metrics.max_pathlength;
  record.optimal_max_pathlength = metrics.optimal_max_pathlength;
  record.physical_wirelength = static_cast<int>(record.edges.size());
  record.physical_max_path = tree.max_path_edge_count(net.source, net.sinks);
  commit_occupancy(ctx, record, wire_nodes_of(device, record.edges));
}

/// End-of-pass sweep: tallies total overflow over the occupied wires and
/// accrues history on every overflowed one. Lives here (not in the layer)
/// so the seeded-bug testhook corrupts tally and accrual TOGETHER — the
/// loop then believes a sharing solution converged, and the feasibility
/// oracle must catch the exclusivity violation downstream.
int tally_overflow_and_accrue(CongestionLayer& layer, double increment) {
  const bool broken = testhooks::negotiate_break_history_update.load(std::memory_order_relaxed);
  int overflow = 0;
  for (const NodeId v : layer.occupied()) {
    if (broken && (v % 2) != 0) continue;  // seeded bug: odd-id wires forgotten
    const int over = layer.occupancy(v) - layer.capacity();
    if (over <= 0) continue;
    overflow += over;
    layer.accrue_history(v, increment);
  }
  return overflow;
}

}  // namespace

RoutingResult route_circuit_negotiated(Device& device, const Circuit& circuit,
                                       const RouterOptions& options) {
  FPR_CHECK(!options.decompose_two_pin,
            "negotiated mode routes whole nets only — decompose_two_pin is the paper-mode "
            "baseline and its per-sink commits have no negotiated meaning");
  counters().negotiate_runs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t net_count = circuit.nets.size();

  device.reset();
  Graph& g = device.graph();
  CongestionLayer layer(g, device.block_count());
  WorkBudget budget{options.node_budget};
  NegotiateContext ctx{device, circuit, options, layer, budget};

  RoutingResult result;
  std::vector<std::size_t> order(net_count);
  std::iota(order.begin(), order.end(), 0);

  /// Best non-aborted pass so far, by (overflow, failed count) — restored
  /// when the loop exhausts its pass cap without converging.
  struct Snapshot {
    std::vector<NetRouteResult> nets;
    int overflow = std::numeric_limits<int>::max();
    int failed = std::numeric_limits<int>::max();
    bool valid() const { return overflow != std::numeric_limits<int>::max(); }
  } best;

  PatternStats patterns;
  std::vector<NetRouteResult> pass_nets;
  std::vector<std::size_t> failed;
  double present = options.present_factor;
  const int pass_cap = std::max(1, options.negotiate_passes);
  const int stall_window = options.stall_passes > 0 ? std::max(options.stall_passes, 6) : 0;
  int best_overflow_seen = std::numeric_limits<int>::max();
  int last_overflow = 0;
  int stalled = 0;
  bool converged = false;

  for (int pass = 1; pass <= pass_cap; ++pass) {
    counters().negotiate_passes.fetch_add(1, std::memory_order_relaxed);
    // Rip up everything: occupancy clears (history persists), then the new
    // present factor takes effect on an empty layer.
    layer.begin_pass();
    layer.set_present_factor(present);
    pass_nets.assign(net_count, NetRouteResult{});
    failed.clear();
    result.passes = pass;

    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      if (budget.exhausted()) {
        // Out of budget: everything not yet attempted this pass aborts;
        // the committed prefix stays a consistent partial pass.
        for (std::size_t rest = pos; rest < order.size(); ++rest) {
          pass_nets[order[rest]].status = NetStatus::kAbortedBudget;
          failed.push_back(order[rest]);
        }
        break;
      }
      const std::size_t idx = order[pos];
      route_net_live(ctx, idx, pass_nets[idx], failed, patterns);
    }

    last_overflow = tally_overflow_and_accrue(layer, options.history_increment);
    best_overflow_seen = std::min(best_overflow_seen, last_overflow);
    result.overflow_trend.push_back(best_overflow_seen);

    if (budget.exhausted()) break;  // ship the current (partial) pass

    const bool improved =
        last_overflow < best.overflow ||
        (last_overflow == best.overflow && static_cast<int>(failed.size()) < best.failed);
    if (improved) {
      best.nets = pass_nets;
      best.overflow = last_overflow;
      best.failed = static_cast<int>(failed.size());
      stalled = 0;
    } else if (stall_window > 0 && ++stalled >= stall_window) {
      break;  // not converging; ship the best pass seen
    }
    if (last_overflow == 0) {
      converged = true;
      break;
    }
    present = std::min(present * options.present_growth, options.present_factor_max);
  }

  // Choose the shipped solution: the current pass when it converged or the
  // budget expired mid-run (paper mode ships its partial pass the same
  // way), else the best non-aborted pass.
  const bool use_current = converged || budget.exhausted() || !best.valid();
  result.nets = use_current ? std::move(pass_nets) : std::move(best.nets);
  const int believed_overflow = use_current ? last_overflow : best.overflow;

  // Rebuild the layer's occupancy from the chosen records (deterministic
  // ascending order), then — only when the loop BELIEVES overflow remains —
  // vacate over-capacity wires by ripping their nets in descending index
  // order, so the shipped solution satisfies exclusive wire ownership. The
  // belief gate is deliberate: a convergence-accounting bug that
  // undercounts overflow must ship its broken sharing solution for the
  // feasibility oracle to catch, not have this sweep quietly repair it.
  layer.begin_pass();
  for (std::size_t idx = 0; idx < net_count; ++idx) {
    if (!result.nets[idx].routed()) continue;
    for (const NodeId w : wire_nodes_of(device, result.nets[idx].edges)) layer.add_occupant(w);
  }
  if (believed_overflow > 0) {
    for (std::size_t idx = net_count; idx-- > 0;) {
      NetRouteResult& record = result.nets[idx];
      if (!record.routed() || record.edges.empty()) continue;
      const std::vector<NodeId> wires = wire_nodes_of(device, record.edges);
      bool over = false;
      for (const NodeId w : wires) {
        if (layer.occupancy(w) > layer.capacity()) {
          over = true;
          break;
        }
      }
      if (!over) continue;
      for (const NodeId w : wires) layer.remove_occupant(w);
      record = NetRouteResult{};  // status defaults to kFailedCongestion
    }
  }

  // Final device state: base weights (plus faults) with every routed net's
  // wires consumed — the same exclusive-ownership surface paper mode leaves
  // behind. The activity guard makes a shipped sharing violation (seeded
  // bugs) survive to the oracle instead of crashing a double-remove.
  device.reset();
  if (options.record_commits) result.commit_logs.assign(net_count, NetCommitLog{});
  for (std::size_t idx = 0; idx < net_count; ++idx) {
    const NetRouteResult& record = result.nets[idx];
    if (!record.routed()) continue;
    for (const NodeId w : wire_nodes_of(device, record.edges)) {
      if (g.node_active(w)) {
        g.remove_node(w);
        // Wires only, no penalties: the negotiated final state carries none
        // by contract, so this log is the commit's exact undo record.
        if (options.record_commits) result.commit_logs[idx].wires.push_back(w);
      }
    }
  }

  result.failed_nets = 0;
  bool any_aborted = false;
  for (const auto& record : result.nets) {
    if (!record.routed()) ++result.failed_nets;
    any_aborted = any_aborted || record.status == NetStatus::kAbortedBudget;
  }
  result.success = result.failed_nets == 0;
  result.budget_exhausted = any_aborted;
  result.net_order = std::move(order);
  result.work_used = budget.used;
  result.pattern_attempts = patterns.attempts;
  result.pattern_accepts = patterns.accepts;

  if ((device.has_faults() || device.has_fault_events()) && !result.success) {
    router_internal::classify_fault_blocked(device, circuit, result);
  }
  router_internal::accumulate_degradation_stats(device, circuit, options, result);
  router_internal::accumulate_totals(result);
  return result;
}

}  // namespace fpr
