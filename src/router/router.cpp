#include "router/router.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "graph/dijkstra.hpp"
#include "router/internal.hpp"
#include "router/negotiate.hpp"

namespace fpr {

std::string_view router_mode_name(RouterMode mode) {
  switch (mode) {
    case RouterMode::kPaper: return "paper";
    case RouterMode::kNegotiated: return "negotiated";
  }
  return "?";
}

std::string_view net_status_name(NetStatus status) {
  switch (status) {
    case NetStatus::kRouted: return "routed";
    case NetStatus::kFailedCongestion: return "congestion";
    case NetStatus::kBlockedByFault: return "fault";
    case NetStatus::kAbortedBudget: return "budget";
  }
  return "?";
}

namespace {

/// Undo record for commit_net: every wire node it consumed and every edge
/// it charged the congestion penalty to (one entry per application, so an
/// edge penalized through several siblings appears several times). The
/// same shape the public API records per net when
/// RouterOptions::record_commits is on.
using CommitLog = NetCommitLog;

/// Commits a routed net: removes its wire nodes from the graph (electrical
/// disjointness) and charges the congestion penalty to the edges of the
/// remaining free wires in every channel tile the net touched. When `log`
/// is given, records enough to invert the commit exactly.
int commit_net(Device& device, const std::vector<EdgeId>& edges, double congestion_penalty,
               CommitLog* log = nullptr) {
  Graph& g = device.graph();
  std::vector<NodeId> wires;
  for (const EdgeId e : edges) {
    for (const NodeId v : {g.edge(e).u, g.edge(e).v}) {
      if (device.is_wire(v) && g.node_active(v)) {
        wires.push_back(v);
        g.remove_node(v);
      }
    }
  }
  if (congestion_penalty > 0) {
    for (const NodeId w : wires) {
      device.for_each_tile_sibling(w, [&](NodeId sibling) {
        if (!g.node_active(sibling)) return;
        for (const EdgeId e : g.incident_edges(sibling)) {
          if (g.edge_active(e)) {
            g.add_edge_weight(e, congestion_penalty);
            if (log) log->penalized.push_back(e);
          }
        }
      });
    }
  }
  if (log) log->wires.insert(log->wires.end(), wires.begin(), wires.end());
  return static_cast<int>(wires.size());
}

/// Exact inverse of the commits recorded in `log`: subtracts every penalty
/// delta and reactivates every consumed wire node, leaving the device as if
/// the net had never been attempted.
void rollback_commits(Device& device, const CommitLog& log, double congestion_penalty) {
  Graph& g = device.graph();
  for (auto it = log.penalized.rbegin(); it != log.penalized.rend(); ++it) {
    g.add_edge_weight(*it, -congestion_penalty);
  }
  for (auto it = log.wires.rbegin(); it != log.wires.rend(); ++it) {
    g.restore_node(*it);
  }
}

/// Scoped congestion relief for fault retries: remaps every edge weight
/// w -> 1 + (w - 1) * scale on construction and undoes the remap exactly on
/// destruction. Penalties charged while the guard is live (the decomposed
/// baseline commits per sink mid-attempt) are preserved: the destructor
/// restores original + (current - relaxed), i.e. only the relief delta is
/// removed. All arithmetic is over dyadic rationals (weights, the 0.25
/// penalty, backoff powers of 0.5), so the restore is bit-exact.
///
/// Only edges whose weight differs from the base 1.0 are snapshotted: for a
/// base-weight edge relaxed == original == current-delta, so both the remap
/// and the restore are no-ops, and the congested fraction of a device is
/// tiny — the guard costs O(congested edges), not O(E), per retry (one
/// full-array scan aside, with no per-edge revision bumps or restores).
class CongestionRelief {
 public:
  CongestionRelief(Graph& g, double scale) : g_(g) {
    // Engagement counter: relief assumes the paper mode's exclusive wire
    // ownership (weights encode the 0.25-per-commit penalties it relaxes).
    // Negotiated-mode weights encode present/history pricing instead, so
    // relief must never run there — negotiate_paper_boundary_test pins
    // this counter at zero across negotiated runs.
    counters().congestion_reliefs.fetch_add(1, std::memory_order_relaxed);
    const EdgeId count = g.edge_count();
    for (EdgeId e = 0; e < count; ++e) {
      const Weight w = g.edge_weight(e);
      if (w == 1.0) continue;
      const Weight relaxed = 1.0 + (w - 1.0) * scale;
      touched_.push_back({e, w, relaxed});
      if (relaxed != w) g_.set_edge_weight(e, relaxed);
    }
  }

  CongestionRelief(const CongestionRelief&) = delete;
  CongestionRelief& operator=(const CongestionRelief&) = delete;

  ~CongestionRelief() {
    for (const Entry& t : touched_) {
      const Weight target = t.original + (g_.edge_weight(t.edge) - t.relaxed);
      if (g_.edge_weight(t.edge) != target) g_.set_edge_weight(t.edge, target);
    }
  }

 private:
  struct Entry {
    EdgeId edge;
    Weight original;
    Weight relaxed;
  };

  Graph& g_;
  std::vector<Entry> touched_;
};

/// Baseline: each sink is an independent two-pin connection, committed as
/// soon as it is routed, so later connections — even of the same net —
/// may not reuse its wires. That per-net waste is exactly what the paper's
/// Steiner routing removes.
struct TwoPinOutcome {
  bool routed = false;
  bool budget_aborted = false;
  std::vector<EdgeId> edges;
  Weight wirelength = 0;
  Weight max_pathlength = 0;
  int physical_max_path = 0;
  int wire_nodes_used = 0;
};

TwoPinOutcome route_two_pin_decomposed(Device& device, const Net& net,
                                       double congestion_penalty, WorkBudget* budget,
                                       CommitLog* out_log = nullptr) {
  Graph& g = device.graph();
  TwoPinOutcome out;
  std::vector<EdgeId> all_edges;
  CommitLog log;
  // One tree object across all sinks: each commit mutates the graph, so the
  // search must rerun per sink, but the reuse overload keeps the per-sink
  // reruns allocation-free (the tree's vectors are recycled).
  ShortestPathTree spt;
  for (const NodeId sink : net.sinks) {
    dijkstra(g, net.source, spt, budget);
    if (!spt.reached(sink)) {
      // A later sink failed after earlier sinks already consumed wires and
      // charged congestion: the whole net fails, so give those resources
      // back — otherwise the dead net starves every net after it for the
      // rest of the pass.
      rollback_commits(device, log, congestion_penalty);
      TwoPinOutcome failed;
      failed.budget_aborted = spt.budget_aborted;
      return failed;  // routed == false, zero wires held
    }
    const auto path = spt.path_edges_to(sink);
    out.max_pathlength = std::max(out.max_pathlength, spt.distance(sink));
    out.physical_max_path = std::max(out.physical_max_path, static_cast<int>(path.size()));
    out.wirelength += spt.distance(sink);
    all_edges.insert(all_edges.end(), path.begin(), path.end());
    // Consume immediately so the next connection cannot share wires.
    out.wire_nodes_used += commit_net(device, path, congestion_penalty, &log);
  }
  out.routed = true;
  out.edges = std::move(all_edges);
  if (out_log != nullptr) *out_log = std::move(log);
  return out;
}

}  // namespace

// Shared post-hoc diagnosis (router/internal.hpp): identical logic serves
// the paper-mode loop below and the negotiated loop in negotiate.cpp.
namespace router_internal {

void classify_fault_blocked(const Device& device, const Circuit& circuit,
                            RoutingResult& result) {
  std::unique_ptr<Device> probe;
  PathOracle* oracle = nullptr;
  std::unique_ptr<PathOracle> oracle_storage;
  for (std::size_t idx = 0; idx < result.nets.size(); ++idx) {
    NetRouteResult& record = result.nets[idx];
    if (record.status != NetStatus::kFailedCongestion) continue;
    if (probe == nullptr) {
      probe = std::make_unique<Device>(device.spec());
      // The probe mirrors the device's defects only: installed fault set
      // plus the live-event overlay (either may be absent on its own).
      if (device.faults() != nullptr) probe->install_faults(device.faults()->spec());
      if (device.has_fault_events()) probe->apply_fault_event(device.fault_event_overlay());
      oracle_storage = std::make_unique<PathOracle>(probe->graph());
      oracle = oracle_storage.get();
    }
    const Net net = to_graph_net(*probe, circuit.nets[idx]);
    const ShortestPathTree& spt = oracle->from(net.source);
    for (const NodeId sink : net.sinks) {
      if (!spt.reached(sink)) {
        record.status = NetStatus::kBlockedByFault;
        record.blocked_sink = sink;
        break;
      }
    }
  }
}

namespace {

/// Physical wirelength of `net` routed alone on a pristine fault-free
/// device — the fault-free baseline the detour-overhead statistic compares
/// against. Returns -1 when even the solo route fails (pathological widths).
int solo_fault_free_wirelength(Device& pristine, const CircuitNet& circuit_net,
                               bool critical, const RouterOptions& options) {
  pristine.reset();
  const Net net = to_graph_net(pristine, circuit_net);
  if (net.sinks.empty()) return 0;
  Graph& g = pristine.graph();
  PathOracle oracle(g);
  const std::vector<NodeId> terminals = net.terminals();
  const Algorithm algo = critical ? options.critical_algorithm : options.algorithm;
  if (algorithm_supports_scoped_paths(algo)) oracle.set_scope(terminals);
  const RoutingTree tree = route(g, net, algo, oracle, options.route_options);
  if (!tree.spans(terminals)) return -1;
  return static_cast<int>(tree.edges().size());
}

}  // namespace

void accumulate_degradation_stats(const Device& device, const Circuit& circuit,
                                  const RouterOptions& options, RoutingResult& result) {
  std::unique_ptr<Device> pristine;  // built lazily: most runs have no detours
  for (std::size_t idx = 0; idx < result.nets.size(); ++idx) {
    const NetRouteResult& record = result.nets[idx];
    switch (record.status) {
      case NetStatus::kBlockedByFault: ++result.nets_blocked_by_fault; break;
      case NetStatus::kAbortedBudget: ++result.nets_aborted_budget; break;
      default: break;
    }
    if (!record.routed() || record.retries == 0) continue;
    ++result.nets_rerouted_around_faults;
    if (pristine == nullptr) pristine = std::make_unique<Device>(device.spec());
    const int solo = solo_fault_free_wirelength(*pristine, circuit.nets[idx],
                                                circuit.nets[idx].critical, options);
    if (solo >= 0 && record.physical_wirelength > solo) {
      result.detour_wirelength_overhead += record.physical_wirelength - solo;
    }
  }
}

void accumulate_totals(RoutingResult& result) {
  for (const auto& record : result.nets) {
    if (!record.routed()) continue;
    result.total_wirelength += record.wirelength;
    result.total_wire_nodes += record.wire_nodes_used;
    result.total_max_pathlength += record.max_pathlength;
    result.total_optimal_max_pathlength += record.optimal_max_pathlength;
    result.total_physical_wirelength += record.physical_wirelength;
    result.total_physical_max_path += record.physical_max_path;
  }
}

}  // namespace router_internal

namespace {

/// Everything the per-net routine needs; one instance per route_circuit.
struct NetContext {
  Device& device;
  const Circuit& circuit;
  const RouterOptions& options;
  WorkBudget& budget;
  int fault_retries;
  /// When non-null (record_commits), indexed like circuit.nets: each
  /// committed net writes its undo record to (*commit_logs)[idx].
  std::vector<NetCommitLog>* commit_logs = nullptr;
};

/// Routes net `idx` on the live device — the serial per-net routine: one
/// whole-net attempt (or the decomposed baseline), the fault-retry ladder,
/// measurement, and the commit. On failure appends idx to `failed`.
void route_net_live(NetContext& ctx, std::size_t idx, NetRouteResult& record,
                    std::vector<std::size_t>& failed) {
  Device& device = ctx.device;
  const RouterOptions& options = ctx.options;
  WorkBudget& budget = ctx.budget;
  const Net net = to_graph_net(device, ctx.circuit.nets[idx]);
  if (net.sinks.empty()) {  // all pins on one block: trivially routed
    record.status = NetStatus::kRouted;
    return;
  }
  Graph& g = device.graph();

  if (options.decompose_two_pin) {
    // Optimal pathlength bound measured before any of the net's own
    // connections consume resources.
    PathOracle oracle(g);
    oracle.set_budget(&budget);
    const auto& spt = oracle.from(net.source);
    Weight opt = 0;
    bool reachable = true;
    for (const NodeId s : net.sinks) {
      if (!spt.reached(s)) reachable = false;
      opt = std::max(opt, spt.distance(s));
    }
    if (!reachable) {
      record.status =
          budget.exhausted() ? NetStatus::kAbortedBudget : NetStatus::kFailedCongestion;
      failed.push_back(idx);
      return;
    }
    CommitLog* log =
        ctx.commit_logs != nullptr ? &(*ctx.commit_logs)[idx] : nullptr;
    auto out = route_two_pin_decomposed(device, net, options.congestion_penalty, &budget, log);
    double relief_scale = 1.0;
    while (!out.routed && !out.budget_aborted && record.retries < ctx.fault_retries) {
      ++record.retries;
      relief_scale *= options.fault_relief_backoff;
      CongestionRelief relief(g, relief_scale);
      out = route_two_pin_decomposed(device, net, options.congestion_penalty, &budget, log);
    }
    if (!out.routed) {
      record.status =
          out.budget_aborted ? NetStatus::kAbortedBudget : NetStatus::kFailedCongestion;
      failed.push_back(idx);
      return;
    }
    record.status = NetStatus::kRouted;
    record.edges = std::move(out.edges);
    record.wirelength = out.wirelength;
    record.max_pathlength = out.max_pathlength;
    record.optimal_max_pathlength = opt;
    record.physical_wirelength = static_cast<int>(record.edges.size());
    record.physical_max_path = out.physical_max_path;
    record.wire_nodes_used = out.wire_nodes_used;
    return;
  }

  PathOracle oracle(g);
  oracle.set_budget(&budget);
  const std::vector<NodeId> terminals = net.terminals();
  const bool critical = ctx.circuit.nets[idx].critical;
  const Algorithm algo = critical ? options.critical_algorithm : options.algorithm;
  // Radius-bounded shortest paths: local nets only pay for their
  // neighborhood of the device graph, not the whole chip.
  if (algorithm_supports_scoped_paths(algo)) {
    oracle.set_scope(terminals);
  }
  RoutingTree tree = route(g, net, algo, oracle, options.route_options);

  // Fault-retry ladder: a defect can sever exactly the corridor the
  // congestion weights and candidate cap funnel this net into, so each
  // retry widens the search — unscoped oracle, unlimited candidates,
  // then the DJKA arborescence (pure shortest paths reach anything
  // reachable) — under geometrically relaxed congestion.
  double relief_scale = 1.0;
  while (!tree.spans(terminals) && !budget.exhausted() &&
         record.retries < ctx.fault_retries) {
    ++record.retries;
    relief_scale *= options.fault_relief_backoff;
    CongestionRelief relief(g, relief_scale);
    PathOracle retry_oracle(g);
    retry_oracle.set_budget(&budget);
    const Algorithm retry_algo = record.retries == 1 ? algo : Algorithm::kDjka;
    const RouteOptions wide{CandidateStrategy::kAllNodes, 0, 0};
    tree = route(g, net, retry_algo, retry_oracle, wide);
  }

  if (!tree.spans(terminals)) {
    record.status =
        budget.exhausted() ? NetStatus::kAbortedBudget : NetStatus::kFailedCongestion;
    failed.push_back(idx);
    return;
  }
  // Measure on the true (unrelieved) weights, and never through a tree the
  // work budget may have truncated: a budget-aborted Dijkstra run stays
  // cached as a partial tree (path_oracle.hpp), so re-using the per-net
  // oracle here can record a tentative or even infinite "optimal" bound
  // for a net that ROUTED. Measurement is post-hoc diagnosis, not routing
  // work, so it must neither charge the budget nor trust budget-shaped
  // caches. The per-net oracle is safe only for an unbudgeted first
  // attempt (its cached source trees are then complete for the terminals);
  // a retried or budget-limited net is measured the way
  // classify_fault_blocked's probes run: fresh oracle, no scope, no budget.
  oracle.set_budget(nullptr);
  TreeMetrics metrics;
  if (record.retries == 0 && budget.unlimited()) {
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
  record.physical_wirelength = static_cast<int>(tree.edges().size());
  record.physical_max_path = tree.max_path_edge_count(net.source, net.sinks);
  CommitLog* log = ctx.commit_logs != nullptr ? &(*ctx.commit_logs)[idx] : nullptr;
  record.wire_nodes_used = commit_net(device, tree.edges(), options.congestion_penalty, log);
}

}  // namespace

namespace router_internal {

void route_single_net(Device& device, const Circuit& circuit, const RouterOptions& options,
                      WorkBudget& budget, int fault_retries,
                      std::vector<NetCommitLog>* commit_logs, std::size_t idx,
                      NetRouteResult& record) {
  NetContext ctx{device, circuit, options, budget, fault_retries, commit_logs};
  std::vector<std::size_t> failed;  // single-net call: the status already says it
  route_net_live(ctx, idx, record, failed);
}

}  // namespace router_internal

RoutingResult route_circuit(Device& device, const Circuit& circuit,
                            const RouterOptions& options) {
  if (options.mode == RouterMode::kNegotiated) {
    return route_circuit_negotiated(device, circuit, options);
  }
  const std::size_t net_count = circuit.nets.size();
  std::vector<std::size_t> order(net_count);
  std::iota(order.begin(), order.end(), 0);

  RoutingResult result;
  result.nets.assign(net_count, NetRouteResult{});

  // Deterministic work budget, shared by every search the call performs
  // (tree constructions, retries, the decomposed baseline). Node
  // expansions, never wall-clock: the same inputs exhaust it at the same
  // expansion on every platform.
  WorkBudget budget{options.node_budget};
  // Live fault events count as defects for the retry ladder and the
  // post-hoc fault classification: a from-scratch route on a device that
  // survived apply_fault_event() sees the same dead elements a
  // FaultSpec-faulted device would.
  const bool faulty = device.has_faults() || device.has_fault_events();
  const int fault_retries = faulty ? std::max(0, options.fault_retries) : 0;
  NetContext ctx{device, circuit, options, budget, fault_retries};

  int best_failed = static_cast<int>(net_count) + 1;
  int stalled = 0;
  for (int pass = 1; pass <= options.max_passes; ++pass) {
    device.reset();
    const long long work_so_far = budget.used;
    result = RoutingResult{};
    result.nets.assign(net_count, NetRouteResult{});
    if (options.record_commits) {
      result.commit_logs.assign(net_count, NetCommitLog{});
      ctx.commit_logs = &result.commit_logs;  // re-point: the vector was replaced
    }
    result.passes = pass;
    result.work_used = work_so_far;
    std::vector<std::size_t> failed;

    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const std::size_t idx = order[pos];
      if (budget.exhausted()) {
        // Out of budget: everything not yet attempted this pass aborts.
        // Nothing is half-committed (whole-net commits happen only after a
        // spanning tree is found; the decomposed baseline rolls back), so
        // the committed prefix is a consistent partial solution.
        for (std::size_t rest = pos; rest < order.size(); ++rest) {
          result.nets[order[rest]].status = NetStatus::kAbortedBudget;
          failed.push_back(order[rest]);
        }
        break;
      }
      route_net_live(ctx, idx, result.nets[idx], failed);
    }

    result.work_used = budget.used;
    result.net_order = order;
    if (failed.empty()) {
      result.success = true;
      break;
    }
    result.failed_nets = static_cast<int>(failed.size());
    if (budget.exhausted()) {
      result.budget_exhausted = true;
      break;  // partial solution: committed prefix + per-net abort statuses
    }
    if (result.failed_nets < best_failed) {
      best_failed = result.failed_nets;
      stalled = 0;
    } else if (options.stall_passes > 0 && ++stalled >= options.stall_passes) {
      break;  // not converging; declare this width infeasible
    }
    if (!options.move_to_front) continue;

    // Move-to-front: failed nets (in encounter order) lead the next pass.
    // Membership via a flag vector — the std::find scan was O(failed x nets)
    // per pass. The reorder counter is the other half of the mode-gating
    // contract alongside CongestionRelief's: negotiated mode routes a fixed
    // order, so it must never advance there.
    counters().move_to_front_reorders.fetch_add(1, std::memory_order_relaxed);
    std::vector<char> is_failed(net_count, 0);
    for (const std::size_t idx : failed) is_failed[idx] = 1;
    std::vector<std::size_t> reordered = failed;
    reordered.reserve(net_count);
    for (const std::size_t idx : order) {
      if (!is_failed[idx]) reordered.push_back(idx);
    }
    if (reordered == order) break;  // no progress possible; give up early
    order = std::move(reordered);
  }

  // Post-hoc failure diagnosis + degradation statistics over the final
  // pass's statuses.
  if (faulty && !result.success) {
    router_internal::classify_fault_blocked(device, circuit, result);
  }
  router_internal::accumulate_degradation_stats(device, circuit, options, result);
  router_internal::accumulate_totals(result);
  return result;
}

}  // namespace fpr
