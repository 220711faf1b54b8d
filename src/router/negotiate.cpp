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

namespace fpr {

namespace testhooks {
std::atomic<bool> negotiate_break_history_update{false};
}  // namespace testhooks

namespace {

/// Present-overflow factor of the first pass and its geometric per-pass
/// growth and cap. A wire at or over capacity charges
/// present * (occupancy + 1 - capacity) to every prospective new occupant;
/// doubling each pass turns "sharing is cheap" exploration into "sharing is
/// prohibitive" resolution. All dyadic, so repricing arithmetic is bit-exact
/// on every platform.
constexpr double kPresentFactor = 0.5;
constexpr double kPresentGrowth = 2.0;
constexpr double kPresentFactorMax = 4096.0;

/// History cost accrued by every overflowed wire at the end of each pass.
/// History never decays — it is the memory that steers nets away from
/// chronically contested wires even when they are momentarily free.
constexpr double kHistoryIncrement = 0.25;

/// End-of-pass sweep: tallies total overflow over the occupied wires,
/// accrues history on every overflowed one and lists them in `overflowed`
/// (ascending) — the wires whose owners the next pass rips up. Lives here
/// (not in the layer) so the seeded-bug testhook corrupts tally, accrual
/// and rip-up selection TOGETHER — the loop then believes a sharing
/// solution converged, and the feasibility oracle must catch the
/// exclusivity violation downstream.
int tally_overflow_and_accrue(CongestionLayer& layer, double increment,
                              std::vector<NodeId>& overflowed) {
  const bool broken = testhooks::negotiate_break_history_update.load(std::memory_order_relaxed);
  int overflow = 0;
  overflowed.clear();
  for (const NodeId v : layer.occupied()) {
    if (broken && (v % 2) != 0) continue;  // seeded bug: odd-id wires forgotten
    const int over = layer.occupancy(v) - layer.capacity();
    if (over <= 0) continue;
    overflow += over;
    layer.accrue_history(v, increment);
    overflowed.push_back(v);
  }
  return overflow;
}

}  // namespace

RoutingResult route_circuit_negotiated(Device& device, const Circuit& circuit,
                                       const RouterOptions& options) {
  FPR_CHECK(!options.decompose_two_pin,
            "negotiated mode routes whole nets only — decompose_two_pin is the paper-mode "
            "baseline and its per-sink commits have no negotiated meaning");
  const std::size_t net_count = circuit.nets.size();

  device.reset();
  Graph& g = device.graph();
  CongestionLayer layer(g, device.block_count());
  WorkBudget budget{options.node_budget};
  std::vector<NetCommitLog> held(net_count);  // each net's layer occupancy
  router_internal::NetContext ctx{device, circuit, options, budget,
                                  router_internal::fault_retry_count(device, options), &layer,
                                  &held};

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

  std::vector<NetRouteResult> pass_nets(net_count);
  std::vector<char> rip(net_count, 1);                // pass 1 routes every net
  std::vector<NodeId> overflowed;
  std::vector<std::size_t> failed;
  double present = kPresentFactor;
  const int pass_cap = std::max(1, options.negotiate_passes);
  const int stall_window = options.stall_passes > 0 ? std::max(options.stall_passes, 6) : 0;
  int best_overflow_seen = std::numeric_limits<int>::max();
  int last_overflow = std::numeric_limits<int>::max();
  int stalled = 0;
  bool converged = false;

  for (int pass = 1; pass <= pass_cap; ++pass) {
    counters().negotiate_passes.fetch_add(1, std::memory_order_relaxed);
    // Rip up only the selected nets; every other net keeps its record and
    // its occupancy, repriced below at the grown present factor.
    int ripped = 0;
    for (std::size_t idx = 0; idx < net_count; ++idx) {
      if (rip[idx] == 0) continue;
      for (const NodeId w : held[idx].wires) layer.remove_occupant(w);
      held[idx] = NetCommitLog{};
      pass_nets[idx] = NetRouteResult{};
      ++ripped;
    }
    layer.set_present_factor(present);
    result.reroute_trend.push_back(ripped);
    failed.clear();
    result.passes = pass;

    for (const std::size_t idx : order) {
      if (rip[idx] == 0) continue;
      if (budget.exhausted()) {
        // Out of budget: every ripped net not yet re-routed this pass
        // aborts; the committed rest stays a consistent partial pass.
        pass_nets[idx].status = NetStatus::kAbortedBudget;
        failed.push_back(idx);
        continue;
      }
      router_internal::route_net_live(ctx, idx, pass_nets[idx]);
      if (!pass_nets[idx].routed()) failed.push_back(idx);
    }

    const int previous_overflow = last_overflow;
    last_overflow = tally_overflow_and_accrue(layer, kHistoryIncrement, overflowed);
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
    present = std::min(present * kPresentGrowth, kPresentFactorMax);

    // The next pass re-routes the failed nets and the owners of every
    // overflowed wire. A pass that did not strictly lower the overflow
    // also rips the owners of those wires' tile siblings, freeing the
    // tracks a contested net needs to move over.
    std::fill(rip.begin(), rip.end(), 0);
    for (const std::size_t idx : failed) rip[idx] = 1;
    router_internal::select_wire_owners(
        device, [&](std::size_t i) -> const std::vector<NodeId>& { return held[i].wires; },
        overflowed, last_overflow >= previous_overflow, rip);
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
    for (const NodeId w : router_internal::wire_nodes_of(device, result.nets[idx].edges)) {
      layer.add_occupant(w);
    }
  }
  if (believed_overflow > 0) {
    for (std::size_t idx = net_count; idx-- > 0;) {
      NetRouteResult& record = result.nets[idx];
      if (!record.routed() || record.edges.empty()) continue;
      const std::vector<NodeId> wires = router_internal::wire_nodes_of(device, record.edges);
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
    for (const NodeId w : router_internal::wire_nodes_of(device, record.edges)) {
      if (g.node_active(w)) {
        g.remove_node(w);
        // Wires only, no penalties: the negotiated final state carries none
        // by contract, so this log is the commit's exact undo record.
        if (options.record_commits) result.commit_logs[idx].wires.push_back(w);
      }
    }
  }

  result.failed_nets = 0;
  for (const auto& record : result.nets) {
    if (!record.routed()) ++result.failed_nets;
  }
  result.success = result.failed_nets == 0;
  result.net_order = std::move(order);
  result.work_used = budget.used;
  result.pattern_attempts = ctx.pattern_attempts;
  result.pattern_accepts = ctx.pattern_accepts;
  router_internal::finish_result(device, circuit, options, result);
  return result;
}

}  // namespace fpr
