#pragma once

#include <cstddef>
#include <vector>

#include "fpga/device.hpp"
#include "graph/congestion_layer.hpp"
#include "netlist/netlist.hpp"
#include "router/router.hpp"

/// The per-net routing routine and its helpers, shared by the paper-mode
/// router (router.cpp), the negotiated-congestion loop (negotiate.cpp) and
/// incremental repair (repair.cpp). Internal to src/router: every full
/// pass and every re-route goes through one routine, and the modes differ
/// only in the commit policy NetContext::layer selects.
namespace fpr::router_internal {

/// Everything the per-net routine needs; one instance per routing run.
struct NetContext {
  Device& device;
  const Circuit& circuit;
  const RouterOptions& options;
  WorkBudget& budget;
  /// Fault-retry ladder length (fault_retry_count below).
  int fault_retries;
  /// The mode policy. Null (paper mode): a commit consumes the net's wires
  /// and charges options.congestion_penalty. Non-null (negotiated mode): a
  /// commit adds the net's wires to the layer's occupancy, and two-pin
  /// nets first try the L/Z pattern probe. Edge pricing is the same in
  /// both: route() reads graph weights.
  CongestionLayer* layer = nullptr;
  /// Indexed like circuit.nets: each commit writes net idx's undo record
  /// to (*commit_logs)[idx]. Optional in paper mode, required with a layer
  /// (the log is then the net's occupancy, wires only).
  std::vector<NetCommitLog>* commit_logs = nullptr;
  /// Pattern-probe accounting over the run.
  long long pattern_attempts = 0;
  long long pattern_accepts = 0;
};

/// Scoped congestion relief for fault retries: remaps every edge weight
/// w -> 1 + (w - 1) * scale on construction and undoes the remap exactly on
/// destruction. Penalties charged while the guard is live (the decomposed
/// baseline commits per sink mid-attempt) are preserved: the destructor
/// restores original + (current - relaxed), i.e. only the relief delta is
/// removed. All arithmetic is over dyadic rationals (weights, the 0.25
/// penalty, backoff powers of 0.5), so the restore is bit-exact. With
/// scale >= 0 a weight >= 1.0 stays >= 1.0, which Device::
/// distance_lower_bound relies on (tests/fpga/distance_bound_test.cpp).
///
/// Only edges whose weight differs from the base 1.0 are snapshotted: for a
/// base-weight edge relaxed == original == current-delta, so both the remap
/// and the restore are no-ops, and the congested fraction of a device is
/// tiny — the guard costs O(congested edges), not O(E), per retry (one
/// full-array scan aside, with no per-edge revision bumps or restores).
class CongestionRelief {
 public:
  CongestionRelief(Graph& g, double scale);
  CongestionRelief(const CongestionRelief&) = delete;
  CongestionRelief& operator=(const CongestionRelief&) = delete;
  ~CongestionRelief();

 private:
  struct Entry {
    EdgeId edge;
    Weight original;
    Weight relaxed;
  };

  Graph& g_;
  std::vector<Entry> touched_;
};

/// Routes net `idx` on the live device into `record`: one whole-net
/// attempt (paper mode: or the decomposed two-pin baseline), the
/// fault-retry ladder when ctx.fault_retries > 0, post-hoc measurement,
/// and the mode's commit. `record.routed()` says whether it succeeded;
/// nothing is committed when it did not.
void route_net_live(NetContext& ctx, std::size_t idx, NetRouteResult& record);

/// Fault-retry ladder length for a run: max(0, fault_retries), except 0
/// in negotiated mode (wires are never consumed there, so a defect detour
/// emerges from ordinary pricing; negotiate_paper_boundary_test pins that
/// relief never engages) and 0 on a defect-free device (a failed
/// deterministic search would just fail identically again).
int fault_retry_count(const Device& device, const RouterOptions& options);

/// Exact inverse of the commits recorded in `log`: subtracts every penalty
/// application and reactivates every consumed wire node the live fault
/// event did not kill, leaving the device as if the net had never been
/// attempted. Penalties are dyadic, so weights restore bit-exactly in any
/// inter-net order.
void rollback_commits(Device& device, const NetCommitLog& log, double congestion_penalty);

/// Unique wire nodes touched by an edge set, ascending — the occupancy a
/// negotiated commit charges to the congestion layer. Matches the
/// feasibility oracle's replay (RoutingTree::nodes() filtered to wires).
std::vector<NodeId> wire_nodes_of(const Device& device, const std::vector<EdgeId>& edges);

/// The one result epilogue: on a defective device whose run did not
/// succeed, reclassifies congestion failures that are really
/// defect-blocked; then recounts the degradation statistics (including
/// the detour overhead versus solo fault-free routes) and the total_*
/// aggregates from the per-net records, and sets budget_exhausted iff some
/// net's final status is kAbortedBudget. Callers set failed_nets and
/// success by their own rules.
void finish_result(const Device& device, const Circuit& circuit, const RouterOptions& options,
                   RoutingResult& result);

/// Wires-to-owning-nets selection, shared by repair_cone (the event's dead
/// wires) and the negotiated loop (a pass's overflowed wires). Flags in
/// `selected` every net owning a wire of `hit` (direct hits) and, when
/// `sibling_round`, every net owning a tile sibling of a hit wire — one
/// bounded expansion round over the congestion-dependent neighbors, which
/// compete for the same channel tile. `wires_of(i)` yields net i's wires;
/// `selected` is indexed like the nets and only gains flags. Ids in `hit`
/// that are not wire nodes select nothing.
template <typename WiresOf>
void select_wire_owners(const Device& device, const WiresOf& wires_of,
                        const std::vector<NodeId>& hit, bool sibling_round,
                        std::vector<char>& selected) {
  std::vector<char> marked(static_cast<std::size_t>(device.graph().node_count()), 0);
  for (const NodeId w : hit) {
    if (!device.is_wire(w)) continue;
    marked[static_cast<std::size_t>(w)] = 1;
    if (sibling_round) {
      device.for_each_tile_sibling(w, [&](NodeId s) { marked[static_cast<std::size_t>(s)] = 1; });
    }
  }
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (selected[i] != 0) continue;
    for (const NodeId w : wires_of(i)) {
      if (marked[static_cast<std::size_t>(w)] != 0) {
        selected[i] = 1;
        break;
      }
    }
  }
}

}  // namespace fpr::router_internal
