#pragma once

#include <cstddef>
#include <vector>

#include "fpga/device.hpp"
#include "netlist/netlist.hpp"
#include "router/router.hpp"

/// Post-hoc diagnosis helpers shared by the paper-mode router (router.cpp)
/// and the negotiated-congestion loop (negotiate.cpp). Internal to
/// src/router: both modes must classify failures and recount degradation
/// statistics identically, so the logic lives once, here, instead of
/// drifting apart in two copies.
namespace fpr::router_internal {

/// Reclassifies the failed-by-congestion nets of `result` against an empty
/// device with the same faults installed: a terminal unreachable there is
/// unreachable at ANY congestion level, so the net is defect-blocked, not
/// capacity-starved. Runs unbudgeted — it is post-hoc diagnosis, not
/// routing work — and only when faults are present (on a pristine device
/// every block is reachable by construction, making the probe a no-op).
void classify_fault_blocked(const Device& device, const Circuit& circuit,
                            RoutingResult& result);

/// Degradation bookkeeping over the final per-net statuses: status counts,
/// and the extra wirelength fault-displaced nets pay versus their solo
/// fault-free routes.
void accumulate_degradation_stats(const Device& device, const Circuit& circuit,
                                  const RouterOptions& options, RoutingResult& result);

/// Sums the per-net metrics of routed nets into the result's total_*
/// aggregates (both modes finish with exactly this fold).
void accumulate_totals(RoutingResult& result);

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

/// Routes ONE net on the live device exactly the way a serial paper-mode
/// pass would at that position: whole-net attempt (or the decomposed
/// baseline), the fault-retry ladder when `fault_retries > 0`, post-hoc
/// measurement, and the commit (wire consumption + congestion penalties).
/// `record` receives the outcome; when `commit_logs` is non-null it must be
/// indexed like circuit.nets and entry `idx` receives the commit's undo
/// record. This is the re-route primitive of the incremental repair engine
/// (repair.cpp): cone nets re-route through the same code path a full pass
/// uses, so repaired nets are bit-identical to what a fresh pass would
/// produce under the same device state.
void route_single_net(Device& device, const Circuit& circuit, const RouterOptions& options,
                      WorkBudget& budget, int fault_retries,
                      std::vector<NetCommitLog>* commit_logs, std::size_t idx,
                      NetRouteResult& record);

}  // namespace fpr::router_internal
