#include "check/oracles.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "arbor/exact_gsa.hpp"
#include "core/metrics.hpp"
#include "router/journal.hpp"
#include "steiner/exact_gmst.hpp"

namespace fpr::check {

std::string CheckResult::message() const {
  std::string out;
  for (const auto& v : violations) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out;
}

namespace {

/// Every oracle funnels its result through here so the global counters see
/// each invocation exactly once.
CheckResult finish(CheckResult r) {
  counters().checks_run.fetch_add(1, std::memory_order_relaxed);
  if (!r.ok()) counters().check_violations.fetch_add(1, std::memory_order_relaxed);
  return r;
}

/// Adjacency rebuilt from the raw edge list — the independent ground truth
/// the validity oracle compares the container against.
using Adjacency = std::unordered_map<NodeId, std::vector<std::pair<EdgeId, NodeId>>>;

Adjacency build_adjacency(const Graph& g, std::span<const EdgeId> edges) {
  Adjacency adj;
  for (const EdgeId e : edges) {
    const auto& ed = g.edge(e);
    adj[ed.u].emplace_back(e, ed.v);
    adj[ed.v].emplace_back(e, ed.u);
  }
  return adj;
}

/// Weighted distances from `from` over `adj` (BFS; on a tree the unique
/// path is found regardless of visit order, and on a non-tree the first
/// arrival gives SOME path, which is all the decomposed mode needs).
std::unordered_map<NodeId, Weight> distances_in(const Adjacency& adj, const Graph& g,
                                                NodeId from) {
  std::unordered_map<NodeId, Weight> dist;
  if (adj.find(from) == adj.end()) return dist;
  dist[from] = 0;
  std::deque<NodeId> frontier{from};
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (const auto& [e, v] : adj.at(u)) {
      if (dist.emplace(v, dist[u] + g.edge_weight(e)).second) frontier.push_back(v);
    }
  }
  return dist;
}

bool all_terminals_reachable(const Graph& g, const Net& net) {
  PathOracle oracle(g);
  const auto& spt = oracle.from(net.source);
  return std::all_of(net.sinks.begin(), net.sinks.end(),
                     [&](NodeId s) { return spt.reached(s); });
}

}  // namespace

CheckResult check_tree_validity(const Graph& g, std::span<const NodeId> terminals,
                                const RoutingTree& tree) {
  CheckResult r;
  const auto& edges = tree.edges();

  bool edges_ok = true;
  for (const EdgeId e : edges) {
    if (e < 0 || e >= g.edge_count()) {
      std::ostringstream os;
      os << "edge id " << e << " out of range (edge_count " << g.edge_count() << ")";
      r.fail(os.str());
      edges_ok = false;
    }
  }
  if (!edges_ok) return finish(std::move(r));

  for (const EdgeId e : edges) {
    if (!g.edge_usable(e)) {
      std::ostringstream os;
      os << "edge " << e << " is not usable (inactive edge or endpoint)";
      r.fail(os.str());
    }
  }
  if (std::unordered_set<EdgeId>(edges.begin(), edges.end()).size() != edges.size()) {
    r.fail("edge set contains duplicates (container failed to dedupe)");
  }

  const Adjacency adj = build_adjacency(g, edges);

  // Structure: a connected edge set with |V| == |E| + 1 is a tree.
  bool structurally_tree = true;
  if (!edges.empty()) {
    if (adj.size() != edges.size() + 1) {
      std::ostringstream os;
      os << "touches " << adj.size() << " nodes with " << edges.size()
         << " edges (tree needs exactly edges + 1): cycle or disconnection";
      r.fail(os.str());
      structurally_tree = false;
    }
    const auto reach = distances_in(adj, g, adj.begin()->first);
    if (reach.size() != adj.size()) {
      std::ostringstream os;
      os << "edge set is disconnected (" << reach.size() << " of " << adj.size()
         << " touched nodes reachable)";
      r.fail(os.str());
      structurally_tree = false;
    }
  }

  // Spanning: every terminal touched (a lone terminal tolerates an empty
  // tree), mutually connected via the structure check above.
  bool spans = true;
  if (terminals.size() == 1) {
    spans = edges.empty() || adj.count(terminals[0]) > 0;
  } else {
    for (const NodeId t : terminals) spans = spans && adj.count(t) > 0;
  }
  if (!spans) r.fail("tree does not span its terminals");

  // Container bookkeeping vs. scratch recomputation.
  Weight cost = 0;
  for (const EdgeId e : edges) cost += g.edge_weight(e);
  if (!weight_eq(tree.cost(), cost)) {
    std::ostringstream os;
    os << "cost() reports " << tree.cost() << ", recomputed " << cost;
    r.fail(os.str());
  }
  if (tree.is_tree() != structurally_tree) {
    r.fail("is_tree() disagrees with scratch recomputation");
  }
  if (tree.spans(terminals) != (spans && structurally_tree)) {
    // spans() only needs terminal connectivity, so on a valid tree the
    // verdicts must coincide; report a disagreement only when the structure
    // is otherwise sound (a cyclic edge set can legitimately differ).
    if (structurally_tree) r.fail("spans() disagrees with scratch recomputation");
  }

  if (structurally_tree && spans && !terminals.empty()) {
    const auto dist = distances_in(adj, g, terminals[0]);
    Weight worst = 0;
    for (std::size_t i = 1; i < terminals.size(); ++i) {
      const auto it = dist.find(terminals[i]);
      if (it == dist.end()) continue;  // disconnection already reported
      worst = std::max(worst, it->second);
      const Weight reported = tree.path_length(terminals[0], terminals[i]);
      if (!weight_eq(reported, it->second)) {
        std::ostringstream os;
        os << "path_length to terminal " << terminals[i] << " reports " << reported
           << ", recomputed " << it->second;
        r.fail(os.str());
      }
    }
    const Weight reported_max =
        tree.max_path_length(terminals[0], terminals.subspan(1));
    if (terminals.size() >= 2 && !weight_eq(reported_max, worst)) {
      std::ostringstream os;
      os << "max_path_length reports " << reported_max << ", recomputed " << worst;
      r.fail(os.str());
    }
  }
  return finish(std::move(r));
}

CheckResult check_approximation_bound(const Graph& g, const Net& net, Algorithm algorithm,
                                      int max_terminals) {
  CheckResult r;
  const std::vector<NodeId> terminals = net.terminals();
  const std::vector<NodeId> distinct = distinct_terminals(terminals);
  if (distinct.size() < 2 || static_cast<int>(distinct.size()) > max_terminals) {
    return finish(std::move(r));  // out of the oracle's scope
  }
  if (!all_terminals_reachable(g, net)) return finish(std::move(r));  // unroutable net

  PathOracle oracle(g);
  const RoutingTree tree = route(g, net, algorithm, oracle);
  r.merge(check_tree_validity(g, terminals, tree));
  if (!r.ok()) return finish(std::move(r));
  const Weight cost = tree.cost();

  if (is_arborescence_algorithm(algorithm)) {
    // The arborescence guarantee: every sink at exact graph distance.
    for (const NodeId s : net.sinks) {
      const Weight in_tree = tree.path_length(net.source, s);
      const Weight shortest = oracle.distance(net.source, s);
      if (!weight_eq(in_tree, shortest)) {
        std::ostringstream os;
        os << algorithm_name(algorithm) << " tree path to sink " << s << " costs " << in_tree
           << ", graph shortest path is " << shortest;
        r.fail(os.str());
      }
    }
    if (const auto opt = exact_gsa(g, terminals, oracle, max_terminals)) {
      if (weight_lt(cost, opt->cost())) {
        std::ostringstream os;
        os << algorithm_name(algorithm) << " cost " << cost
           << " beats the exact GSA optimum " << opt->cost() << " (exact solver broken?)";
        r.fail(os.str());
      }
    }
    return finish(std::move(r));
  }

  const auto opt = exact_gmst(g, distinct, oracle, max_terminals);
  if (!opt) {
    r.fail("exact GMST solver declined a connected in-scope net");
    return finish(std::move(r));
  }
  r.merge(check_tree_validity(g, distinct, *opt));
  const Weight opt_cost = opt->cost();
  const double factor =
      (algorithm == Algorithm::kZel || algorithm == Algorithm::kIzel) ? 11.0 / 6.0 : 2.0;
  if (weight_lt(factor * opt_cost, cost)) {
    std::ostringstream os;
    os << algorithm_name(algorithm) << " cost " << cost << " exceeds " << factor << " * OPT ("
       << opt_cost << ") — approximation bound violated";
    r.fail(os.str());
  }
  if (weight_lt(cost, opt_cost)) {
    std::ostringstream os;
    os << algorithm_name(algorithm) << " cost " << cost << " beats the exact optimum "
       << opt_cost << " (exact solver broken?)";
    r.fail(os.str());
  }
  return finish(std::move(r));
}

CheckResult check_iterated_monotonicity(const Graph& g, const Net& net) {
  CheckResult r;
  const std::vector<NodeId> distinct = distinct_terminals(net.terminals());
  if (distinct.size() < 2) return finish(std::move(r));
  if (!all_terminals_reachable(g, net)) return finish(std::move(r));

  const std::pair<Algorithm, Algorithm> pairs[] = {
      {Algorithm::kKmb, Algorithm::kIkmb},
      {Algorithm::kZel, Algorithm::kIzel},
      {Algorithm::kDom, Algorithm::kIdom},
  };
  for (const auto& [base_algo, iterated_algo] : pairs) {
    PathOracle oracle(g);
    const RoutingTree base = route(g, net, base_algo, oracle);
    const RoutingTree iterated = route(g, net, iterated_algo, oracle);
    if (!base.spans(distinct) || !iterated.spans(distinct)) {
      std::ostringstream os;
      os << algorithm_name(base_algo) << "/" << algorithm_name(iterated_algo)
         << " failed to span a routable net";
      r.fail(os.str());
      continue;
    }
    if (weight_lt(base.cost(), iterated.cost())) {
      std::ostringstream os;
      os << algorithm_name(iterated_algo) << " cost " << iterated.cost() << " exceeds its base "
         << algorithm_name(base_algo) << " cost " << base.cost()
         << " — iterated construction is not monotone";
      r.fail(os.str());
    }
  }
  return finish(std::move(r));
}

CheckResult check_routing_feasibility(const ArchSpec& arch, const Circuit& circuit,
                                      const RoutingResult& result,
                                      const RouterOptions& options,
                                      const FaultSpec* faults,
                                      const FaultEvent* events) {
  CheckResult r;
  if (result.nets.size() != circuit.nets.size()) {
    std::ostringstream os;
    os << "result records " << result.nets.size() << " nets, circuit has "
       << circuit.nets.size();
    r.fail(os.str());
    return finish(std::move(r));
  }

  Device device(arch);
  if (faults != nullptr && faults->any()) device.install_faults(*faults);
  if (events != nullptr && !events->empty()) device.apply_fault_event(*events);
  const FaultModel* fault_model = device.faults();
  const bool any_events = events != nullptr && !events->empty();
  const Graph& g = device.graph();
  std::unordered_map<NodeId, std::size_t> wire_owner;  // wire node -> net index
  std::map<std::tuple<int, int, int>, int> tile_tracks_used;  // (dir, x, y) -> wires
  long total_wires = 0;
  long total_physical_wirelength = 0;
  long total_physical_max_path = 0;

  for (std::size_t i = 0; i < result.nets.size(); ++i) {
    const NetRouteResult& nr = result.nets[i];
    const Net net = to_graph_net(device, circuit.nets[i]);
    std::ostringstream where;
    where << "net " << i << ": ";

    if (net.sinks.empty()) {  // all pins on one block
      if (!nr.routed()) r.fail(where.str() + "single-block net not marked routed");
      if (!nr.edges.empty()) r.fail(where.str() + "single-block net holds edges");
      continue;
    }
    if (!nr.routed()) {
      if (result.success) r.fail(where.str() + "unrouted although result.success");
      continue;
    }

    bool edges_ok = true;
    for (const EdgeId e : nr.edges) {
      if (e < 0 || e >= g.edge_count()) {
        std::ostringstream os;
        os << where.str() << "edge id " << e << " outside the device graph";
        r.fail(os.str());
        edges_ok = false;
      }
    }
    if (!edges_ok) continue;

    // Defect avoidance: a routed net must not touch any injected fault —
    // neither the installed distribution nor the live event overlay. (Tree
    // validity below also rejects unusable edges, but these messages name
    // the defect explicitly.)
    if (fault_model != nullptr || any_events) {
      for (const EdgeId e : nr.edges) {
        if ((fault_model != nullptr && fault_model->edge_faulted(e)) ||
            (any_events && events->edge_faulted(e))) {
          std::ostringstream os;
          os << where.str() << "route traverses faulted edge " << e;
          r.fail(os.str());
        }
        for (const NodeId v : {g.edge(e).u, g.edge(e).v}) {
          if (device.is_wire(v) && ((fault_model != nullptr && fault_model->wire_faulted(v)) ||
                                    (any_events && events->wire_faulted(v)))) {
            std::ostringstream os;
            os << where.str() << "route occupies faulted wire node " << v;
            r.fail(os.str());
          }
        }
      }
    }

    const std::vector<NodeId> terminals = net.terminals();
    const RoutingTree tree(g, nr.edges);
    if (options.decompose_two_pin) {
      // The baseline's union of two-pin paths need not be a tree; only
      // pin connectivity is promised.
      if (!tree.spans(terminals)) r.fail(where.str() + "source and sinks not connected");
    } else {
      CheckResult validity = check_tree_validity(g, terminals, tree);
      for (auto& v : validity.violations) r.fail(where.str() + v);
    }

    // Wire exclusivity + channel capacity, replayed on the fresh device.
    int wires = 0;
    for (const NodeId v : tree.nodes()) {
      if (!device.is_wire(v)) continue;
      ++wires;
      const auto [it, fresh] = wire_owner.emplace(v, i);
      if (!fresh && it->second != i) {
        std::ostringstream os;
        os << where.str() << "wire node " << v << " already consumed by net " << it->second;
        r.fail(os.str());
        continue;
      }
      const Device::WireRef ref = device.wire_ref(v);
      if (ref.track < 0 || ref.track >= arch.channel_width) {
        std::ostringstream os;
        os << where.str() << "wire node " << v << " decodes to track " << ref.track
           << " outside channel width " << arch.channel_width;
        r.fail(os.str());
      }
      if (fresh) {
        int& used = tile_tracks_used[{static_cast<int>(ref.dir), ref.x, ref.y}];
        if (++used > arch.channel_width) {
          std::ostringstream os;
          os << where.str() << "channel tile (" << ref.x << ", " << ref.y << ") uses " << used
             << " tracks, capacity " << arch.channel_width;
          r.fail(os.str());
        }
      }
    }

    if (wires != nr.wire_nodes_used) {
      std::ostringstream os;
      os << where.str() << "wire_nodes_used records " << nr.wire_nodes_used << ", replay found "
         << wires;
      r.fail(os.str());
    }
    if (static_cast<int>(nr.edges.size()) != nr.physical_wirelength) {
      std::ostringstream os;
      os << where.str() << "physical_wirelength records " << nr.physical_wirelength << " for "
         << nr.edges.size() << " edges";
      r.fail(os.str());
    }
    const int replay_max_path = tree.max_path_edge_count(net.source, net.sinks);
    if (replay_max_path < 0) {
      r.fail(where.str() + "some sink unreachable inside the committed edge set");
    } else if (options.decompose_two_pin ? replay_max_path > nr.physical_max_path
                                         : replay_max_path != nr.physical_max_path) {
      // Decomposed unions can offer hop shortcuts through shared block
      // nodes, so the replayed BFS bound may only be tighter, never looser.
      std::ostringstream os;
      os << where.str() << "physical_max_path records " << nr.physical_max_path
         << ", replay found " << replay_max_path;
      r.fail(os.str());
    }
    total_wires += wires;
    total_physical_wirelength += nr.physical_wirelength;
    total_physical_max_path += nr.physical_max_path;
  }

  if (result.success && result.failed_nets != 0) {
    r.fail("result.success with nonzero failed_nets");
  }

  // Degradation-statistics consistency: the summary counters must be exact
  // recounts of the per-net statuses, and budget aborts imply the run-level
  // budget_exhausted flag (and vice versa).
  int blocked = 0;
  int aborted = 0;
  int rerouted = 0;
  for (const NetRouteResult& nr : result.nets) {
    blocked += nr.status == NetStatus::kBlockedByFault ? 1 : 0;
    aborted += nr.status == NetStatus::kAbortedBudget ? 1 : 0;
    rerouted += nr.routed() && nr.retries > 0 ? 1 : 0;
  }
  if (blocked != result.nets_blocked_by_fault) {
    std::ostringstream os;
    os << "nets_blocked_by_fault records " << result.nets_blocked_by_fault << ", statuses say "
       << blocked;
    r.fail(os.str());
  }
  if (aborted != result.nets_aborted_budget) {
    std::ostringstream os;
    os << "nets_aborted_budget records " << result.nets_aborted_budget << ", statuses say "
       << aborted;
    r.fail(os.str());
  }
  if (rerouted != result.nets_rerouted_around_faults) {
    std::ostringstream os;
    os << "nets_rerouted_around_faults records " << result.nets_rerouted_around_faults
       << ", statuses say " << rerouted;
    r.fail(os.str());
  }
  if (result.budget_exhausted != (aborted > 0)) {
    std::ostringstream os;
    os << "budget_exhausted=" << result.budget_exhausted << " inconsistent with " << aborted
       << " kAbortedBudget nets";
    r.fail(os.str());
  }
  if (blocked > 0 && (faults == nullptr || !faults->any()) && !any_events) {
    r.fail("kBlockedByFault nets reported on a device with no installed faults");
  }

  // Mode contracts. Negotiated runs carry the convergence record (DESIGN.md
  // §13) and never engage paper-mode retry machinery; paper runs must not
  // leak negotiated-mode fields.
  if (options.mode == RouterMode::kNegotiated) {
    if (result.overflow_trend.empty()) {
      r.fail("negotiated run with an empty overflow_trend");
    } else {
      if (static_cast<int>(result.overflow_trend.size()) != result.passes) {
        std::ostringstream os;
        os << "overflow_trend has " << result.overflow_trend.size() << " entries for "
           << result.passes << " passes";
        r.fail(os.str());
      }
      for (std::size_t i = 1; i < result.overflow_trend.size(); ++i) {
        if (result.overflow_trend[i] > result.overflow_trend[i - 1]) {
          std::ostringstream os;
          os << "overflow_trend not monotone non-increasing at pass " << i + 1 << " ("
             << result.overflow_trend[i - 1] << " -> " << result.overflow_trend[i] << ")";
          r.fail(os.str());
          break;
        }
      }
      if (result.overflow_trend.back() < 0) {
        r.fail("overflow_trend ends negative");
      }
      if (result.success && result.overflow_trend.back() != 0) {
        std::ostringstream os;
        os << "result.success although the overflow trend ends at "
           << result.overflow_trend.back();
        r.fail(os.str());
      }
    }
    // Re-route counts: one per pass, and no pass re-routes more nets than
    // pass 1 attempted. A fresh route attempts every net in pass 1
    // (run_circuit_oracle pins the equality); a repair may append nets to
    // the result afterwards, so here pass 1 is only bounded by the count.
    if (static_cast<int>(result.reroute_trend.size()) != result.passes) {
      std::ostringstream os;
      os << "reroute_trend has " << result.reroute_trend.size() << " entries for "
         << result.passes << " passes";
      r.fail(os.str());
    } else if (!result.reroute_trend.empty()) {
      const int attempted = result.reroute_trend.front();
      if (attempted > static_cast<int>(result.nets.size())) {
        std::ostringstream os;
        os << "reroute_trend says pass 1 attempted " << attempted << " of "
           << result.nets.size() << " nets";
        r.fail(os.str());
      }
      for (std::size_t i = 1; i < result.reroute_trend.size(); ++i) {
        if (result.reroute_trend[i] < 0 || result.reroute_trend[i] > attempted) {
          std::ostringstream os;
          os << "reroute_trend pass " << i + 1 << " re-routes " << result.reroute_trend[i]
             << " nets, pass 1 attempted " << attempted;
          r.fail(os.str());
          break;
        }
      }
    }
    if (result.pattern_accepts > result.pattern_attempts || result.pattern_attempts < 0) {
      std::ostringstream os;
      os << "pattern accounting inconsistent: " << result.pattern_accepts << " accepts of "
         << result.pattern_attempts << " attempts";
      r.fail(os.str());
    }
    if (rerouted != 0) {
      r.fail("negotiated mode reports fault-retry reroutes (paper-mode machinery)");
    }
    for (std::size_t i = 0; i < result.nets.size(); ++i) {
      if (result.nets[i].retries != 0) {
        std::ostringstream os;
        os << "net " << i << ": nonzero retries in negotiated mode";
        r.fail(os.str());
        break;
      }
    }
  } else {
    if (!result.overflow_trend.empty() || !result.reroute_trend.empty()) {
      r.fail("paper-mode run carries a negotiated overflow_trend or reroute_trend");
    }
    if (result.pattern_attempts != 0 || result.pattern_accepts != 0) {
      r.fail("paper-mode run carries pattern-probe counts");
    }
  }

  if (total_wires != result.total_wire_nodes) {
    std::ostringstream os;
    os << "total_wire_nodes records " << result.total_wire_nodes << ", replay found "
       << total_wires;
    r.fail(os.str());
  }
  if (total_physical_wirelength != result.total_physical_wirelength) {
    std::ostringstream os;
    os << "total_physical_wirelength records " << result.total_physical_wirelength
       << ", replay found " << total_physical_wirelength;
    r.fail(os.str());
  }
  if (total_physical_max_path != result.total_physical_max_path) {
    std::ostringstream os;
    os << "total_physical_max_path records " << result.total_physical_max_path
       << ", replay found " << total_physical_max_path;
    r.fail(os.str());
  }
  return finish(std::move(r));
}

CheckResult check_repair(const ArchSpec& arch, const Circuit& seed,
                         const RouterOptions& options, const FaultSpec* faults,
                         const std::vector<RepairEvent>& events) {
  CheckResult r;
  RouterOptions opts = options;
  opts.record_commits = true;

  Device device(arch);
  if (faults != nullptr && faults->any()) device.install_faults(*faults);
  Circuit circuit = seed;
  RoutingResult result = route_circuit(device, circuit, opts);

  FaultEvent cumulative;
  RepairJournal journal;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const RepairEvent& event = events[k];
    std::ostringstream where;
    where << "event " << k << ": ";

    // Independent cone re-derivation against the PRE-event state. This is
    // deliberately NOT a call into repair_cone: a cone bug in production
    // code must disagree with this recomputation, not cancel against it.
    std::vector<char> expected_cone(result.nets.size() + event.added.size(), 0);
    for (std::size_t i = 0; i < result.nets.size(); ++i) {
      for (const NodeId w : result.commit_logs[i].wires) {
        if (event.faults.wire_faulted(w)) {
          expected_cone[i] = 1;
          break;
        }
      }
      if (expected_cone[i] == 0 && !event.faults.dead_edges.empty()) {
        for (const EdgeId e : result.nets[i].edges) {
          if (event.faults.edge_faulted(e)) {
            expected_cone[i] = 1;
            break;
          }
        }
      }
    }
    if (!event.faults.dead_wires.empty()) {
      std::unordered_map<NodeId, std::size_t> owner;
      for (std::size_t i = 0; i < result.commit_logs.size(); ++i) {
        for (const NodeId w : result.commit_logs[i].wires) owner.emplace(w, i);
      }
      for (const NodeId w : event.faults.dead_wires) {
        if (!device.is_wire(w)) continue;
        device.for_each_tile_sibling(w, [&](NodeId s) {
          const auto it = owner.find(s);
          if (it != owner.end()) expected_cone[it->second] = 1;
        });
      }
    }
    for (const auto& [idx, net] : event.changed) {
      if (idx >= 0 && static_cast<std::size_t>(idx) < expected_cone.size()) {
        expected_cone[static_cast<std::size_t>(idx)] = 1;
      }
    }
    for (const int idx : event.removed) {
      if (idx >= 0 && static_cast<std::size_t>(idx) < expected_cone.size()) {
        expected_cone[static_cast<std::size_t>(idx)] = 1;
      }
    }
    for (std::size_t a = 0; a < event.added.size(); ++a) {
      expected_cone[result.nets.size() + a] = 1;
    }

    const RoutingResult before = result;  // snapshot for byte-stability

    const RepairOutcome outcome = repair_route(device, circuit, result, event, opts);
    journal.append(event, outcome);
    cumulative.merge(event.faults);

    int expected_count = 0;
    for (const char flag : expected_cone) expected_count += flag;
    if (outcome.cone_nets != expected_count) {
      std::ostringstream os;
      os << where.str() << "cone_nets reports " << outcome.cone_nets
         << ", oracle re-derived " << expected_count;
      r.fail(os.str());
    }
    if (outcome.repaired + outcome.degraded + outcome.aborted != outcome.cone_nets) {
      std::ostringstream os;
      os << where.str() << "repaired+degraded+aborted = "
         << outcome.repaired + outcome.degraded + outcome.aborted << " does not partition cone "
         << outcome.cone_nets;
      r.fail(os.str());
    }

    // Byte-stability of the cone complement: an event must not perturb any
    // net it did not claim to touch.
    for (std::size_t i = 0; i < before.nets.size(); ++i) {
      if (expected_cone[i] != 0) continue;
      if (!(result.nets[i] == before.nets[i])) {
        std::ostringstream os;
        os << where.str() << "net " << i << " outside the cone changed its record";
        r.fail(os.str());
      }
      if (!(result.commit_logs[i] == before.commit_logs[i])) {
        std::ostringstream os;
        os << where.str() << "net " << i << " outside the cone changed its commit log";
        r.fail(os.str());
      }
    }
    if (!r.ok()) break;  // later events would re-report consequences of this one
  }

  // Final-state feasibility on the mutated device: the repaired result must
  // pass everything a from-scratch route of the final circuit would.
  {
    CheckResult feas = check_routing_feasibility(arch, circuit, result, opts, faults,
                                                 cumulative.empty() ? nullptr : &cumulative);
    for (auto& v : feas.violations) r.fail("final state: " + v);
  }

  // Rip-up arithmetic from scratch: every edge weight equals its pristine
  // base plus congestion_penalty per recorded application, and every wire's
  // activity/ownership matches the commit logs plus the dead sets.
  {
    const Graph& g = device.graph();
    Device pristine(arch);
    std::vector<int> applications(static_cast<std::size_t>(g.edge_count()), 0);
    std::vector<std::int32_t> owner(static_cast<std::size_t>(g.node_count()), -1);
    for (std::size_t i = 0; i < result.commit_logs.size(); ++i) {
      const NetCommitLog& log = result.commit_logs[i];
      if (!result.nets[i].routed() && !(log.wires.empty() && log.penalized.empty())) {
        std::ostringstream os;
        os << "net " << i << ": unrouted net holds a non-empty commit log";
        r.fail(os.str());
      }
      for (const EdgeId e : log.penalized) ++applications[static_cast<std::size_t>(e)];
      for (const NodeId w : log.wires) {
        if (owner[static_cast<std::size_t>(w)] >= 0) {
          std::ostringstream os;
          os << "wire node " << w << " appears in the commit logs of nets "
             << owner[static_cast<std::size_t>(w)] << " and " << i;
          r.fail(os.str());
        }
        owner[static_cast<std::size_t>(w)] = static_cast<std::int32_t>(i);
      }
    }
    int weight_mismatches = 0;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Weight expected = pristine.graph().edge_weight(e) +
                              opts.congestion_penalty * applications[static_cast<std::size_t>(e)];
      if (!weight_eq(g.edge_weight(e), expected) && ++weight_mismatches <= 3) {
        std::ostringstream os;
        os << "edge " << e << " weight " << g.edge_weight(e) << ", re-derived " << expected
           << " (base + penalty x " << applications[static_cast<std::size_t>(e)] << ")";
        r.fail(os.str());
      }
    }
    const FaultModel* fault_model = device.faults();
    int activity_mismatches = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (!device.is_wire(v)) continue;
      const bool expect_dead = owner[static_cast<std::size_t>(v)] >= 0 ||
                               (fault_model != nullptr && fault_model->wire_faulted(v)) ||
                               cumulative.wire_faulted(v);
      if (g.node_active(v) == expect_dead && ++activity_mismatches <= 3) {
        std::ostringstream os;
        os << "wire node " << v << (expect_dead ? " active" : " inactive")
           << " although the commit logs and dead sets say otherwise";
        r.fail(os.str());
      }
    }
  }

  // Journal determinism: text round-trip, then full replay from the seed —
  // (seed circuit + journal) must reconstruct this exact routed state.
  {
    const auto parsed = RepairJournal::parse(journal.serialize());
    if (!parsed.has_value() || !(*parsed == journal)) {
      r.fail("journal serialize/parse round-trip diverged");
    }
    Device replay_device(arch);
    if (faults != nullptr && faults->any()) replay_device.install_faults(*faults);
    const JournalReplayResult replay = replay_journal(replay_device, seed, options, journal);
    if (!replay.ok) {
      r.fail("journal replay: " + replay.error);
    }
    if (replay.circuit.nets != circuit.nets) {
      r.fail("journal replay reconstructed a different circuit");
    }
    if (replay.result.nets.size() != result.nets.size() ||
        replay.result.commit_logs.size() != result.commit_logs.size()) {
      r.fail("journal replay reconstructed a different net count");
    } else {
      for (std::size_t i = 0; i < result.nets.size(); ++i) {
        if (!(replay.result.nets[i] == result.nets[i]) ||
            !(replay.result.commit_logs[i] == result.commit_logs[i])) {
          std::ostringstream os;
          os << "journal replay diverged at net " << i << " (record or commit log)";
          r.fail(os.str());
          break;
        }
      }
      if (replay.result.net_order != result.net_order) {
        r.fail("journal replay reconstructed a different net order");
      }
    }
  }
  return finish(std::move(r));
}

}  // namespace fpr::check
