#include "core/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace fpr {

void Counters::reset() {
  trees_measured.store(0, std::memory_order_relaxed);
  checks_run.store(0, std::memory_order_relaxed);
  check_violations.store(0, std::memory_order_relaxed);
  fuzz_cases.store(0, std::memory_order_relaxed);
  shrink_steps.store(0, std::memory_order_relaxed);
  parallel_waves.store(0, std::memory_order_relaxed);
  nets_speculated.store(0, std::memory_order_relaxed);
  nets_spec_accepted.store(0, std::memory_order_relaxed);
  negotiate_runs.store(0, std::memory_order_relaxed);
  negotiate_passes.store(0, std::memory_order_relaxed);
  pattern_attempts.store(0, std::memory_order_relaxed);
  pattern_accepts.store(0, std::memory_order_relaxed);
  congestion_reliefs.store(0, std::memory_order_relaxed);
  move_to_front_reorders.store(0, std::memory_order_relaxed);
  repair_events.store(0, std::memory_order_relaxed);
  repair_nets_ripped.store(0, std::memory_order_relaxed);
  repair_nets_rerouted.store(0, std::memory_order_relaxed);
}

Counters& counters() {
  static Counters instance;
  return instance;
}

TreeMetrics measure(const Graph& g, const Net& net, const RoutingTree& tree, PathOracle& oracle) {
  (void)g;
  counters().trees_measured.fetch_add(1, std::memory_order_relaxed);
  TreeMetrics m;
  m.wirelength = tree.cost();
  const std::vector<NodeId> terminals = net.terminals();
  m.spans_net = tree.spans(terminals);
  m.max_pathlength = tree.max_path_length(net.source, net.sinks);

  const auto& spt = oracle.from(net.source);
  Weight opt = 0;
  bool all_reachable = true;
  for (const NodeId s : net.sinks) {
    if (!spt.reached(s)) {
      all_reachable = false;
      continue;
    }
    opt = std::max(opt, spt.distance(s));
  }
  m.optimal_max_pathlength = all_reachable ? opt : kInfiniteWeight;

  m.shortest_paths = m.spans_net && all_reachable;
  if (m.shortest_paths) {
    for (const NodeId s : net.sinks) {
      if (!weight_eq(tree.path_length(net.source, s), spt.distance(s))) {
        m.shortest_paths = false;
        break;
      }
    }
  }
  return m;
}

OracleStats oracle_stats(const PathOracle& oracle) {
  OracleStats s;
  s.dijkstra_runs = oracle.dijkstra_runs();
  s.cache_hits = oracle.cache_hits();
  s.cache_misses = oracle.cache_misses();
  s.hit_rate = oracle.hit_rate();
  return s;
}

std::string format_oracle_stats(const OracleStats& stats) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "dijkstra runs %zu, cache %zu/%zu hits (%.1f%%)",
                stats.dijkstra_runs, stats.cache_hits, stats.cache_hits + stats.cache_misses,
                100.0 * stats.hit_rate);
  return std::string(buf);
}

double percent_vs(Weight value, Weight reference) {
  if (reference == 0) return 0;
  return 100.0 * (value - reference) / reference;
}

}  // namespace fpr
