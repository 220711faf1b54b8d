#include "core/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace fpr {

void Counters::reset() {
  parallel_waves.store(0, std::memory_order_relaxed);
  nets_speculated.store(0, std::memory_order_relaxed);
  nets_spec_accepted.store(0, std::memory_order_relaxed);
  negotiate_passes.store(0, std::memory_order_relaxed);
  congestion_reliefs.store(0, std::memory_order_relaxed);
  move_to_front_reorders.store(0, std::memory_order_relaxed);
  repair_nets_ripped.store(0, std::memory_order_relaxed);
}

Counters& counters() {
  static Counters instance;
  return instance;
}

TreeMetrics measure(const Graph& g, const Net& net, const RoutingTree& tree, PathOracle& oracle) {
  (void)g;
  TreeMetrics m;
  m.wirelength = tree.cost();
  const std::vector<NodeId> terminals = net.terminals();
  m.spans_net = tree.spans(terminals);
  m.max_pathlength = tree.max_path_length(net.source, net.sinks);

  // Source-sink distances, each served from whichever endpoint's tree the
  // oracle already holds: a two-terminal construction may have searched
  // from the sink only.
  std::vector<Weight> sink_dist;
  sink_dist.reserve(net.sinks.size());
  Weight opt = 0;
  bool all_reachable = true;
  for (const NodeId s : net.sinks) {
    const Weight d = oracle.distance(net.source, s);
    sink_dist.push_back(d);
    if (d >= kInfiniteWeight) {
      all_reachable = false;
      continue;
    }
    opt = std::max(opt, d);
  }
  m.optimal_max_pathlength = all_reachable ? opt : kInfiniteWeight;

  m.shortest_paths = m.spans_net && all_reachable;
  if (m.shortest_paths) {
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
      if (!weight_eq(tree.path_length(net.source, net.sinks[i]), sink_dist[i])) {
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
  s.run_pops = oracle.run_pops();
  s.resumes = oracle.resumes();
  s.resume_pops = oracle.resume_pops();
  s.cache_hits = oracle.cache_hits();
  s.cache_misses = oracle.cache_misses();
  s.hit_rate = oracle.hit_rate();
  return s;
}

std::string format_oracle_stats(const OracleStats& stats) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "dijkstra runs %zu (%lld pops), resumes %lld (%lld pops), cache %zu/%zu hits "
                "(%.1f%%)",
                stats.dijkstra_runs, static_cast<long long>(stats.run_pops),
                static_cast<long long>(stats.resumes), static_cast<long long>(stats.resume_pops),
                stats.cache_hits, stats.cache_hits + stats.cache_misses, 100.0 * stats.hit_rate);
  return std::string(buf);
}

double percent_vs(Weight value, Weight reference) {
  if (reference == 0) return 0;
  return 100.0 * (value - reference) / reference;
}

}  // namespace fpr
