// Microbench of the shortest-path hot path: the flat-adjacency/arena/4-ary-heap engine
// versus the frozen pre-change engine (graph/dijkstra_reference.hpp), on
// repeated single-source runs over Table 1's grid substrates at the paper's
// congestion levels (none/low/medium) and a random graph. The scoped case
// times a paused scoped run (the form PathOracle caches) probed at nodes
// past its pause point, so each probe grows it on demand, against the
// frozen engine's one-shot radius ball (1.3 * d + 4), which is what the
// scoped search settled before it grew on demand. The goal-directed scoped
// case runs the same paused form keyed on the grid's Manhattan (hop-count)
// bound toward three targets, against the same frozen ball.
//
// The unscoped rows produce bit-identical dist arrays in both engines
// (checksummed here; pinned exhaustively by
// tests/graph/dijkstra_differential_test.cpp), so their timings compare
// identical work. A paused tree must read the frozen engine's unbounded
// distance at every node.
//
// With --json <path> it writes a machine-readable record (the committed one
// is BENCH_dijkstra.json) — the start of the repo's perf trajectory. A plain
// run writes nothing.

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "core/rng.hpp"
#include "graph/dijkstra.hpp"
#include "graph/dijkstra_reference.hpp"
#include "graph/grid.hpp"
#include "workload/congestion_model.hpp"

namespace {

using namespace fpr;

struct Case {
  std::string name;
  Graph graph;
  std::vector<NodeId> targets;  // non-empty => scoped runs, read at `probes`
  std::vector<NodeId> probes;
  int grid_width = 0;  // > 0: goal-directed under that grid's Manhattan bound
};

/// Hop count on a grid of the given width: a consistent bound when every
/// edge weighs at least 1.
struct GridManhattan {
  int width;
  Weight operator()(NodeId v, NodeId t) const {
    return std::abs(v % width - t % width) + std::abs(v / width - t / width);
  }
};

struct Measurement {
  double ref_ns = 0;        // frozen engine, per run (scoped: its one-shot ball)
  double new_ns = 0;        // current engine, reuse overload, per run
  double new_alloc_ns = 0;  // current engine, fresh tree per run
  long long runs = 0;
  double speedup = 0;  // ref_ns / new_ns
  // Scoped only: nodes the frozen ball settles, and the paused run's pops
  // (pause + on-demand growth for the probes), per run.
  double ball_pops = 0;
  double paused_pops = 0;
};

/// True when `t` carries the reference tree's exact distance on every node.
bool same_distances(const ShortestPathTree& t, const reference::Tree& ref) {
  for (NodeId v = 0; v < t.node_count(); ++v) {
    if (std::bit_cast<std::uint64_t>(t.distance(v)) !=
        std::bit_cast<std::uint64_t>(ref.dist[static_cast<std::size_t>(v)])) {
      return false;
    }
  }
  return true;
}

/// Nodes the frozen engine's scoped run settled: its settled flags, or
/// every reached node when it drained the component.
long long settled_count(const reference::Tree& t) {
  long long count = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(t.dist.size()); ++v) {
    count += t.complete() ? t.reached(v) : t.settled[static_cast<std::size_t>(v)];
  }
  return count;
}

/// Times `body(i)` for adaptively many iterations (>= min_seconds of total
/// wall time after one warmup sweep) and returns ns per iteration.
double time_per_run(const std::function<void(int)>& body, int batch, double min_seconds,
                    long long& runs_out) {
  for (int i = 0; i < batch; ++i) body(i);  // warmup: touch arenas, caches
  long long runs = 0;
  double elapsed = 0;
  const bench::Stopwatch watch;
  while (elapsed < min_seconds) {
    for (int i = 0; i < batch; ++i) body(i);
    runs += batch;
    elapsed = watch.seconds();
  }
  runs_out = runs;
  return 1e9 * elapsed / static_cast<double>(runs);
}

Measurement measure_case(const Case& c, double min_seconds) {
  const Graph& g = c.graph;
  const NodeId n = g.node_count();
  const auto source_of = [n](int i) { return static_cast<NodeId>((i * 37) % n); };
  const GridManhattan manhattan{c.grid_width};
  const DistanceBound manhattan_bound(manhattan);
  const DistanceBound* bound = c.grid_width > 0 ? &manhattan_bound : nullptr;

  // Equal-work guard: the two engines must agree exactly on every source
  // the timing loop will visit. A paused tree read at every node grows to
  // the whole component, so it must read the unbounded distances.
  ShortestPathTree reused;
  const int batch = 64;
  long long ball_pops = 0;
  long long paused_pops = 0;
  for (int i = 0; i < batch; ++i) {
    const NodeId s = source_of(i);
    if (c.targets.empty()) {
      dijkstra(g, s, reused);
    } else {
      dijkstra_within_paused(g, s, c.targets, reused, nullptr, bound);
      for (const NodeId p : c.probes) (void)reused.distance(p);
      paused_pops += reused.run_pops() + reused.resume_pops();
      ball_pops += settled_count(reference::dijkstra_within(g, s, c.targets));
    }
    if (!same_distances(reused, reference::dijkstra(g, s))) {
      std::fprintf(stderr, "FATAL: engines disagree on %s source %d\n", c.name.c_str(), s);
      std::exit(1);
    }
  }

  // The pre-pass above asserted full bitwise equality; the timed bodies
  // only need a cheap data dependency so the runs cannot be optimized out.
  Measurement m;
  m.ball_pops = static_cast<double>(ball_pops) / batch;
  m.paused_pops = static_cast<double>(paused_pops) / batch;
  volatile double sink = 0;

  long long runs = 0;
  m.ref_ns = time_per_run(
      [&](int i) {
        const auto t = c.targets.empty()
                           ? reference::dijkstra(g, source_of(i))
                           : reference::dijkstra_within(g, source_of(i), c.targets);
        sink = sink + t.dist.back();
      },
      batch, min_seconds, runs);

  // One engine run from source_of(i) into `t`: unscoped, or paused and
  // then read at every probe (each read may grow it).
  const NodeId last = n - 1;
  const auto run_into = [&](int i, ShortestPathTree& t) {
    if (c.targets.empty()) {
      dijkstra(g, source_of(i), t);
      sink = sink + t.distance(last);
    } else {
      dijkstra_within_paused(g, source_of(i), c.targets, t, nullptr, bound);
      for (const NodeId p : c.probes) sink = sink + t.distance(p);
    }
  };
  m.new_ns = time_per_run([&](int i) { run_into(i, reused); }, batch, min_seconds, m.runs);
  m.new_alloc_ns = time_per_run(
      [&](int i) {
        ShortestPathTree fresh;
        run_into(i, fresh);
      },
      batch, min_seconds, runs);

  m.speedup = m.ref_ns / m.new_ns;
  return m;
}

/// The paper's Table 1 substrate at a given congestion level: a unit-weight
/// grid with k pre-routed KMB nets whose tree edges were incremented
/// (src/workload/congestion_model). `nets_at_20x20` is the paper's k for a
/// 20x20 grid (10 = low, 20 = medium); it scales with area so larger grids
/// see the same edge load as the paper's at that level.
Graph congested_grid(int side, int nets_at_20x20, unsigned seed) {
  std::mt19937_64 rng(seed);
  const int k = nets_at_20x20 * side * side / 400;
  return make_congested_grid(side, side, k, rng).graph();
}

Graph random_graph(NodeId nodes, EdgeId extra, unsigned seed) {
  std::mt19937_64 rng(seed);
  Graph g(nodes);
  const auto weight = [&rng] { return static_cast<Weight>(draw_range(rng, 1, 10)); };
  for (NodeId i = 1; i < nodes; ++i) {
    const NodeId pred = static_cast<NodeId>(draw_range(rng, 0, i - 1));
    g.add_edge(i, pred, weight());
  }
  for (EdgeId added = 0; added < extra;) {
    const auto u = static_cast<NodeId>(draw_range(rng, 0, nodes - 1));
    const auto v = static_cast<NodeId>(draw_range(rng, 0, nodes - 1));
    if (u == v) continue;
    g.add_edge(u, v, weight());
    ++added;
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpr;
  bench::banner(
      "micro_dijkstra — repeated single-source shortest paths\n"
      "flat-adjacency/arena/4-ary-heap engine vs the frozen pre-change engine");

  const char* json_path = bench::json_output_path(argc, argv);

  // FPR_FULL=1 lengthens each timing window for a quieter measurement.
  const double min_seconds = bench::full_mode() ? 1.0 : 0.25;

  std::vector<Case> cases;
  {
    GridGraph g30(30, 30);
    cases.push_back({"grid30_uncongested", g30.graph(), {}, {}});
    cases.push_back({"grid30_congested_low", congested_grid(30, 10, 1995), {}, {}});
    cases.push_back({"grid30_congested_med", congested_grid(30, 20, 1995), {}, {}});
    GridGraph g60(60, 60);
    cases.push_back({"grid60_uncongested", g60.graph(), {}, {}});
    cases.push_back({"grid60_congested_med", congested_grid(60, 20, 1996), {}, {}});
    cases.push_back({"random1500", random_graph(1500, 3000, 1995), {}, {}});
    Graph g40 = congested_grid(40, 20, 1997);
    GridGraph coords(40, 40);
    std::vector<NodeId> targets;
    for (int i = 0; i < 8; ++i) targets.push_back(coords.node_at(3 + 2 * i, 5 + i));
    // Probes past the pause point: a node beyond the farthest target, one
    // between targets, and one behind the first target.
    const std::vector<NodeId> probes{coords.node_at(20, 14), coords.node_at(10, 16),
                                     coords.node_at(1, 3)};
    cases.push_back({"grid40_congested_scoped8", g40, targets, probes});
    // Three targets and the grid's hop-count bound: the paused run pops
    // toward them; the probes sit near the targets and past them.
    const std::vector<NodeId> goals{coords.node_at(12, 8), coords.node_at(22, 15),
                                    coords.node_at(9, 21)};
    const std::vector<NodeId> near_goals{coords.node_at(13, 9), coords.node_at(16, 12),
                                         coords.node_at(24, 18)};
    cases.push_back({"grid40_congested_goal3", std::move(g40), goals, near_goals, 40});
  }

  const bench::Stopwatch watch;
  TextTable table({"Case", "V", "E", "old ns/run", "new ns/run", "new+alloc", "speedup"});
  TextTable paused_table({"Case", "old ball ns/run", "paused+probes ns/run", "old ball pops",
                          "paused+probes pops"});
  bench::Json rows = bench::Json::array();
  // The geomean covers the equal-work (unscoped) rows only.
  double log_speedup_sum = 0;
  int equal_work_cases = 0;
  for (const Case& c : cases) {
    const Measurement m = measure_case(c, min_seconds);
    if (c.targets.empty()) {
      log_speedup_sum += std::log(m.speedup);
      ++equal_work_cases;
    }
    char speedup[16];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", m.speedup);
    table.add_row({c.name, std::to_string(c.graph.node_count()),
                   std::to_string(c.graph.edge_count()),
                   std::to_string(static_cast<long long>(m.ref_ns)),
                   std::to_string(static_cast<long long>(m.new_ns)),
                   std::to_string(static_cast<long long>(m.new_alloc_ns)), speedup});
    if (!c.probes.empty()) {
      paused_table.add_row({c.name, std::to_string(static_cast<long long>(m.ref_ns)),
                            std::to_string(static_cast<long long>(m.new_ns)),
                            std::to_string(static_cast<long long>(m.ball_pops)),
                            std::to_string(static_cast<long long>(m.paused_pops))});
    }
    bench::Json row = bench::Json::object();
    row.field("case", c.name)
        .field("nodes", static_cast<long long>(c.graph.node_count()))
        .field("edges", static_cast<long long>(c.graph.edge_count()))
        .field("scoped", !c.targets.empty())
        .field("goal_directed", c.grid_width > 0)
        .field("runs", m.runs)
        .field("ref_ns_per_run", m.ref_ns)
        .field("new_ns_per_run", m.new_ns)
        .field("new_alloc_ns_per_run", m.new_alloc_ns)
        .field("speedup", m.speedup);
    if (!c.probes.empty()) {
      row.field("probes", static_cast<long long>(c.probes.size()))
          .field("ball_pops_per_run", m.ball_pops)
          .field("paused_probed_pops_per_run", m.paused_pops);
    }
    rows.element(row);
  }
  const double geomean = std::exp(log_speedup_sum / equal_work_cases);
  const double elapsed = watch.seconds();

  std::printf("%s", table.render().c_str());
  std::printf("\npaused scoped runs, probed past the pause point (frozen one-shot ball vs "
              "pause + growth on demand; goal3 keyed on the hop-count bound)\n%s",
              paused_table.render().c_str());
  std::printf("\ngeomean speedup %.2fx over the unscoped rows  (single thread; both engines "
              "produce identical trees)\n",
              geomean);
  std::printf("[micro_dijkstra] total time %.1fs\n", elapsed);

  bench::Json doc = bench::Json::object();
  doc.field("schema", "fpr-bench-v1")
      .field("bench", "micro_dijkstra")
      .field("timestamp_utc", bench::iso_timestamp())
      .field("threads_available", default_thread_count())
      .field("min_seconds_per_measurement", min_seconds)
      .field("geomean_speedup", geomean)
      .field("cases", rows);
  bench::write_json(json_path, doc);
  return 0;
}
