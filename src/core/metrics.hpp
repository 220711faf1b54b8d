#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/net.hpp"
#include "graph/path_oracle.hpp"
#include "graph/routing_tree.hpp"

namespace fpr {

/// Process-wide observability counters, bumped by the router and read by
/// the benchmark suite. Atomic so the parallel sweeps can bump
/// them from worker threads. Lock-free by design: every member is its own
/// std::atomic, so there is no capability for core/annotations.hpp to guard
/// — the clang thread-safety CI job checks this file compiles with the
/// analysis enabled precisely because any future non-atomic member added
/// here must come with a Mutex and FPR_GUARDED_BY.
///
/// They are RESETTABLE (reset(), and test fixtures call reset in SetUp) so
/// that any test asserting on them is order-independent: under `ctest -j`
/// or gtest shuffling, whatever ran earlier in the same process must not
/// leak into the assertion.
struct Counters {
  // No longer incremented: the net-parallel wave scheduler they counted
  // was removed (DESIGN.md §11). Kept only because the benchmark suite
  // still reports them; they read 0.
  std::atomic<std::uint64_t> parallel_waves{0};
  std::atomic<std::uint64_t> nets_speculated{0};
  std::atomic<std::uint64_t> nets_spec_accepted{0};

  // Negotiated-congestion mode (router/negotiate, DESIGN.md §13).
  std::atomic<std::uint64_t> negotiate_passes{0};  // rip-up-and-reroute passes executed

  // Paper-mode-only machinery engagement. The mode-gating contract
  // (negotiate_paper_boundary_test): neither may advance during a
  // negotiated run — relief and move-to-front both assume the paper mode's
  // exclusive wire ownership.
  std::atomic<std::uint64_t> congestion_reliefs{0};       // CongestionRelief guards built
  std::atomic<std::uint64_t> move_to_front_reorders{0};   // inter-pass reorders applied

  // Incremental ECO repair (router/repair, DESIGN.md §14). ripped >= the
  // delta's direct hits (cone expansion only adds).
  std::atomic<std::uint64_t> repair_nets_ripped{0};  // cone nets ripped up

  /// Zeroes every counter.
  void reset();
};

/// The process-global counter instance.
Counters& counters();

/// The two quality measures of the paper's evaluation (Table 1), plus the
/// flags the tests assert on.
struct TreeMetrics {
  Weight wirelength = 0;            // total tree cost
  Weight max_pathlength = 0;        // worst source-sink pathlength in the tree
  Weight optimal_max_pathlength = 0;  // max over sinks of minpath_G(n0, sink)
  bool spans_net = false;
  bool shortest_paths = false;  // every sink reached at graph distance
};

/// Measures a routing tree against its net. Uses the oracle's SSSP tree from
/// the net's source for the optimality references.
TreeMetrics measure(const Graph& g, const Net& net, const RoutingTree& tree, PathOracle& oracle);

/// Snapshot of a PathOracle's shortest-path cache effectiveness: how often
/// the Section-3 "factor out common computations" cache actually paid off.
struct OracleStats {
  std::size_t dijkstra_runs = 0;
  std::int64_t run_pops = 0;     // heap pops of those runs
  std::int64_t resumes = 0;      // reads that grew a paused scoped tree
  std::int64_t resume_pops = 0;  // heap pops of that growth
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  double hit_rate = 0;  // hits / (hits + misses), 0 when never queried
};

OracleStats oracle_stats(const PathOracle& oracle);

/// One-line rendering for bench/harness logs, e.g.
/// "dijkstra runs 12 (3400 pops), resumes 30 (900 pops), cache 240/252 hits (95.2%)".
std::string format_oracle_stats(const OracleStats& stats);

/// Percent delta of `value` w.r.t. `reference`, as Table 1 reports it:
/// positive = disimprovement, negative = improvement. Returns 0 when the
/// reference is zero (both costs then equal on meaningful inputs).
double percent_vs(Weight value, Weight reference);

}  // namespace fpr
