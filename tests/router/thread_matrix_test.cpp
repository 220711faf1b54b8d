// RouterOptions::threads fans each net's IGMST work out on a pool (first
// trees, span-set growth, trial scoring). Every output, pop and count must
// be the one of a pool of one: route_circuit in both modes, on a faulted
// device and under a finite node budget, and ikmb's oracle counts.

#include <gtest/gtest.h>

#include <vector>

#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "netlist/synth.hpp"
#include "router/router.hpp"
#include "steiner/igmst.hpp"

namespace fpr {
namespace {

const CircuitProfile& term1() {
  for (const CircuitProfile& p : xc4000_profiles()) {
    if (p.name == "term1") return p;
  }
  return xc4000_profiles().front();
}

RoutingResult route_at(int threads, RouterOptions options, int width, const FaultSpec* faults) {
  const Circuit circuit = synthesize_circuit(term1(), 31);
  Device device(ArchSpec::xc4000(circuit.rows, circuit.cols, width));
  if (faults != nullptr) device.install_faults(*faults);
  options.threads = threads;
  return route_circuit(device, circuit, options);
}

void expect_same_route(const RoutingResult& a, const RoutingResult& b, int threads) {
  SCOPED_TRACE(::testing::Message() << "threads " << threads);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.failed_nets, b.failed_nets);
  EXPECT_EQ(a.work_used, b.work_used);
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  EXPECT_EQ(a.net_order, b.net_order);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t i = 0; i < a.nets.size(); ++i) {
    EXPECT_EQ(a.nets[i].status, b.nets[i].status) << "net " << i;
    EXPECT_EQ(a.nets[i].retries, b.nets[i].retries) << "net " << i;
    EXPECT_EQ(a.nets[i].edges, b.nets[i].edges) << "net " << i;
  }
}

void expect_thread_invariant(const RouterOptions& options, int width,
                             const FaultSpec* faults = nullptr) {
  const RoutingResult serial = route_at(1, options, width, faults);
  for (const int threads : {2, 4}) {
    expect_same_route(serial, route_at(threads, options, width, faults), threads);
  }
}

TEST(ThreadMatrixTest, PaperMode) { expect_thread_invariant(RouterOptions{}, 6); }

TEST(ThreadMatrixTest, NegotiatedMode) {
  RouterOptions options;
  options.mode = RouterMode::kNegotiated;
  expect_thread_invariant(options, 6);
}

TEST(ThreadMatrixTest, FaultedDevice) {
  FaultSpec faults;
  faults.seed = 7;
  faults.wire_permille = 40;
  faults.switch_permille = 30;
  faults.pin_permille = 10;
  expect_thread_invariant(RouterOptions{}, 6, &faults);
}

TEST(ThreadMatrixTest, FiniteNodeBudget) {
  const RoutingResult unlimited = route_at(1, RouterOptions{}, 6, nullptr);
  for (const long long budget : {unlimited.work_used / 3, unlimited.work_used / 2}) {
    RouterOptions options;
    options.node_budget = budget;
    const RoutingResult serial = route_at(1, options, 6, nullptr);
    EXPECT_TRUE(serial.budget_exhausted) << "budget " << budget;
    expect_thread_invariant(options, 6);
  }
}

TEST(ThreadMatrixTest, IkmbOracleCountsMatchAPoolOfOne) {
  const Circuit circuit = synthesize_circuit(term1(), 31);
  Device device(ArchSpec::xc4000(circuit.rows, circuit.cols, 8));
  const Graph& g = device.graph();
  const IgmstOptions corridor{CandidateStrategy::kCorridor, 48, 0};
  int fanned = 0;
  for (const CircuitNet& cnet : circuit.nets) {
    const Net net = to_graph_net(device, cnet);
    const std::vector<NodeId> terminals = net.terminals();
    if (terminals.size() < 3) continue;
    ++fanned;
    const auto run = [&](ThreadPool* pool, std::vector<EdgeId>& edges) {
      PathOracle oracle(g);
      oracle.set_scope(terminals, device.distance_bound());
      oracle.set_pool(pool);
      edges = ikmb(g, terminals, oracle, corridor).edges();
      return oracle_stats(oracle);
    };
    std::vector<EdgeId> serial_edges;
    const OracleStats serial = run(nullptr, serial_edges);
    for (const int threads : {2, 4}) {
      ThreadPool pool(threads);
      std::vector<EdgeId> edges;
      const OracleStats stats = run(&pool, edges);
      SCOPED_TRACE(::testing::Message() << "net source " << net.source << ", threads " << threads);
      EXPECT_EQ(edges, serial_edges);
      EXPECT_EQ(stats.dijkstra_runs, serial.dijkstra_runs);
      EXPECT_EQ(stats.run_pops, serial.run_pops);
      EXPECT_EQ(stats.resume_pops, serial.resume_pops);
      EXPECT_EQ(stats.cache_hits, serial.cache_hits);
      EXPECT_EQ(stats.cache_misses, serial.cache_misses);
    }
  }
  EXPECT_GT(fanned, 0);
}

}  // namespace
}  // namespace fpr
