#include "router/router.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <type_traits>

#include "netlist/profiles.hpp"
#include "netlist/synth.hpp"
#include "router/baseline.hpp"
#include "router/repair.hpp"

namespace fpr {
namespace {

Circuit small_circuit() {
  Circuit c;
  c.name = "unit";
  c.rows = 4;
  c.cols = 4;
  c.nets.push_back({{0, 0}, {{3, 3}}});
  c.nets.push_back({{0, 3}, {{3, 0}, {2, 2}}});
  c.nets.push_back({{1, 1}, {{2, 1}, {1, 2}, {3, 2}}});
  c.nets.push_back({{0, 1}, {{0, 2}}});
  return c;
}

TEST(RouterTest, RoutesSmallCircuit) {
  Device device(ArchSpec::xc4000(4, 4, 4));
  const RoutingResult r = route_circuit(device, small_circuit(), RouterOptions{});
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.failed_nets, 0);
  EXPECT_GT(r.total_wirelength, 0);
  EXPECT_EQ(r.nets.size(), 4u);
  for (const auto& net : r.nets) {
    EXPECT_TRUE(net.routed());
    EXPECT_FALSE(net.edges.empty());
  }
}

TEST(RouterTest, RoutedNetsAreWireDisjoint) {
  Device device(ArchSpec::xc4000(4, 4, 4));
  const RoutingResult r = route_circuit(device, small_circuit(), RouterOptions{});
  ASSERT_TRUE(r.success);
  std::set<NodeId> used;
  for (const auto& net : r.nets) {
    std::set<NodeId> own;
    for (const EdgeId e : net.edges) {
      const auto& ed = device.graph().edge(e);
      for (const NodeId v : {ed.u, ed.v}) {
        if (device.is_wire(v)) own.insert(v);
      }
    }
    for (const NodeId v : own) {
      EXPECT_TRUE(used.insert(v).second) << "wire " << v << " shared between nets";
    }
  }
}

TEST(RouterTest, FailsAtTinyChannelWidth) {
  // Five nets sourced at one block: at W=1 the block has only four adjacent
  // wire segments, so at most four disjoint nets can leave it.
  Device device(ArchSpec::xc4000(4, 4, 1));
  Circuit c;
  c.rows = c.cols = 4;
  for (int i = 0; i < 5; ++i) c.nets.push_back({{1, 1}, {{3, (i * 7) % 4}}});
  RouterOptions options;
  options.max_passes = 4;
  const RoutingResult r = route_circuit(device, c, options);
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.failed_nets, 0);
}

TEST(RouterTest, PathlengthMetricsAreConsistent) {
  Device device(ArchSpec::xc4000(5, 5, 4));
  Circuit c;
  c.rows = c.cols = 5;
  c.nets.push_back({{0, 0}, {{4, 4}, {4, 0}, {0, 4}}});
  c.nets.push_back({{2, 2}, {{0, 1}, {3, 4}}});
  for (const Algorithm algo : {Algorithm::kIkmb, Algorithm::kPfa, Algorithm::kIdom}) {
    Device fresh(ArchSpec::xc4000(5, 5, 4));
    RouterOptions options;
    options.algorithm = algo;
    const RoutingResult r = route_circuit(fresh, c, options);
    ASSERT_TRUE(r.success) << algorithm_name(algo);
    for (const auto& net : r.nets) {
      EXPECT_GE(net.max_pathlength, net.optimal_max_pathlength - 1e-9);
      if (is_arborescence_algorithm(algo)) {
        EXPECT_TRUE(weight_eq(net.max_pathlength, net.optimal_max_pathlength))
            << algorithm_name(algo);
      }
    }
  }
}

TEST(RouterTest, TwoPinBaselineUsesMoreWire) {
  Circuit c;
  c.rows = c.cols = 5;
  // High-fanout nets: decomposition duplicates the trunk.
  c.nets.push_back({{0, 0}, {{4, 0}, {4, 1}, {4, 2}, {4, 3}}});
  c.nets.push_back({{0, 4}, {{4, 4}, {3, 4}, {3, 3}}});
  Device steiner_device(ArchSpec::xc4000(5, 5, 6));
  const RoutingResult steiner = route_circuit(steiner_device, c, RouterOptions{});
  Device baseline_device(ArchSpec::xc4000(5, 5, 6));
  const RoutingResult baseline =
      route_circuit(baseline_device, c, two_pin_baseline_options());
  ASSERT_TRUE(steiner.success);
  ASSERT_TRUE(baseline.success);
  EXPECT_GT(baseline.total_wire_nodes, steiner.total_wire_nodes);
}

TEST(RouterTest, MoveToFrontRecoversFromBadOrder) {
  // A circuit that fits only if the big net routes before the fillers; the
  // initial order (fillers first at equal pin count) may fail pass 1, and
  // move-to-front must then converge.
  Circuit c;
  c.rows = c.cols = 3;
  c.nets.push_back({{0, 0}, {{2, 0}}});
  c.nets.push_back({{0, 1}, {{2, 1}}});
  c.nets.push_back({{0, 2}, {{2, 2}}});
  c.nets.push_back({{1, 0}, {{1, 2}}});
  Device device(ArchSpec::xc4000(3, 3, 2));
  RouterOptions options;
  options.max_passes = 6;
  const RoutingResult r = route_circuit(device, c, options);
  EXPECT_TRUE(r.success);
}

TEST(RouterTest, StallDetectionStopsEarly) {
  // Unroutable instance: five nets out of one block at W=1 (four adjacent
  // wires). Stall detection must cut the pass budget short.
  Circuit c;
  c.rows = c.cols = 3;
  for (int i = 0; i < 5; ++i) c.nets.push_back({{1, 1}, {{2, 2}}});
  Device device(ArchSpec::xc4000(3, 3, 1));
  RouterOptions options;
  options.max_passes = 20;
  options.stall_passes = 2;
  const RoutingResult r = route_circuit(device, c, options);
  EXPECT_FALSE(r.success);
  EXPECT_LT(r.passes, 20);
}

TEST(RouterTest, TrivialSameBlockNetAlwaysRoutes) {
  Circuit c;
  c.rows = c.cols = 2;
  c.nets.push_back({{0, 0}, {{0, 0}}});  // all pins on one block
  Device device(ArchSpec::xc4000(2, 2, 1));
  const RoutingResult r = route_circuit(device, c, RouterOptions{});
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.nets[0].routed());
  EXPECT_TRUE(r.nets[0].edges.empty());
}

TEST(RouterTest, FailedDecomposedNetRollsBackItsWires) {
  // At W=1 a block has exactly four adjacent wire segments, so two-pin
  // decomposition of a five-sink net must fail on a later sink after the
  // earlier connections already consumed wires. The failed net's partial
  // commit must be rolled back: the device ends exactly as before the net
  // was attempted.
  Device device(ArchSpec::xc4000(4, 4, 1));
  Circuit c;
  c.rows = c.cols = 4;
  c.nets.push_back({{1, 1}, {{3, 3}, {0, 3}, {3, 0}, {2, 2}, {0, 0}}});
  RouterOptions options;
  options.decompose_two_pin = true;
  options.max_passes = 1;
  const Weight base_weight = device.graph().mean_active_edge_weight();
  const RoutingResult r = route_circuit(device, c, options);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.nets[0].routed());
  EXPECT_EQ(device.used_wire_count(), 0);  // every consumed wire reclaimed
  // Congestion penalties charged by the partial commit are undone too.
  EXPECT_DOUBLE_EQ(device.graph().mean_active_edge_weight(), base_weight);
}

TEST(RouterTest, DecomposedWireAccountingMatchesDevice) {
  // Invariant across a mixed success/failure pass: the wires the device
  // holds consumed are exactly the ones the routed nets account for —
  // failed nets contribute nothing (no partial-commit leak).
  Device device(ArchSpec::xc4000(4, 4, 1));
  Circuit c;
  c.rows = c.cols = 4;
  c.nets.push_back({{0, 0}, {{0, 1}}});
  c.nets.push_back({{1, 1}, {{3, 3}, {0, 3}, {3, 0}, {2, 2}, {0, 2}}});
  c.nets.push_back({{3, 1}, {{2, 3}}});
  RouterOptions options;
  options.decompose_two_pin = true;
  options.max_passes = 2;
  const RoutingResult r = route_circuit(device, c, options);
  EXPECT_FALSE(r.success);
  int accounted = 0;
  for (const auto& net : r.nets) {
    if (net.routed()) accounted += net.wire_nodes_used;
  }
  EXPECT_EQ(device.used_wire_count(), accounted);
}

TEST(RouterTest, CongestionPenaltyRaisesRemainingWeights) {
  Device device(ArchSpec::xc4000(4, 4, 3));
  Circuit c;
  c.rows = c.cols = 4;
  c.nets.push_back({{0, 0}, {{3, 3}}});
  RouterOptions options;
  options.congestion_penalty = 0.5;
  const Weight before = device.graph().mean_active_edge_weight();
  const RoutingResult r = route_circuit(device, c, options);
  ASSERT_TRUE(r.success);
  EXPECT_GT(device.graph().mean_active_edge_weight(), before);
}

/// FNV-1a over every field of every NetRouteResult and NetCommitLog of `r`
/// (Weight fields by bit pattern): any change to per-net routing output,
/// however small, changes the digest.
std::uint64_t per_net_digest(const RoutingResult& r) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&](auto value) {
    std::uint64_t v = 0;
    if constexpr (std::is_floating_point_v<decltype(value)>) {
      v = std::bit_cast<std::uint64_t>(static_cast<double>(value));
    } else {
      v = static_cast<std::uint64_t>(value);
    }
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  mix(r.nets.size());
  for (const NetRouteResult& n : r.nets) {
    mix(static_cast<int>(n.status));
    mix(n.retries);
    mix(n.blocked_sink);
    mix(n.edges.size());
    for (const EdgeId e : n.edges) mix(e);
    mix(n.wirelength);
    mix(n.max_pathlength);
    mix(n.optimal_max_pathlength);
    mix(n.physical_wirelength);
    mix(n.physical_max_path);
    mix(n.wire_nodes_used);
  }
  mix(r.commit_logs.size());
  for (const NetCommitLog& log : r.commit_logs) {
    mix(log.wires.size());
    for (const NodeId w : log.wires) mix(w);
    mix(log.penalized.size());
    for (const EdgeId e : log.penalized) mix(e);
  }
  return h;
}

TEST(RouterTest, PerNetOutputIsPinned) {
  // Exact per-net output of both modes, with and without faults, and of a
  // dead-wire repair in each mode, pinned as digests. Routing is
  // deterministic, so a changed digest is a behaviour change: a refactor
  // must leave every pin alone, a deliberate change re-pins it.
  const CircuitProfile& profile = xc3000_profiles()[0];
  const ArchSpec arch = ArchSpec::xc3000(profile.rows, profile.cols, profile.paper_ikmb);
  const Circuit circuit = synthesize_circuit(profile, 31);
  FaultSpec faults;
  faults.seed = 9;
  faults.wire_permille = 30;
  faults.switch_permille = 20;

  RouterOptions paper;
  paper.max_passes = 6;
  paper.record_commits = true;
  RouterOptions negotiated = paper;
  negotiated.mode = RouterMode::kNegotiated;
  negotiated.negotiate_passes = 16;

  const auto faulty_route = [&](const RouterOptions& options) {
    Device device(arch);
    device.install_faults(faults);
    return per_net_digest(route_circuit(device, circuit, options));
  };
  // Kills the first wire of the first net that holds any and repairs.
  const auto repaired = [&](Device& device, RoutingResult& result, const RouterOptions& options) {
    Circuit live = circuit;
    RepairEvent event;
    for (const NetCommitLog& log : result.commit_logs) {
      if (log.wires.empty()) continue;
      event.faults.dead_wires = {log.wires.front()};
      break;
    }
    EXPECT_FALSE(event.faults.dead_wires.empty());
    repair_route(device, live, result, event, options);
    return per_net_digest(result);
  };

  Device paper_device(arch);
  RoutingResult paper_result = route_circuit(paper_device, circuit, paper);
  EXPECT_EQ(per_net_digest(paper_result), 0x50938f6cf2fc92f0ULL) << "paper";
  Device negotiated_device(arch);
  RoutingResult negotiated_result = route_circuit(negotiated_device, circuit, negotiated);
  EXPECT_EQ(per_net_digest(negotiated_result), 0x85f60f09df4e7df5ULL) << "negotiated";
  counters().reset();
  EXPECT_EQ(faulty_route(paper), 0x7b489235e8434e5cULL) << "paper, faulty";
  EXPECT_GT(counters().congestion_reliefs.load(), 0U) << "the fault-retry ladder never ran";
  EXPECT_EQ(faulty_route(negotiated), 0x8927fd0764124986ULL) << "negotiated, faulty";
  EXPECT_EQ(repaired(paper_device, paper_result, paper), 0x2025099d54bde7aeULL)
      << "paper repair";
  EXPECT_EQ(repaired(negotiated_device, negotiated_result, negotiated), 0x62fa7b79b9b8555bULL)
      << "negotiated repair";
}

}  // namespace
}  // namespace fpr
